"""The structural invariants, each broken on purpose twice: in the input of
`Module(...)`, which must refuse it, and planted on a built module, where
`verify_well_formed` must report it.  Both go through one checker, so one
message fragment per defect pins both paths."""

import re

import pytest

from petrimod import Kind, Module, Node, NodeId, structural_equal, verify_well_formed
from petrimod.errors import MalformedModule

from conftest import node

P, Q, T = node("w", "p", "p"), node("w", "q", "q"), node("w", "t", "t")
GHOST = NodeId.single("w", "ghost")
Y = NodeId.single("w", "y")
SHARES_P = NodeId(P.id.atoms | Y.atoms)


def _parts(**changes):
    parts = dict(nodes=[P, Q, T], edges=[(P.id, T.id), (T.id, Q.id)], left=[P.id], right=[Q.id],
                 marking={P.id: 1})
    parts.update(changes)
    return parts


def _set(attr, key, value):
    def plant(m):
        getattr(m, attr)[key] = value
    return plant


def _drop(nid):
    def plant(m):
        del m.nodes[nid]
    return plant


# defect -> (constructor arguments with only that defect, the same defect
# planted on a well-formed module, fragment of the reported problem)
CASES = {
    "key is not the node id": (_parts(nodes={P.id: P, Q.id: Q, T.id: T, Y: P}),
                               _set("nodes", Y, P), "node map key"),
    "shared atoms": (_parts(nodes=[P, Q, T, Node(SHARES_P, "q", Kind.PLACE)]),
                     _set("nodes", SHARES_P, Node(SHARES_P, "q", Kind.PLACE)), "share atoms"),
    "one label, two kinds": (_parts(nodes=[P, Q, T, Node(Y, "p", Kind.TRANSITION)]),
                             _set("nodes", Y, Node(Y, "p", Kind.TRANSITION)), "used with kinds"),
    "dangling edge": (_parts(edges=[(P.id, T.id), (T.id, GHOST)]), _drop(T.id), "edge ("),
    "left names an unknown node": (_parts(left=[P.id, GHOST]), _drop(P.id),
                                   "left interface references unknown node"),
    "right names an unknown node": (_parts(right=[Q.id, GHOST]), _drop(Q.id),
                                    "right interface references unknown node"),
    "marking on an unknown node": (_parts(marking={P.id: 1, GHOST: 1}), _set("marking", GHOST, 1),
                                   "marking on unknown node"),
    "marking on a transition": (_parts(marking={T.id: 1}), _set("marking", T.id, 1),
                                "marking on non-place node"),
    **{
        f"count {count!r}": (_parts(marking={P.id: count}), _set("marking", P.id, count),
                             "tokens must be a non-negative integer")
        for count in (True, False, 1.5, 0.0, -1, "1", None)
    },
}


def test_the_undamaged_module_is_well_formed():
    m = Module(**_parts())
    assert verify_well_formed(m) == []
    assert structural_equal(Module(**_parts(nodes={n.id: n for n in (P, Q, T)})), m)


@pytest.mark.parametrize("defect", CASES)
def test_constructor_refuses(defect):
    parts, _, fragment = CASES[defect]
    with pytest.raises(MalformedModule, match=re.escape(fragment)):
        Module(**parts)


@pytest.mark.parametrize("defect", CASES)
def test_sweep_reports_planted_defect(defect):
    _, plant, fragment = CASES[defect]
    m = Module(**_parts())
    plant(m)
    problems = verify_well_formed(m)
    assert any(fragment in p for p in problems), problems


def test_zero_counts_are_dropped_not_refused():
    assert Module(**_parts(marking={P.id: 0, GHOST: 0})).marking == {}


def test_names_and_labels_are_strings():
    with pytest.raises(MalformedModule, match="name"):
        Module(**_parts(name=5))
    for label in (7, None, ""):
        with pytest.raises(MalformedModule, match="label"):
            Node(Y, label, Kind.PLACE)
