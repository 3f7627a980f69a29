import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import petrimod

from petrimod import (
    NodeId,
    compose,
    empty_module,
    evaluate,
    is_monolithic,
    structural_equal,
    verify_well_formed,
)
from petrimod.errors import NonDisjointOperands

from conftest import module, node


def _sides(m):
    fmt = lambda iface: [(s.label, s.index) for s in iface.indexed(m.label_of)]
    return fmt(m.left), fmt(m.right)


def two_gamma_operands():
    """A with right [delta, gamma, gamma], B with left [gamma, gamma, beta]:
    both gamma slots pair up; delta and beta stay unmatched."""
    a_nodes = [
        node("a", "x", "alpha"),
        node("a", "d", "delta"),
        node("a", "g1", "gamma"),
        node("a", "g2", "gamma"),
    ]
    a = module(
        a_nodes,
        edges=[(a_nodes[0].id, a_nodes[2].id)],
        left=[a_nodes[0].id],
        right=[a_nodes[1].id, a_nodes[2].id, a_nodes[3].id],
    )
    b_nodes = [
        node("b", "g1", "gamma"),
        node("b", "g2", "gamma"),
        node("b", "bb", "beta"),
        node("b", "y", "alpha"),
    ]
    b = module(
        b_nodes,
        edges=[(b_nodes[0].id, b_nodes[3].id)],
        left=[b_nodes[0].id, b_nodes[1].id, b_nodes[2].id],
        right=[b_nodes[3].id],
    )
    return a, b


def test_two_gamma_pairs_merge_and_leftovers_append():
    a, b = two_gamma_operands()
    c = compose(a, b)
    left, right = _sides(c)
    # left: all of a's left, then b's unmatched beta
    assert left == [("alpha", 1), ("beta", 1)]
    # right: all of b's right, then a's unmatched delta
    assert right == [("alpha", 1), ("delta", 1)]
    merged = [nid for nid in c.nodes if len(nid.atoms) == 2]
    assert len(merged) == 2
    assert all(c.label_of(nid) == "gamma" for nid in merged)
    # merged pairs become interior
    assert set(merged) <= c.interior()
    assert verify_well_formed(c) == []


def test_merged_ids_are_flat_atom_unions():
    a, b = two_gamma_operands()
    c = compose(a, b)
    merged = sorted(nid for nid in c.nodes if len(nid.atoms) == 2)
    assert merged[0] == NodeId.single("a", "g1").merge(NodeId.single("b", "g1"))
    assert merged[1] == NodeId.single("a", "g2").merge(NodeId.single("b", "g2"))


def test_node_id_hash_is_the_dataclass_hash():
    a, b = NodeId.single("a", "g1"), NodeId.single("b", "g1")
    for nid in (a, b, a.merge(b)):
        assert hash(nid) == hash((nid.atoms,))
    assert hash(a.merge(b)) == hash(b.merge(a))


def test_node_id_unpickles_with_the_receiving_process_hash():
    # string hashes are salted per process, so a stored hash must not travel
    nid = NodeId.single("a", "g1").merge(NodeId.single("b", "g2"))
    code = (
        "import pickle, sys\n"
        "from petrimod import NodeId\n"
        "nid = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = NodeId.single('a', 'g1').merge(NodeId.single('b', 'g2'))\n"
        "assert hash(nid) == hash(fresh) and nid in {fresh}\n"
    )
    src = str(Path(petrimod.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], input=pickle.dumps(nid), env=env, check=True)


def test_edges_pass_through_merge_map():
    a, b = two_gamma_operands()
    c = compose(a, b)
    g1 = NodeId.single("a", "g1").merge(NodeId.single("b", "g1"))
    assert (NodeId.single("a", "x"), g1) in c.edges
    assert (g1, NodeId.single("b", "y")) in c.edges


def test_identity_both_sides():
    a, _ = two_gamma_operands()
    e = empty_module()
    assert structural_equal(compose(e, a), a)
    assert structural_equal(compose(a, e), a)


def test_no_pairs_degenerates_to_disjoint_union():
    a = module([node("a", "x", "alpha")], left=[NodeId.single("a", "x")], right=[NodeId.single("a", "x")])
    b = module([node("b", "y", "beta")], left=[NodeId.single("b", "y")], right=[NodeId.single("b", "y")])
    c = compose(a, b)
    assert len(c.nodes) == 2 and len(c.edges) == 0
    left, right = _sides(c)
    assert left == [("alpha", 1), ("beta", 1)]
    assert right == [("beta", 1), ("alpha", 1)]


def test_shared_atoms_rejected():
    a = module([node("a", "x", "alpha")])
    b = module([node("a", "x", "alpha")])
    with pytest.raises(NonDisjointOperands):
        compose(a, b)


def test_marking_sums_on_merged_places():
    pa = node("a", "pl", "p")
    pb = node("b", "pl", "p")
    a = module([pa], right=[pa.id], marking={pa.id: 2})
    b = module([pb], left=[pb.id], marking={pb.id: 3})
    c = compose(a, b)
    merged = next(iter(c.nodes))
    assert c.tokens(merged) == 5
    assert sum(c.marking.values()) == sum(a.marking.values()) + sum(b.marking.values())


def test_result_is_unnamed():
    a, b = two_gamma_operands()
    assert compose(a, b).name is None


def test_production_line_values(prod_env):
    two = evaluate(prod_env, "two_steps")
    left, right = _sides(two)
    assert left == [("material", 1), ("material", 2)]
    assert right == [("product", 1), ("product", 2)]

    grouped = evaluate(prod_env, "line_grouped")
    left, right = _sides(grouped)
    assert left == [("material", 1), ("material", 2), ("material", 3)]
    assert right == [("parcel", 1), ("parcel", 2), ("product", 1)]

    mixed = evaluate(prod_env, "line_mixed")
    left, right = _sides(mixed)
    assert left == [("material", 1), ("material", 2), ("material", 3)]
    assert right == [("product", 1), ("parcel", 1), ("parcel", 2)]


def test_monolithic_predicate():
    x = node("a", "x", "alpha")
    both = module([x], left=[x.id], right=[x.id])
    assert is_monolithic(both)
    assert is_monolithic(empty_module())
    onesided = module([x], left=[x.id])
    assert not is_monolithic(onesided)
