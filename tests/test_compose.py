import functools
import gc
import operator
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

import petrimod

from petrimod import (
    AtomicNodeId,
    Kind,
    Module,
    Node,
    NodeId,
    abstract_of,
    closure,
    compose,
    core,
    dumps,
    empty_module,
    evaluate,
    factorize,
    fixture_path,
    instantiate,
    is_monolithic,
    parse,
    structural_equal,
    transition_atom,
    validate_net,
    verify_well_formed,
)
from petrimod.errors import KindMismatch, MalformedModule, NonDisjointOperands, PetrimodError
from petrimod.generate import random_module

from conftest import line_events, module, node


def _sides(m):
    fmt = lambda iface: list(iface.indexed(m.label_of).values())
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


def test_node_id_hash_is_its_atom_set_hash():
    a, b = NodeId.single("a", "g1"), NodeId.single("b", "g1")
    for nid in (a, b, a.merge(b)):
        assert hash(nid) == hash(frozenset(nid.atoms))
    assert hash(a.merge(b)) == hash(b.merge(a))


def test_node_id_hashes_in_c():
    # frozenset's own hash, computed once and cached: no Python frame per dict probe
    assert NodeId.__hash__ is frozenset.__hash__
    assert "_hash" not in NodeId.__slots__ and "__reduce__" not in vars(NodeId)


def test_node_id_equals_only_node_ids():
    a, b = NodeId.single("a", "g1"), NodeId.single("b", "g1")
    ab = a.merge(b)
    atoms = frozenset(ab.atoms)
    assert ab == b.merge(a) and not ab != b.merge(a)
    for other in (atoms, (atoms,), set(atoms)):
        assert ab != other and not ab == other
    assert atoms != ab and not atoms == ab and (atoms,) != ab
    assert ab not in {atoms} and atoms not in {ab}
    # the documented exception: set.__eq__ runs first and accepts any frozenset subclass
    assert set(atoms) == ab


def test_node_id_orders_by_key_only():
    a, b = NodeId.single("a", "g1"), NodeId.single("b", "g1")
    ab = a.merge(b)
    assert sorted([b, ab, a]) == [a, ab, b]  # keys: (a:g1) < (a:g1, b:g1) < (b:g1)
    assert a < ab and not a > ab and b > ab and max(a, b) == b
    for op in (operator.le, operator.ge):
        with pytest.raises(TypeError):
            op(a, ab)  # not a subset test


def test_node_id_pickles_keep_key_and_hash_afresh():
    nid = NodeId.single("a", "g1").merge(NodeId.single("b", "g2"))
    bare = NodeId(nid.atoms)
    nid.key  # filled on one copy only
    for fresh in (nid, bare):
        back = pickle.loads(pickle.dumps(fresh))
        assert type(back) is NodeId and back == nid and hash(back) == hash(nid)
        assert back.key == nid.key == (("a", "g1"), ("b", "g2"))


def test_atoms_are_slotted_and_small():
    # own-process allocations only; the field strings exist before tracing starts
    names = [f"n{k}" for k in range(100_000)]
    tracemalloc.start()
    try:
        atoms = [AtomicNodeId("i1", name) for name in names]
        size = tracemalloc.get_traced_memory()[0] - sys.getsizeof(atoms)
    finally:
        tracemalloc.stop()
    assert size / len(atoms) <= 64  # 48 B with slots; 88 B (Python 3.11) with a __dict__
    a = atoms[7]
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):  # still frozen
        a.name = "m"
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a) == hash(("i1", "n7")) and back < AtomicNodeId("i1", "n8")


def test_node_id_needs_an_atom():
    with pytest.raises(MalformedModule):
        NodeId(frozenset())
    with pytest.raises(MalformedModule):
        NodeId(())


def test_retagging_matches_the_prefix_once(monkeypatch):
    nid = NodeId(AtomicNodeId(f"i{k}", f"n{k}") for k in range(5))
    matched = []
    field = core._ATOM_FIELD

    class Counting:
        def match(self, text):
            matched.append(text)
            return field.match(text)

    monkeypatch.setattr(core, "_ATOM_FIELD", Counting())
    got = nid.retagged("f1")
    assert matched == ["f1"]
    monkeypatch.undo()
    assert got == NodeId(AtomicNodeId(f"f1/{a.instance}", a.name) for a in nid)
    assert all(type(a) is AtomicNodeId for a in got)


def test_retagging_under_a_bad_prefix_raises_as_the_atom_would():
    nid = NodeId.single("a", "g1")
    for bad in ("x y", "x:y", "x+y", "x\n"):
        with pytest.raises(MalformedModule) as checked:
            AtomicNodeId(f"{bad}/a", "g1")
        with pytest.raises(MalformedModule, match=re.escape(str(checked.value))):
            nid.retagged(bad)
    # an empty prefix is no valid field, but "/a" is: it is accepted as before
    assert nid.retagged("") == NodeId.single("/a", "g1")


def reference_retagged(m: Module, prefix: str) -> Module:
    """`Module.retagged` as the checked constructor builds it."""
    remap = {nid: nid.retagged(prefix) for nid in m.nodes}
    return Module(
        [Node(remap[n.id], n.label, n.kind) for n in m.nodes.values()],
        [(remap[s], remap[d]) for s, d in m.edges],
        [remap[n] for n in m.left],
        [remap[n] for n in m.right],
        {remap[n]: c for n, c in m.marking.items()},
        m.name,
    )


def _retag_outcome(m: Module) -> tuple:
    return dumps(m), [str(n) for n in m.nodes], [str(n) for n in m.marking], m.name, verify_well_formed(m)


def test_trusted_retagging_matches_the_checked_constructor(phil_env, prod_env):
    rng = random.Random(1902)
    modules = [evaluate(env, name) for env in (phil_env, prod_env) for name in env.names()]
    modules += [random_module(rng, f"r{i}", name=rng.choice((None, "box"))) for i in range(500)]
    modules.append(empty_module())
    for m in modules:
        for prefix in ("copy", "f1", "a/b", ""):
            assert _retag_outcome(m.retagged(prefix)) == _retag_outcome(reference_retagged(m, prefix))


def test_retagging_a_module_under_a_bad_prefix_raises(phil_env):
    ring = evaluate(phil_env, "phils_in_a_cycle")
    for bad in ("x y", "x:y", "x+y"):
        with pytest.raises(MalformedModule) as checked:
            reference_retagged(ring, bad)
        with pytest.raises(MalformedModule, match=re.escape(str(checked.value))):
            ring.retagged(bad)
        assert empty_module().retagged(bad).is_empty()  # no atom to refuse, as before


def test_node_id_memory_is_bounded():
    atoms = [AtomicNodeId("i1", f"n{k}") for k in range(100_000)]
    tracemalloc.start()
    try:
        ids = [NodeId((atom,)) for atom in atoms]
        for nid in ids:
            nid.key
        used = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert used / len(ids) < 384  # the id with its atom set, its key and a list slot


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


def test_kind_mismatch_names_the_first_pair_in_label_order():
    a_nodes = [Node(NodeId.single("a", lab), lab, Kind.PLACE) for lab in ("q", "p")]
    b_nodes = [Node(NodeId.single("b", lab), lab, Kind.TRANSITION) for lab in ("q", "p")]
    a = module(a_nodes, right=[n.id for n in a_nodes])
    b = module(b_nodes, left=[n.id for n in b_nodes])
    with pytest.raises(KindMismatch, match=r"^pair 'p'@1 merges place with transition$"):
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


# -- n-ary composition against the binary fold ------------------------------------


def reference_compose(a, b):
    """The plain binary composition: pair, merge, rebuild the whole module."""
    shared = a.atom_set & b.atom_set
    if shared:
        raise NonDisjointOperands(shared)
    by_r, by_l = {}, {}
    for side, by, m in ((a.right, by_r, a), (b.left, by_l, b)):
        for nid in side:
            by.setdefault(m.label_of(nid), []).append(nid)
    pairs = sorted(
        (label, i, x, y)
        for label, xs in by_r.items()
        for i, (x, y) in enumerate(zip(xs, by_l.get(label, ())), start=1)
    )
    merged = {}
    for label, i, x, y in pairs:
        if a.kind_of(x) is not b.kind_of(y):
            raise KindMismatch(f"pair {label!r}@{i} merges {a.kind_of(x).value} with {b.kind_of(y).value}")
        merged[x] = merged[y] = x.merge(y)
    mp = lambda nid: merged.get(nid, nid)
    nodes = {}
    for m in (a, b):
        for node in m.nodes.values():
            nid = mp(node.id)
            nodes[nid] = node if nid is node.id else Node(nid, node.label, node.kind)
    marking = {}
    for m in (a, b):
        for nid, count in m.marking.items():
            marking[mp(nid)] = marking.get(mp(nid), 0) + count
    return Module(
        nodes,
        {(mp(s), mp(d)) for s, d in a.edges | b.edges},
        [mp(n) for n in a.left] + [n for n in b.left if n not in merged],
        [mp(n) for n in b.right] + [n for n in a.right if n not in merged],
        marking,
    )


def _outcome(fn):
    try:
        m = fn()
    except PetrimodError as e:
        return type(e), str(e)
    # a glued result is built unchecked: the independent sweep must find nothing
    assert verify_well_formed(m) == []
    return dumps(m), list(m.nodes), list(m.marking.items()), m.left.slots, m.right.slots, m.name


def _rekinded(m, label):
    """`m` with every node labelled `label` moved to another kind."""
    flip = {Kind.PLACE: Kind.TRANSITION, Kind.TRANSITION: Kind.ABSTRACT, Kind.ABSTRACT: Kind.PLACE}
    nodes = [Node(n.id, n.label, flip[n.kind]) if n.label == label else n for n in m.nodes.values()]
    marking = {nid: c for nid, c in m.marking.items() if m.label_of(nid) != label}
    return Module(nodes, m.edges, m.left, m.right, marking)


def _chain(rng):
    parts = []
    for k in range(rng.randint(0, 6)):
        if parts and rng.random() < 0.4:
            # the same slot labels again, so merges chain through nodes on both sides
            part = parts[-1].retagged(f"r{k}")
        else:
            tag = f"p{rng.randrange(k)}" if k and rng.random() < 0.1 else f"p{k}"  # a reused tag shares atoms
            part = random_module(rng, tag, max_nodes=rng.choice((3, 6, 12)))
        if rng.random() < 0.1:
            part = _rekinded(part, rng.choice(sorted({n.label for n in part.nodes.values()})))
        parts.append(part)
    return parts


def test_nary_compose_matches_the_binary_fold():
    rng = random.Random(5)
    seen = Counter()
    for _ in range(1500):
        parts = _chain(rng)
        want = _outcome(lambda: functools.reduce(reference_compose, parts, empty_module()))
        assert _outcome(lambda: compose(*parts)) == want
        if isinstance(want[0], str):
            seen["ok"] += 1
            seen["chained"] += any(len(nid.atoms) > 2 for nid in want[1])
        else:
            seen[want[0].__name__] += 1
    # every branch is exercised: chained merges and each error kind
    assert min(seen.values()) >= 20, seen
    assert set(seen) == {"ok", "chained", "NonDisjointOperands", "KindMismatch", "MalformedModule"}


# -- binary groupings, built on first read, against the reference -----------------


def _grouping(rng, lo, hi, shape):
    """A binary tree over the leaves lo..hi-1, as nested pairs of leaf indices:
    a left fold, a right fold or a random grouping."""
    if hi - lo == 1:
        return lo
    k = {"left": hi - 1, "right": lo + 1}.get(shape) or rng.randrange(lo + 1, hi)
    return _grouping(rng, lo, k, shape), _grouping(rng, k, hi, shape)


def _grouped(tree, leaves, glue, reads=(), given=None):
    """Every composite of `tree`, by subtree, glued with `glue`, operands
    first; `given` holds subtrees already evaluated, and the result of the
    k-th call is read (its nodes, left or right interface, in turn) when k
    is in `reads`.  Stops at the first error, returned as (call number,
    type, message), or None."""
    given = given or {}
    results = {}

    def value(t):
        if isinstance(t, int):
            return leaves[t]
        if t in given:
            return given[t]
        m = glue(value(t[0]), value(t[1]))
        results[t] = m
        if len(results) in reads:
            getattr(m, ("nodes", "left", "right")[len(results) % 3])
        return m

    try:
        value(tree)
    except PetrimodError as e:
        return results, (len(results) + 1, type(e), str(e))
    return results, None


_FIRST_READS = ("atom_set", "left", "right", "nodes")


def _read(m, first):
    """What `m` shows to a first read of `first`, one of `_FIRST_READS`,
    then its `_outcome`, atom set and label table.  Only a label table
    entry's label and kind are ever read, so only they are compared."""
    before = getattr(m, first)
    outcome = _outcome(lambda: m)
    return before, outcome, m.atom_set, [(label, n.kind) for label, n in m._node_per_label().items()]


_UNREAD_OPS = (
    None,
    lambda m: m.with_name("W"),
    closure,
    abstract_of,  # an unnamed result: UnnamedModule, before anything is built
    lambda m: abstract_of(m.with_name("W")),
)


def test_binary_groupings_match_the_reference_grouped_alike():
    rng = random.Random(2020)
    seen = Counter()
    trees = 0
    while trees < 1500:
        parts = _chain(rng)
        parts += [empty_module() for _ in range(2 - len(parts))]
        n = len(parts)
        tree = _grouping(rng, 0, n, rng.choice(("left", "right", "random", "random")))
        reads = {k for k in range(1, n - 1) if rng.random() < 0.3}  # never the last call
        lazy, error = _grouped(tree, parts, compose, reads)
        ref, want = _grouped(tree, parts, reference_compose)
        assert error == want  # same type and message, raised at the same call
        runs = [(lazy, ref)]
        seen[want[1].__name__ if want else "ok"] += 1
        trees += 1
        shared = [t for t in ref if t != tree]
        if shared and rng.random() < 0.4:
            # a subtree shared with a second tree whose other leaves are atom-disjoint copies
            sub = rng.choice(shared)
            copies = [part.retagged("s") for part in parts]
            lazy2, error = _grouped(tree, copies, compose, given={sub: lazy[sub]})
            ref2, want = _grouped(tree, copies, reference_compose, given={sub: ref[sub]})
            assert error == want
            runs.append((lazy2, ref2))
            trees += 1
        op = rng.choice(_UNREAD_OPS)
        for lazy, ref in runs:
            if op and tree in ref:
                assert _outcome(lambda: op(lazy[tree])) == _outcome(lambda: op(ref[tree]))
            order = sorted(ref, key=lambda t: t != tree)  # the whole tree first, then its parts
            for t in order:
                first = _FIRST_READS[int(rng.random() * len(_FIRST_READS))]  # one draw per read, so later trees stay the same
                assert _read(lazy[t], first) == _read(ref[t], first)
                seen["chained"] += any(len(nid.atoms) > 2 for nid in ref[t].nodes)
    # every branch is exercised: chained merges and each error kind
    assert min(seen.values()) >= 20, seen
    assert set(seen) == {"ok", "chained", "NonDisjointOperands", "KindMismatch", "MalformedModule"}


def _fork_seats(env, n):
    """The leaves of the fork-centric ring of n seats: think, left_use,
    right_use and eat per seat."""
    names = ("think", "left_use", "right_use", "eat")
    return [[instantiate(env.snippets[name], env.alphabet, f"f{i}.{k}") for k, name in enumerate(names)]
            for i in range(n)]


def _fold_fork_seats(seats):
    """The ring's open row as bench's fork job folds it: per seat
    think . (left_use . right_use) . eat, seats left-associated."""
    row = None
    for think, left, right, eat in seats:
        seat = compose(compose(think, compose(left, right)), eat)
        row = seat if row is None else compose(row, seat)
    return row


def _core_lines_folding_a_fork_ring(env, n):
    """Line events inside core.py while binary `compose` calls fold the
    fork-centric ring of n seats and `closure` closes it."""
    seats = _fork_seats(env, n)
    count, ring = line_events(core.__file__, lambda: closure(_fold_fork_seats(seats)))
    assert (len(ring.nodes), len(ring.edges), sum(ring.marking.values())) == (5 * n, 8 * n, 2 * n)
    return count


def test_a_binary_fold_of_the_fork_ring_is_linear_work(phil_env):
    short = _core_lines_folding_a_fork_ring(phil_env, 100)
    long = _core_lines_folding_a_fork_ring(phil_env, 200)
    # rebuilding the growing row at every step gives about 4
    assert long / short <= 2.2, (short, long)


def _core_lines_folding_think_snippets(monkeypatch, env, n):
    """Line events inside core.py while binary `compose` calls fold n
    `think` snippets one by one and the left interface of the result is
    read.  Checks which `NodeId`s that mints, and the result against one
    n-ary `compose` of the same snippets."""
    leaves = [instantiate(env.snippets["think"], env.alphabet, f"t{i}") for i in range(n)]
    minted, new = [], NodeId.__new__

    def mint(cls, atoms):
        nid = new(cls, atoms)
        minted.append(len(nid))
        return nid

    def fold():
        row = functools.reduce(compose, leaves)
        folded = len(minted)
        row.left  # the first read builds the row
        return row, folded

    monkeypatch.setattr(NodeId, "__new__", staticmethod(mint))
    count, (row, folded) = line_events(core.__file__, fold)
    monkeypatch.undo()
    # every take and every return merge into one node, whose id is minted once, at the read
    assert folded == 0 and minted == [n, n], (folded, minted[-2:])
    assert (len(row.nodes), len(row.edges), len(row.left), len(row.right)) == (n + 2, 2 * n, 2, 2)
    assert structural_equal(row, compose(*leaves))
    return count


def test_a_binary_fold_of_think_snippets_is_linear_work(monkeypatch, phil_env):
    short = _core_lines_folding_think_snippets(monkeypatch, phil_env, 1000)
    long = _core_lines_folding_think_snippets(monkeypatch, phil_env, 2000)
    # a class walked to its root again per node gives about 4
    assert long / short <= 2.2, (short, long)


def _links(tag, n):
    """n modules x -> t -> y with x on the left and y on the right, both
    labelled p, so that composing them in a row merges each y with the next x."""
    links = []
    for i in range(n):
        x, t, y = node(f"{tag}{i}", "x", "p"), node(f"{tag}{i}", "t", "t"), node(f"{tag}{i}", "y", "p")
        links.append(module([x, t, y], [(x.id, t.id), (t.id, y.id)], [x.id], [y.id]))
    return links


def _right_nested(links):
    chain = links[-1]
    for link in reversed(links[:-1]):
        chain = compose(link, chain)
    return chain


def test_a_right_nested_chain_of_ten_thousand_calls_builds_at_its_first_read():
    assert sys.getrecursionlimit() <= 1000
    n = 10_000
    links = _links("c", n)
    chain = _right_nested(links)
    assert chain.left.slots == links[0].left.slots and chain.right.slots == links[-1].right.slots
    # the first read flattens 10^4 nested results, and then drops them
    assert (len(chain.nodes), len(chain.edges)) == (2 * n + 1, 2 * n)
    assert verify_well_formed(chain) == []
    assert chain.nodes[links[1].left[0].merge(links[0].right[0])].label == "p"
    # an unread chain as deep is dropped without a read
    _right_nested(_links("u", n))


def test_a_read_result_lets_its_leaves_go(phil_env):
    seats = _fork_seats(phil_env, 3)
    leaf = weakref.ref(seats[0][1])
    middle = compose(compose(seats[0][0], compose(seats[0][1], seats[0][2])), seats[0][3])
    row = _fold_fork_seats(seats)
    del seats
    assert leaf() is not None  # the unread row still holds what it is made of
    assert len(closure(row).nodes) == 15
    assert leaf() is not None  # the unread intermediate still holds it
    del middle
    assert leaf() is None


def _kinds(labels):
    return [(label, n.kind) for label, n in labels.items()]


def test_a_fold_keeps_one_label_table_and_one_atom_set(phil_env):
    seats = _fork_seats(phil_env, 4)
    row = _fold_fork_seats(seats)
    records = row._pending.walk()[0]
    # every later call took over its unread operands' table and set
    assert len(records) == 4 * 3 + 3
    assert all(r.labels is None and r.atoms is None for r in records[1:])
    think, left, right, eat = seats[0]
    inner = compose(left, right)
    compose(think, inner)
    assert inner._pending.atoms is None
    # the top record's own and a taken record's rebuilt ones are what the first read derives
    for m in (row, inner):
        labels, atoms = m._pending.held()
        assert _kinds(labels) == _kinds(m._node_per_label()) and atoms == m.atom_set


def _referent_types(m):
    return sorted(type(r).__name__ for r in gc.get_referents(m))


def test_a_built_module_holds_only_its_parts(phil_env):
    a, b = two_gamma_operands()
    glued = compose(a, b)
    glued.nodes
    ring = evaluate(phil_env, "phils_in_a_cycle")
    atom = factorize(validate_net(ring)).atoms[0]
    for m in (glued, closure(glued), glued.with_name("W"), glued.retagged("r"), ring, ring.retagged("r"), atom):
        plain = Module(m.nodes, m.edges, m.left, m.right, m.marking, m.name)
        assert type(m) is Module and _referent_types(m) == _referent_types(plain)
        for built in (m, plain):
            # by identity: the parts, the name, the None of `_pending` (no record) and the class
            held = (built.nodes, built.edges, built.left, built.right, built.marking, built.name, None, Module)
            assert sorted(map(id, gc.get_referents(built))) == sorted(map(id, held))
            assert built.atom_set == frozenset().union(*built.nodes)
    unread = compose(glued, a.retagged("u"))
    assert type(unread) is not Module
    atoms = unread.atom_set  # the first read
    assert type(unread) is Module and unread._pending is None
    assert atoms == frozenset().union(*unread.nodes) == glued.atom_set | a.retagged("u").atom_set


def test_compose_of_one_or_no_parts():
    a, _ = two_gamma_operands()
    assert structural_equal(compose(a), a) and compose(a).name is None
    assert structural_equal(compose(), empty_module())


def _nodes_kind_checked_for_a_row(monkeypatch, phil_src, n):
    """Nodes that go through the one-kind-per-label rule, from
    `Module(...)`'s checker and from gluing, while a row is evaluated."""
    env = parse(phil_src + "\nrow := " + " . ".join(["phil_with_forks"] * n) + "\n")
    seen = []
    rule = core._kind_clashes
    monkeypatch.setattr(core, "_kind_clashes", lambda first, nodes: rule(first, _tally(nodes, seen)))
    assert len(evaluate(env, "row").nodes) == 5 * n + 1
    monkeypatch.undo()
    return len(seen)


def _tally(items, seen):
    for item in items:
        seen.append(item)
        yield item


def test_a_composition_chain_is_checked_in_linear_work(monkeypatch):
    src = fixture_path("philosophers.hkl").read_text(encoding="utf-8")
    short = _nodes_kind_checked_for_a_row(monkeypatch, src, 100)
    long = _nodes_kind_checked_for_a_row(monkeypatch, src, 200)
    # a fold that checks the chain again at every step checks ~N^2/2 entries: ratio ~4
    assert long / short < 2.5, (short, long)


def test_a_label_clash_without_a_pair_is_reported_as_the_checker_does():
    p, q = node("a", "x", "p"), node("a", "y", "q")
    mid = node("b", "z", "t")
    clash = Node(NodeId.single("c", "x"), "q", Kind.TRANSITION)  # q is a place in the first part
    parts = [module([p, q], left=[p.id]), module([mid], left=[mid.id]), module([clash], right=[clash.id])]
    with pytest.raises(MalformedModule) as union:
        Module([n for part in parts for n in part.nodes.values()])
    assert str(union.value) == "label 'q' used with kinds place and transition"
    with pytest.raises(MalformedModule, match=re.escape(str(union.value)) + r"\Z"):
        compose(*parts)
    # the binary folds reach the same clash in either grouping
    for fold in (lambda: compose(compose(*parts[:2]), parts[2]), lambda: compose(parts[0], compose(*parts[1:]))):
        with pytest.raises(MalformedModule, match=re.escape(str(union.value)) + r"\Z"):
            fold()


def test_renaming_checks_the_name_alone():
    a, b = two_gamma_operands()
    c = compose(a, b)
    named = c.with_name("AB")
    assert named.name == "AB" and structural_equal(named, c) and verify_well_formed(named) == []
    with pytest.raises(MalformedModule, match="name must be a string or None, got 3"):
        c.with_name(3)
    with pytest.raises(MalformedModule, match="name must be a string or None"):
        a.with_name(3)


def _core_lines_composing_ring_atoms(src, n):
    """Line events inside core.py while `compose` glues the transition atoms
    of the n-philosopher ring back together, as `factorize` does."""
    env = parse(src + "\nring := (" + " . ".join(["phil_with_forks"] * n) + ")^c\n")
    view = validate_net(evaluate(env, "ring"))
    atoms = [transition_atom(view, t).retagged(f"f{i}") for i, t in enumerate(sorted(view.transitions), 1)]
    count, _ = line_events(core.__file__, lambda: compose(*atoms))
    return count


def test_composing_ring_atoms_is_linear_work():
    src = fixture_path("philosophers.hkl").read_text(encoding="utf-8")
    short = _core_lines_composing_ring_atoms(src, 100)
    long = _core_lines_composing_ring_atoms(src, 200)
    # regrouping the chain's whole right interface at every step gives ~3.7
    assert long / short <= 2.2, (short, long)
