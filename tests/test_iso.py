import functools
import gc
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import petrimod
from petrimod import iso
from petrimod import (
    AtomicNodeId,
    IsoOptions,
    IsoWitness,
    Kind,
    Module,
    Node,
    NodeId,
    abstract_of,
    closure,
    compose,
    evaluate,
    factorize,
    fixture_path,
    instantiate,
    isomorphic,
    net_to_module,
    structural_equal,
    validate_net,
    verify_witness,
)
from petrimod.errors import SearchBudgetExceeded
from petrimod.generate import random_module, random_net

from conftest import module, node


def chain(tag, labels):
    ns = [node(tag, f"n{i}", lab) for i, lab in enumerate(labels)]
    edges = [(ns[i].id, ns[i + 1].id) for i in range(len(ns) - 1)]
    return module(ns, edges=edges, left=[ns[0].id], right=[ns[-1].id])


def test_fresh_instances_isomorphic_not_equal(phil_env):
    decl = phil_env.snippets["left_use"]
    a = instantiate(decl, phil_env.alphabet, "t1")
    b = instantiate(decl, phil_env.alphabet, "t2")
    assert not structural_equal(a, b)
    w = isomorphic(a, b)
    assert w is not None
    assert verify_witness(a, b, w)


def test_structural_equal_ignores_name_only(phil_env):
    decl = phil_env.snippets["left_use"]
    a = instantiate(decl, phil_env.alphabet, "t1")
    assert structural_equal(a, a.with_name("other"))


def test_structural_equal_compares_each_atom_about_once(phil_env, monkeypatch):
    # a fold of binary compose calls and one n-ary compose give equal ids in
    # distinct objects; the two merged ids, on both interfaces and on every
    # arc, hold one atom per snippet
    leaves = [instantiate(phil_env.snippets["think"], phil_env.alphabet, f"t{i}") for i in range(2000)]
    row, flat = functools.reduce(compose, leaves), compose(*leaves)
    assert len(row.nodes) == len(flat.nodes)  # both built before counting
    compared = 0
    eq = NodeId.__eq__

    def counting(self, other):
        nonlocal compared
        if isinstance(other, NodeId):
            compared += len(self)
        return eq(self, other)

    monkeypatch.setattr(NodeId, "__eq__", counting)
    assert structural_equal(row, flat)
    assert compared <= 2 * len(row.atom_set)


def _equal_copies(changed=None):
    """A hand-built module whose edges, slots and marking name its nodes
    through copies of their ids: equal sets, never the same objects.
    `changed` edits the edge list, the two slot lists or the marking first."""
    ids = [NodeId([AtomicNodeId("h", f"x{i}"), AtomicNodeId("k", f"y{i}")]) for i in range(5)]
    kinds = [("p", Kind.PLACE), ("p", Kind.PLACE), ("t", Kind.TRANSITION), ("q", Kind.PLACE), ("alpha", Kind.ABSTRACT)]
    parts = {
        "edges": [(0, 2), (1, 2), (2, 3), (4, 0)],
        "left": [0, 1],
        "right": [3, 1],
        "marking": {0: 1, 1: 2, 3: 1},
    }
    if changed:
        changed(parts)
    copy = lambda i: NodeId(list(ids[i]))
    nodes = [Node(NodeId(list(nid)), label, kind) for nid, (label, kind) in zip(ids, kinds)]
    return Module(nodes, [(copy(s), copy(d)) for s, d in parts["edges"]], map(copy, parts["left"]),
                  map(copy, parts["right"]), {copy(i): k for i, k in parts["marking"].items()})


def _move_arc(parts):
    parts["edges"][0] = (0, 3)


def _swap_slots(parts):
    parts["left"].reverse()


def _change_token(parts):
    parts["marking"][1] = 3


@pytest.mark.parametrize("changed, equal", [(None, True), (_move_arc, False), (_swap_slots, False),
                                            (_change_token, False)])
def test_structural_equal_through_equal_copies_of_ids(changed, equal):
    a, b = _equal_copies(), _equal_copies(changed)
    assert structural_equal(a, b) is equal and structural_equal(b, a) is equal


@pytest.mark.parametrize("rename", [False, True])
def test_start_key_degrees_count_the_edge_set(rename):
    # degrees counted here from the edges, plus one out-edge for each core
    # that shares its label with another core in rename mode
    rng = random.Random(22)
    for trial in range(300):
        m = random_module(rng, f"k{trial}")
        outdeg = Counter(s for s, _ in m.edges)
        indeg = Counter(d for _, d in m.edges)
        shared = Counter(node.label for node in m.nodes.values() if node.kind is Kind.ABSTRACT)
        g = iso._Numbered(m, rename)
        for nid, key in zip(g.ids, g.keys):
            node = m.nodes[nid]
            to_class = rename and node.kind is Kind.ABSTRACT and shared[node.label] > 1
            assert key[4:] == (indeg[nid], outdeg[nid] + to_class)
        classes = [("label", k) for k in shared.values() if k > 1] if rename else []
        assert g.keys[len(g.ids):] == classes


def test_label_mismatch_not_isomorphic():
    assert isomorphic(chain("a", ["alpha", "beta"]), chain("b", ["alpha", "gamma"])) is None


def test_edge_direction_matters():
    ns_a = [node("a", "x", "alpha"), node("a", "y", "alpha")]
    a = module(ns_a, edges=[(ns_a[0].id, ns_a[1].id)], left=[ns_a[0].id], right=[ns_a[0].id])
    ns_b = [node("b", "x", "alpha"), node("b", "y", "alpha")]
    b = module(ns_b, edges=[(ns_b[1].id, ns_b[0].id)], left=[ns_b[0].id], right=[ns_b[0].id])
    assert isomorphic(a, b) is None


def test_interface_side_and_index_preserved():
    x = node("a", "x", "alpha")
    a = module([x], left=[x.id])
    y = node("b", "y", "alpha")
    b = module([y], right=[y.id])
    assert isomorphic(a, b) is None

    # index shift: alpha at positions 1,2 cannot map onto 2,1 when the
    # neighbourhoods pin the slots down
    n1 = [node("a", "s", "beta"), node("a", "i1", "alpha"), node("a", "i2", "alpha")]
    a2 = module(n1, edges=[(n1[0].id, n1[1].id)], left=[n1[1].id, n1[2].id])
    n2 = [node("b", "s", "beta"), node("b", "i1", "alpha"), node("b", "i2", "alpha")]
    b2 = module(n2, edges=[(n2[0].id, n2[1].id)], left=[n2[2].id, n2[1].id])
    assert isomorphic(a2, b2) is None


def test_markings_ignored_by_isomorphism():
    p1 = node("a", "pl", "p")
    a = module([p1], marking={p1.id: 3})
    p2 = node("b", "pl", "p")
    b = module([p2])
    assert not structural_equal(a, b.retagged("x"))
    assert isomorphic(a, b) is not None


def test_rename_mode_positive_and_negative():
    a = abstract_of(chain("a", ["alpha", "beta"]).with_name("one"))
    b = abstract_of(chain("b", ["alpha", "beta"]).with_name("two"))
    assert isomorphic(a, b) is None
    w = isomorphic(a, b, IsoOptions(rename_abstract_cores=True))
    assert w is not None
    assert dict(w.label_renaming) == {"one": "two"}

    # renaming must stay bijective: two distinct cores cannot share a target
    pair_a = module(
        [node("a", "c1", "alpha"), node("a", "c2", "beta")],
    )
    pair_b = module(
        [node("b", "c1", "alpha"), node("b", "c2", "alpha")],
    )
    assert isomorphic(pair_a, pair_b, IsoOptions(rename_abstract_cores=True)) is None


def test_witness_replay_rejects_tampering(phil_env):
    decl = phil_env.snippets["think"]
    a = instantiate(decl, phil_env.alphabet, "t1")
    b = instantiate(decl, phil_env.alphabet, "t2")
    w = isomorphic(a, b)
    swapped = type(w)(tuple((v, u) for u, v in w.mapping), w.label_renaming)
    assert not verify_witness(a, b, swapped)


def test_witness_replay_rejects_a_node_named_twice():
    p, t = node("a", "u1", "p"), node("a", "u2", "t")
    a = module([p, t], edges=[(p.id, t.id)])
    b = a.retagged("r")
    u1, u2 = p.id, t.id
    v1, v2 = u1.retagged("r"), u2.retagged("r")
    assert verify_witness(a, b, IsoWitness(((u1, v1), (u2, v2))))
    # the last pair for u1 is right, but the first one contradicts it
    assert not verify_witness(a, b, IsoWitness(((u1, v2), (u1, v1), (u2, v2))))
    assert not verify_witness(a, b, IsoWitness(((u1, v1), (u2, v2), (u2, v2))))
    assert not verify_witness(a, b, IsoWitness(((u1, v1), (u2, v1))))  # an image named twice


def test_witness_replay_rejects_extra_slots_and_edges():
    # every image of `a` fits in `b`, but `b` has more: a slot on each side, an edge
    x, y = node("a", "x", "alpha"), node("a", "y", "beta")
    a = module([x, y], edges=[(x.id, y.id)])
    identity = IsoWitness(((x.id, x.id), (y.id, y.id)))
    assert verify_witness(a, a, identity)
    for b in (
        module([x, y], edges=[(x.id, y.id)], left=[x.id]),
        module([x, y], edges=[(x.id, y.id)], right=[y.id]),
        module([x, y], edges=[(x.id, y.id), (y.id, x.id)]),
    ):
        assert not verify_witness(a, b, identity)
        assert verify_witness(b, b, identity)


def test_budget_exhaustion_raises(monkeypatch):
    built = []
    search = iso._Search
    monkeypatch.setattr(iso, "_Search", lambda *args: built.append(args) or search(*args))
    labels = ["alpha"] * 9
    a = module([node("a", f"n{i}", lab) for i, lab in enumerate(labels)])
    b = module([node("b", f"n{i}", lab) for i, lab in enumerate(labels)])
    with pytest.raises(SearchBudgetExceeded):
        isomorphic(a, b, budget=3)
    # repeated start keys, so the budgeted search ran
    assert len(built) == 1


def test_index_anchoring_distinguishes_line_variants(prod_env):
    # both lines leave one product and two parcels on the right, but the
    # unwrapped line sits at material index 1 in one and 3 in the other, so
    # no index-preserving bijection exists
    grouped = evaluate(prod_env, "line_grouped")
    mixed = evaluate(prod_env, "line_mixed")
    assert isomorphic(grouped, mixed) is None
    assert sorted(grouped.left.labels(grouped.label_of)) == sorted(mixed.left.labels(mixed.label_of))
    assert sorted(grouped.right.labels(grouped.label_of)) == sorted(mixed.right.labels(mixed.label_of))


def test_cycles_isomorphic(phil_env):
    forks = evaluate(phil_env, "forks_in_a_cycle")
    phils = evaluate(phil_env, "phils_in_a_cycle")
    w = isomorphic(forks, phils)
    assert w is not None
    assert verify_witness(forks, phils, w)


def brute_force_isomorphic(a, b, opts):
    """Reference verdict: try every bijection that keeps (kind, label) classes,
    with abstract labels pooled in rename mode, and replay each one with the
    core renaming it induces."""

    def classes(m):
        out = {}
        for nid, node in m.nodes.items():
            label = "*" if opts.rename_abstract_cores and node.kind is Kind.ABSTRACT else node.label
            out.setdefault((node.kind.value, label), []).append(nid)
        return out

    ca, cb = classes(a), classes(b)
    if {k: len(v) for k, v in ca.items()} != {k: len(v) for k, v in cb.items()}:
        return False
    keys = sorted(ca)
    for images in itertools.product(*(itertools.permutations(cb[k]) for k in keys)):
        mapping = tuple((u, v) for k, image in zip(keys, images) for u, v in zip(ca[k], image))
        renaming = {(a.label_of(u), b.label_of(v)) for u, v in mapping if a.kind_of(u) is Kind.ABSTRACT}
        if verify_witness(a, b, IsoWitness(mapping, tuple((x, y) for x, y in renaming if x != y)), opts):
            return True
    return False


def shuffled(m, rng):
    """The same module with its nodes inserted in another order."""
    nodes = list(m.nodes.values())
    rng.shuffle(nodes)
    return Module(nodes, m.edges, m.left, m.right, m.marking, m.name)


def moved_edge(m, rng):
    """A copy with one edge re-pointed to a random target: usually a near miss."""
    if not m.edges:
        return m
    edges = sorted(m.edges)
    src, _ = edges.pop(rng.randrange(len(edges)))
    edges.append((src, rng.choice(sorted(m.nodes))))
    return Module(m.nodes, edges, m.left, m.right, m.marking, m.name)


def small_pairs(rng, trial):
    a = random_module(rng, f"a{trial}", max_nodes=4, name="A")
    b = random_module(rng, f"b{trial}", max_nodes=4, name="B")
    copy = shuffled(a.retagged("r"), rng)
    yield a, b
    yield a, copy
    yield a, moved_edge(copy, rng)
    yield compose(a, b), shuffled(compose(a.retagged("x"), b.retagged("y")), rng)
    yield compose(a, b), compose(b.retagged("x"), a.retagged("y"))
    yield closure(a), closure(copy)
    yield closure(compose(a, b)), closure(compose(b.retagged("x"), a.retagged("y")))
    yield abstract_of(a), abstract_of(b)
    yield abstract_of(compose(a, b).with_name("AB")), abstract_of(
        compose(abstract_of(a), abstract_of(b)).with_name("AB")
    )


@pytest.mark.parametrize("opts", [IsoOptions(), IsoOptions(rename_abstract_cores=True)], ids=["plain", "rename"])
def test_search_agrees_with_brute_force(opts):
    rng = random.Random(2202)
    verdicts = []
    for trial in range(150):
        for a, b in small_pairs(rng, trial):
            if len(a.nodes) > 7:
                continue
            witness = isomorphic(a, b, opts)
            expected = brute_force_isomorphic(a, b, opts)
            assert (witness is not None) == expected, (a, b)
            if witness is not None:
                assert verify_witness(a, b, witness, opts)
            verdicts.append(expected)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def graph(tag, n, arcs, label="p"):
    """n nodes of one label joined by the given arcs."""
    ns = [node(tag, f"v{i}", label) for i in range(n)]
    return module(ns, edges=[(ns[s].id, ns[d].id) for s, d in arcs])


def symmetric(pairs):
    return [arc for s, d in pairs for arc in ((s, d), (d, s))]


K33 = symmetric([(i, j) for i in range(3) for j in range(3, 6)])
PRISM = symmetric([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
C6 = [(i, (i + 1) % 6) for i in range(6)]
TWO_C3 = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]


@pytest.mark.parametrize("arcs_a, arcs_b", [(K33, PRISM), (C6, TWO_C3)], ids=["k33-prism", "c6-two-c3"])
def test_pairs_colour_refinement_cannot_separate(arcs_a, arcs_b):
    # every node has the same label and degrees, so colour refinement leaves
    # one cell on each side and only the search's edge checks tell them apart
    a, b = graph("a", 6, arcs_a), graph("b", 6, arcs_b)
    for x, y in ((a, b), (b, a)):
        assert isomorphic(x, y) is None
        assert not brute_force_isomorphic(x, y, IsoOptions())
        copy = y.retagged("c")
        witness = isomorphic(y, copy)
        assert witness is not None and verify_witness(y, copy, witness)


def test_search_backtracks_to_a_witness():
    # one label on C6 and two C3s: one colour cell, so the search often maps a
    # node into the wrong cycle and must undo the choice on both sides of the
    # bijection before it finds the witness
    a = graph("a", 12, C6 + [(s + 6, d + 6) for s, d in TWO_C3])
    rng = random.Random(1812)
    for _ in range(50):
        b = shuffled(a.retagged("r"), rng)
        witness = isomorphic(a, b)
        assert witness is not None and verify_witness(a, b, witness)


def cores(tag, labels):
    return module([Node(NodeId.single(tag, f"c{i}"), label, Kind.ABSTRACT) for i, label in enumerate(labels)])


@pytest.mark.parametrize("labels, renaming", [
    ("pqr", None),
    ("pqq", (("x", "q"), ("y", "p"))),
])
def test_rename_mode_isolated_cores(labels, renaming):
    opts = IsoOptions(rename_abstract_cores=True)
    a, b = cores("a", "xxy"), cores("b", labels)
    witness = isomorphic(a, b, opts)
    assert brute_force_isomorphic(a, b, opts) == (renaming is not None)
    if renaming is None:
        assert witness is None
    else:
        assert witness is not None and witness.label_renaming == renaming
        assert verify_witness(a, b, witness, opts)


def test_replay_accepts_only_the_induced_renaming():
    opts = IsoOptions(rename_abstract_cores=True)
    a, b = cores("a", ["alpha"]), cores("b", ["beta"])
    witness = isomorphic(a, b, opts)
    assert witness.label_renaming == (("alpha", "beta"),)
    assert verify_witness(a, b, witness, opts)
    assert not verify_witness(a, b, IsoWitness(witness.mapping, (("gamma", "delta"),)), opts)
    assert not verify_witness(a, b, IsoWitness(witness.mapping), opts)
    # outside rename mode no renaming is induced, so none is accepted
    identity = IsoWitness(tuple((u, u) for u in a.nodes))
    assert verify_witness(a, a, identity)
    assert not verify_witness(a, a, IsoWitness(identity.mapping, (("alpha", "zeta"),)))


@pytest.mark.parametrize("places", [0, 2], ids=["unique-keys", "search"])
def test_rename_mode_core_on_an_interface(monkeypatch, places):
    # the start key holds a slot's index, not its label, which is the core's own
    built = []
    search = iso._Search
    monkeypatch.setattr(iso, "_Search", lambda *args: built.append(args) or search(*args))
    opts = IsoOptions(rename_abstract_cores=True)

    def side(tag, label):
        ns = [Node(NodeId.single(tag, "core"), label, Kind.ABSTRACT)]
        ns += [node(tag, f"p{i}", "p") for i in range(places)]
        return module(ns, left=[ns[0].id])

    a, b = side("a", "alpha"), side("b", "beta")
    witness = isomorphic(a, b, opts)
    assert len(built) == (places > 0)
    assert witness is not None and witness.label_renaming == (("alpha", "beta"),)
    assert verify_witness(a, b, witness, opts)


def _ring(env, seat_parts, n):
    """Close a row of n seats; each seat is a left-associated fold of snippet
    instances.  The row is folded pairwise, which associativity allows."""
    seats = []
    for i in range(n):
        parts = [instantiate(env.snippets[name], env.alphabet, f"s{i}.{k}") for k, name in enumerate(seat_parts)]
        seat = parts[0]
        for part in parts[1:]:
            seat = compose(seat, part)
        seats.append(seat)
    while len(seats) > 1:
        seats = [compose(*seats[i:i + 2]) if i + 1 < len(seats) else seats[i] for i in range(0, len(seats), 2)]
    return closure(seats[0])


def test_thousand_node_ring_without_recursion(phil_env):
    n = 200
    phils = _ring(phil_env, ("right_use", "think", "eat", "left_use"), n)
    forks = _ring(phil_env, ("think", "left_use", "right_use", "eat"), n)
    assert len(phils.nodes) == len(forks.nodes) == 5 * n
    # more nodes than the interpreter allows nested frames
    assert len(phils.nodes) >= sys.getrecursionlimit()
    witness = isomorphic(phils, forks)
    assert witness is not None and verify_witness(phils, forks, witness)
    assert factorize(validate_net(phils)).matches


@pytest.mark.parametrize("seats", [50, 200])
def test_search_keeps_two_containers_per_node(phil_env, seats):
    # one node space for the pair: an out-list and an in-list per node, one
    # edge set and one image array, nothing per module or per direction
    a = _ring(phil_env, ("right_use", "think", "eat", "left_use"), seats)
    b = a.retagged("copy")
    ga, gb = iso._Numbered(a, False), iso._Numbered(b, False)
    gc.collect()
    before = len(gc.get_objects())
    search = iso._Search(ga, gb, 10**6)
    assert search.run() is not None
    gc.collect()
    assert len(gc.get_objects()) - before <= 2 * (len(a.nodes) + len(b.nodes)) + 64


def test_cli_witness_independent_of_hash_seed():
    src = str(Path(petrimod.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "petrimod.cli", "iso", str(fixture_path("philosophers.hkl")),
             "phils_in_a_cycle", "forks_in_a_cycle"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("ISOMORPHIC\n")


def searched(a, b):
    """The reference engine: refinement and search on the pair, as
    `isomorphic` runs them when some start key repeats."""
    ga, gb = iso._Numbered(a, False), iso._Numbered(b, False)
    fwd = iso._Search(ga, gb, 1_000_000).run()
    return None if fwd is None else IsoWitness(tuple(sorted(zip(ga.ids, (gb.ids[v] for v in fwd)))))


def unique_keys(m):
    keys = iso._Numbered(m, False).keys
    return len(set(keys)) == len(keys)


def swapped_targets(m, rng):
    """Two edges exchange their targets; degrees, and so start keys, stay."""
    edges = sorted(m.edges)
    i, j = rng.sample(range(len(edges)), 2)
    (s1, d1), (s2, d2) = edges[i], edges[j]
    edges[i], edges[j] = (s1, d2), (s2, d1)
    return Module(m.nodes, edges, m.left, m.right, m.marking, m.name)


def swapped_left(m, rng):
    slots = list(m.left)
    i, j = rng.sample(range(len(slots)), 2)
    slots[i], slots[j] = slots[j], slots[i]
    return Module(m.nodes, m.edges, slots, m.right, m.marking, m.name)


def forced_pairs(rng, trial):
    a = net_to_module(random_net(rng, f"n{trial}", max_transitions=8, max_places=10))
    copy = shuffled(a.retagged("r"), rng)
    yield a, copy
    if len(copy.edges) > 1:
        yield a, swapped_targets(copy, rng)
    if len(copy.left) > 1:
        yield a, swapped_left(copy, rng)


def test_forced_path_agrees_with_the_search():
    # identity labels make every start key unique, so `isomorphic` never
    # searches these pairs; the reference engine must give the same answer
    rng = random.Random(4711)
    verdicts = []
    replayed_apart = 0  # sizes agree, so only the replay can say no
    trial = 0
    while len(verdicts) < 3000:
        for a, b in forced_pairs(rng, trial):
            assert unique_keys(a) and unique_keys(b)
            witness = isomorphic(a, b)
            assert witness == searched(a, b), (a, b)
            verdicts.append(witness is not None)
            replayed_apart += witness is None and len(a.edges) == len(b.edges)
        trial += 1
    assert verdicts.count(True) >= 2000 and replayed_apart >= 500


def _broken_by_force():
    # four nodes, four labels: the keys agree, but x -> y, z -> w in `a`
    # against x -> w, z -> y in `b`, so the one label-keeping bijection loses both edges
    labels = (("x", "alpha"), ("y", "beta"), ("z", "gamma"), ("w", "delta"))
    a_ns = [node("a", n, lab) for n, lab in labels]
    b_ns = [node("b", n, lab) for n, lab in labels]
    a = module(a_ns, edges=[(a_ns[0].id, a_ns[1].id), (a_ns[2].id, a_ns[3].id)])
    b = module(b_ns, edges=[(b_ns[0].id, b_ns[3].id), (b_ns[2].id, b_ns[1].id)])
    return a, b


def test_forced_mapping_that_breaks_an_edge_is_none():
    a, b = _broken_by_force()
    assert unique_keys(a) and unique_keys(b)
    assert sorted(iso._Numbered(a, False).keys) == sorted(iso._Numbered(b, False).keys)
    assert isomorphic(a, b) is None
    assert searched(a, b) is None
    assert not brute_force_isomorphic(a, b, IsoOptions())


def test_forced_mapping_is_checked_without_asserts():
    # under -O every assert is gone: the forced path must still decide by replay
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(petrimod.__file__).resolve().parents[1])
    script = "from test_iso import _broken_by_force\nfrom petrimod import isomorphic\nprint(isomorphic(*_broken_by_force()))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((tests, src))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\n"


def test_unique_keys_never_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the search ran on unique start keys")

    monkeypatch.setattr(iso, "_Search", refuse)
    a = net_to_module(random_net(random.Random(5), "n"))
    copy = a.retagged("r")
    witness = isomorphic(a, copy)
    assert witness is not None and verify_witness(a, copy, witness)
    assert isomorphic(*_broken_by_force()) is None


def _ring_pair():
    """The fixture's two philosopher rings: start keys repeat, so `isomorphic` searches."""
    env = petrimod.parse(fixture_path("philosophers.hkl").read_text(encoding="utf-8"))
    return evaluate(env, "phils_in_a_cycle"), evaluate(env, "forks_in_a_cycle")


def test_searched_mapping_failing_replay_raises_without_asserts():
    # a search that proposed a non-isomorphism must not pass as a witness under -O
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(petrimod.__file__).resolve().parents[1])
    script = """\
from test_iso import _ring_pair
from petrimod import iso
run = iso._Search.run
def swapped(self):
    fwd = run(self)
    fwd[0], fwd[1] = fwd[1], fwd[0]
    return fwd
iso._Search.run = swapped
a, b = _ring_pair()
try:
    witness = iso.isomorphic(a, b)
except AssertionError as e:
    print("raised:", e)
else:
    print("witness, replayed:", iso.verify_witness(a, b, witness))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((tests, src))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: the search proposed a mapping that fails replay\n"


@pytest.mark.parametrize("rename", [False, True])
def test_slot_tables_are_built_once_per_module(monkeypatch, rename):
    calls = []
    indexed = petrimod.core.Interface.indexed
    monkeypatch.setattr(petrimod.core.Interface, "indexed", lambda *args: calls.append(1) or indexed(*args))
    opts = IsoOptions(rename_abstract_cores=rename)
    a = net_to_module(random_net(random.Random(5), "n"))
    phils, forks = _ring_pair()
    assert unique_keys(a) and not unique_keys(phils)  # one pair per path
    for pair in ((a, a.retagged("r")), (phils, forks)):
        calls.clear()
        assert isomorphic(*pair, opts) is not None
        assert len(calls) == 4
