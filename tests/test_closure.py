import random

from petrimod import (
    Module,
    Node,
    NodeId,
    closure,
    compose,
    core,
    dumps,
    empty_module,
    structural_equal,
    verify_well_formed,
)
from petrimod.generate import random_module

from conftest import line_events, module, node


def _sides(m):
    fmt = lambda iface: list(iface.indexed(m.label_of).values())
    return fmt(m.left), fmt(m.right)


def ring_candidate():
    """Right [alpha, beta, alpha], left [alpha, beta]: pairs (alpha,1) and
    (beta,1) merge, the second right alpha survives at index 1."""
    ns = [
        node("m", "ra1", "alpha"),
        node("m", "rb", "beta"),
        node("m", "ra2", "alpha"),
        node("m", "la", "alpha"),
        node("m", "lb", "beta"),
        node("m", "inner", "gamma"),
    ]
    ids = {n.id.key[0][1]: n.id for n in ns}
    return module(
        ns,
        edges=[(ids["inner"], ids["ra1"]), (ids["la"], ids["inner"])],
        left=[ids["la"], ids["lb"]],
        right=[ids["ra1"], ids["rb"], ids["ra2"]],
    ), ids


def test_matched_pairs_become_inner():
    m, ids = ring_candidate()
    c = closure(m)
    merged_a = ids["ra1"].merge(ids["la"])
    merged_b = ids["rb"].merge(ids["lb"])
    assert merged_a in c.nodes and merged_b in c.nodes
    assert {merged_a, merged_b} <= c.interior()
    left, right = _sides(c)
    assert left == []
    assert right == [("alpha", 1)]
    # edges rerouted through the merged nodes
    assert (ids["inner"], merged_a) in c.edges
    assert (merged_a, ids["inner"]) in c.edges
    assert verify_well_formed(c) == []


def test_no_matching_labels_is_identity():
    x = node("m", "x", "alpha")
    y = node("m", "y", "beta")
    m = module([x, y], left=[x.id], right=[y.id])
    assert structural_equal(closure(m), m)


def test_self_pair_is_not_merged():
    # one node filling the same label/index slot on both sides stays put
    x = node("m", "x", "alpha")
    m = module([x], left=[x.id], right=[x.id])
    c = closure(m)
    assert structural_equal(c, m)
    left, right = _sides(c)
    assert left == [("alpha", 1)] and right == [("alpha", 1)]


def test_chained_merges_collapse_transitively():
    # right [b, c] and left [a, b] under one label: pairs (b,a) and (c,b)
    # share b, so all three nodes end up as one merged node
    a, b, c = (node("m", k, "alpha") for k in "abc")
    m = module([a, b, c], left=[a.id, b.id], right=[b.id, c.id])
    out = closure(m)
    merged = a.id.merge(b.id).merge(c.id)
    assert set(out.nodes) == {merged}
    left, right = _sides(out)
    assert left == [] and right == []


def test_marking_sums_into_merged_place():
    pr = node("m", "pr", "p")
    pl = node("m", "pl", "p")
    m = module([pr, pl], left=[pl.id], right=[pr.id], marking={pr.id: 1, pl.id: 2})
    c = closure(m)
    merged = pr.id.merge(pl.id)
    assert c.tokens(merged) == 3


def test_closure_of_empty_is_empty():
    assert structural_equal(closure(empty_module()), empty_module())


def test_idempotence_random_sweep():
    rng = random.Random(7)
    for _ in range(300):
        c = closure(random_module(rng, "m"))
        assert structural_equal(closure(c), c)


def test_label_never_on_both_sides_for_disjoint_interfaces():
    rng = random.Random(8)
    for _ in range(300):
        c = closure(random_module(rng, "m", shared_interfaces=False))
        both = set(c.left.labels(c.label_of)) & set(c.right.labels(c.label_of))
        assert both == set()


def reference_closure(m):
    """Closure in plain code: pair the slots, merge by relabelling, rebuild.

    Returns the module and its merge classes, each a list of `m`'s nodes.
    """
    def keyed(side):
        seen, out = {}, {}
        for nid in side:
            label = m.label_of(nid)
            seen[label] = seen.get(label, 0) + 1
            out[label, seen[label]] = nid
        return out

    lefts = keyed(m.left)
    pairs = [(r, lefts[key]) for key, r in keyed(m.right).items() if lefts.get(key, r) != r]
    # every paired node starts in a class of its own; a pair pulls both ends
    # to the lower class number until nothing changes
    paired = {nid for pair in pairs for nid in pair}
    cls = {nid: i for i, nid in enumerate(m.nodes) if nid in paired}
    changed = True
    while changed:
        changed = False
        for r, l in pairs:
            low = min(cls[r], cls[l])
            if cls[r] != low or cls[l] != low:
                cls[r] = cls[l] = low
                changed = True
    classes = {}
    for nid in m.nodes:
        if nid in cls:
            classes.setdefault(cls[nid], []).append(nid)
    merged = {nid: NodeId(frozenset().union(*group)) for group in classes.values() for nid in group}
    mp = lambda nid: merged.get(nid, nid)

    nodes = {}
    for node in m.nodes.values():
        nid = mp(node.id)
        if nid not in nodes:
            nodes[nid] = node if nid is node.id else Node(nid, node.label, node.kind)
    marking = {}
    for nid, count in m.marking.items():
        marking[mp(nid)] = marking.get(mp(nid), 0) + count
    dropped_left, dropped_right = {l for _, l in pairs}, {r for r, _ in pairs}
    out = Module(
        nodes,
        {(mp(s), mp(d)) for s, d in m.edges},
        [mp(n) for n in m.left if n not in dropped_left],
        [mp(n) for n in m.right if n not in dropped_right],
        marking,
    )
    return out, list(classes.values())


def few_labels(rng, tag):
    """A module over two labels whose sides hold half its nodes or more, so
    one node often fills slots of different index on both sides."""
    ns = [node(tag, f"n{i}", rng.choice(("alpha", "p"))) for i in range(rng.randint(1, 8))]
    ids = [n.id for n in ns]
    edges = {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 8))}
    side = lambda: rng.sample(ids, rng.randint(len(ids) // 2, len(ids)))
    marking = {n.id: rng.randint(1, 3) for n in ns if n.label == "p" and rng.random() < 0.5}
    return module(ns, edges, side(), side(), marking)


def _closure_cases(rng):
    for trial in range(500):
        yield random_module(rng, f"m{trial}", shared_interfaces=trial % 2 == 0)
        m = few_labels(rng, f"f{trial}")
        yield m
        # a retagged self-composition repeats the slot labels on both sides
        yield compose(m, m.retagged("r"))


def test_closure_matches_the_reference():
    rng = random.Random(1729)
    seen = {"cases": 0, "merged": 0, "chained": 0}
    for m in _closure_cases(rng):
        want, classes = reference_closure(m)
        got = closure(m)
        assert verify_well_formed(got) == []  # built unchecked, so swept independently
        assert (dumps(got), list(got.nodes), list(got.marking.items()), got.left.slots, got.right.slots, got.name) \
            == (dumps(want), list(want.nodes), list(want.marking.items()), want.left.slots, want.right.slots, None)
        seen["cases"] += 1
        seen["merged"] += bool(classes)
        seen["chained"] += any(len(group) >= 3 for group in classes)
    assert seen["cases"] == 1500 and seen["merged"] >= 500 and seen["chained"] >= 100, seen


def test_cycles_close_completely(phil_env):
    from petrimod import evaluate

    for name in ("forks_in_a_cycle", "phils_in_a_cycle"):
        m = evaluate(phil_env, name)
        assert len(m.left) == 0 and len(m.right) == 0


def _core_lines_closing_a_shifted_module(k):
    """Line events inside core.py while `closure` closes a one-label module
    whose left slots are its right slots shifted by one, so its k pairs
    chain all k + 1 nodes into one class."""
    ns = [node("s", f"n{i}", "p") for i in range(k + 1)]
    ids = [n.id for n in ns]
    m = module(ns, left=ids[1:], right=ids[:-1])
    count, c = line_events(core.__file__, lambda: closure(m))
    assert list(c.nodes) == [NodeId(m.atom_set)] and not c.left and not c.right
    return count


def test_closing_a_long_chain_of_pairs_is_linear_work():
    short = _core_lines_closing_a_shifted_module(500)
    long = _core_lines_closing_a_shifted_module(1000)
    # walking every node to its root without compressing the path gives about 4
    assert long / short <= 2.2, (short, long)
