import random

from petrimod import closure, empty_module, structural_equal, verify_well_formed
from petrimod.generate import random_module

from conftest import module, node


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


def test_cycles_close_completely(phil_env):
    from petrimod import evaluate

    for name in ("forks_in_a_cycle", "phils_in_a_cycle"):
        m = evaluate(phil_env, name)
        assert len(m.left) == 0 and len(m.right) == 0
