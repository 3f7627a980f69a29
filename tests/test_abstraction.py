import pytest

from petrimod import (
    IsoOptions,
    Kind,
    abstract_of,
    compose,
    empty_module,
    evaluate,
    isomorphic,
    seam,
    structural_equal,
)
from petrimod.errors import UnnamedModule

from conftest import module, node


def sample():
    """Named module with left [beta, gamma] and right [delta, gamma, gamma]."""
    ns = {
        "lb": node("a", "lb", "beta"),
        "lg": node("a", "lg", "gamma"),
        "rd": node("a", "rd", "delta"),
        "rg1": node("a", "rg1", "gamma"),
        "rg2": node("a", "rg2", "gamma"),
        "in1": node("a", "in1", "alpha"),
        "in2": node("a", "in2", "p"),
    }
    ids = {k: n.id for k, n in ns.items()}
    return module(
        ns.values(),
        edges=[(ids["lb"], ids["in1"]), (ids["in1"], ids["rd"]), (ids["in2"], ids["rg1"])],
        left=[ids["lb"], ids["lg"]],
        right=[ids["rd"], ids["rg1"], ids["rg2"]],
        marking={ids["in2"]: 4},
        name="A",
    ), ids


def test_interior_collapses_to_one_core():
    a, ids = sample()
    abs_a = abstract_of(a)
    inner = abs_a.interior()
    assert len(inner) == 1
    core = next(iter(inner))
    assert abs_a.nodes[core].kind is Kind.ABSTRACT
    assert abs_a.label_of(core) == "A"
    assert abs_a.name == "A"
    # interfaces are copied verbatim
    assert abs_a.left.slots == a.left.slots
    assert abs_a.right.slots == a.right.slots
    fmt = lambda iface: list(iface.indexed(abs_a.label_of).values())
    assert fmt(abs_a.left) == [("beta", 1), ("gamma", 1)]
    assert fmt(abs_a.right) == [("delta", 1), ("gamma", 1), ("gamma", 2)]
    # star edges only
    assert abs_a.edges == frozenset(
        {(ids["lb"], core), (ids["lg"], core), (core, ids["rd"]), (core, ids["rg1"]), (core, ids["rg2"])}
    )


def test_two_sided_node_gets_both_star_edges():
    x = node("a", "x", "p")
    a = module([x], left=[x.id], right=[x.id], name="loop")
    abs_a = abstract_of(a)
    core = next(iter(abs_a.interior()))
    assert (x.id, core) in abs_a.edges and (core, x.id) in abs_a.edges


def test_interior_marking_dropped_boundary_marking_kept():
    a, ids = sample()
    abs_a = abstract_of(a)
    assert ids["in2"] not in abs_a.nodes  # interior place is gone, tokens with it
    assert sum(abs_a.marking.values()) == 0

    p = node("b", "p0", "p")
    b = module([p], left=[p.id], marking={p.id: 2}, name="B")
    assert abstract_of(b).tokens(p.id) == 2


def test_unnamed_module_rejected():
    a, _ = sample()
    with pytest.raises(UnnamedModule):
        abstract_of(a.with_name(None))
    with pytest.raises(UnnamedModule):
        abstract_of(empty_module())


def test_abstraction_idempotent_up_to_core_identity():
    a, _ = sample()
    once = abstract_of(a)
    twice = abstract_of(once)
    # the core label repeats the name, only its identity atom differs
    assert not structural_equal(twice, once)
    assert isomorphic(twice, once) is not None
    assert isomorphic(twice, once, IsoOptions(rename_abstract_cores=True)) is not None


def test_abstraction_distributes_over_compose_up_to_renaming(prod_env):
    production = evaluate(prod_env, "production")
    pack = evaluate(prod_env, "pack")
    lhs = abstract_of(compose(production, pack).with_name("line"))
    rhs = abstract_of(compose(abstract_of(production), abstract_of(pack)).with_name("line"))
    assert isomorphic(lhs, rhs, IsoOptions(rename_abstract_cores=True)) is not None


def test_seam_of_one_part_is_its_abstraction():
    a, _ = sample()
    assert structural_equal(seam([a]), abstract_of(a))


def test_seam_merges_shared_interface_places(prod_env):
    production = evaluate(prod_env, "production")
    pack = evaluate(prod_env, "pack")
    s = seam([production, pack])
    assert len(s.nodes) == 5  # two cores, material, merged product, parcel
    cores = [n for n in s.nodes.values() if n.kind is Kind.ABSTRACT]
    assert sorted(n.label for n in cores) == ["pack", "production"]
    merged = [nid for nid in s.nodes if len(nid.atoms) == 2]
    assert len(merged) == 1
    assert s.label_of(merged[0]) == "product"
    assert merged[0] in s.interior()
    fmt = lambda iface: list(iface.indexed(s.label_of).values())
    assert fmt(s.left) == [("material", 1)]
    assert fmt(s.right) == [("parcel", 1)]


def test_seam_of_nothing_is_empty():
    assert structural_equal(seam([]), empty_module())
