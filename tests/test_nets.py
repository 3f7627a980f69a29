import random

import pytest

from petrimod import (
    AtomicNodeId,
    Kind,
    Module,
    NodeId,
    dumps,
    evaluate,
    factorize,
    is_monolithic,
    net_to_module,
    reachability,
    structural_equal,
    transition_atom,
    validate_net,
    verify_well_formed,
)
from petrimod import nets
from petrimod.errors import (AbstractNodePresent, IsolatedElement, MalformedModule, NotBipartite,
                             UnknownTransition)
from petrimod.generate import random_net
from petrimod.nets import NetView

from conftest import module, node


def small_net():
    p0, p1 = NodeId.single("n", "p0"), NodeId.single("n", "p1")
    t = NodeId.single("n", "t0")
    return NetView(
        places=frozenset({p0, p1}),
        transitions=frozenset({t}),
        flow=frozenset({(p0, t), (t, p1)}),
        marking={p0: 1},
    )


def test_adjacency_is_built_once_and_matches_the_flow():
    net = random_net(random.Random(5), "a")
    places, index, pre, post = net._numbering
    assert net._numbering[2] is pre and net._numbering[3] is post
    # one numbering: the places sorted, then the transitions sorted
    assert places == tuple(sorted(net.places))
    assert list(index) == sorted(net.transitions) and list(index.values()) == list(range(len(index)))
    assert len(pre) == len(post) == len(net.transitions)
    for t, k in index.items():
        assert net.pre(t) == {places[p] for p in pre[k]} == {s for s, d in net.flow if d == t}
        assert net.post(t) == {places[p] for p in post[k]} == {d for s, d in net.flow if s == t}
        assert len(set(pre[k])) == len(pre[k]) and len(set(post[k])) == len(post[k])
    with pytest.raises(TypeError):
        pre[0] = ()
    with pytest.raises(UnknownTransition):
        net.pre(min(net.places))


def test_validate_net_accepts_fixture(phil_env):
    m = evaluate(phil_env, "phils_in_a_cycle")
    view = validate_net(m)
    assert len(view.places) == 15 and len(view.transitions) == 10
    assert sum(view.marking.values()) == 10


def test_abstract_node_rejected():
    a = module([node("a", "x", "alpha")])
    with pytest.raises(AbstractNodePresent) as exc:
        validate_net(a)
    assert len(exc.value.nodes) == 1


def test_same_kind_edge_rejected():
    p0, p1 = node("a", "p0", "p"), node("a", "p1", "p")
    a = module([p0, p1], edges=[(p0.id, p1.id)])
    with pytest.raises(NotBipartite) as exc:
        validate_net(a)
    assert exc.value.bad_edges == ((p0.id, p1.id),)


def _bad_edges_reference(a):
    """The arcs between equal kinds as `validate_net` once listed them itself."""
    return tuple(sorted(((s, d) for s, d in a.edges if a.kind_of(s) is a.kind_of(d)),
                        key=lambda e: (e[0].key, e[1].key)))


def test_validate_net_refuses_arcs_of_equal_kind_as_its_own_check_did():
    rng = random.Random(24)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 10)
        nodes = [node(rng.choice("ab"), f"n{i}", rng.choice("pqtu")) for i in range(n)]
        ids = [x.id for x in nodes]
        m = module(nodes, {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(1, 2 * n))})
        want = _bad_edges_reference(m)
        if not want:
            assert validate_net(m).flow == m.edges
            continue
        with pytest.raises(NotBipartite) as exc:
            validate_net(m)
        assert exc.value.bad_edges == want
        checked += 1


def test_net_to_module_is_monolithic_with_identity_labels():
    n = small_net()
    m = net_to_module(n)
    assert is_monolithic(m)
    assert set(m.left) == n.places == set(m.right)
    for p in n.places:
        assert m.label_of(p) == str(p)
    assert dict(m.marking) == dict(n.marking)
    assert m.edges == n.flow


def test_transition_atom_shape():
    n = small_net()
    t = next(iter(n.transitions))
    atom = transition_atom(n, t)
    assert is_monolithic(atom)
    assert atom.interior() == {t}
    assert set(atom.left) == n.pre(t) | n.post(t)
    assert sum(atom.marking.values()) == 0
    assert atom.edges == n.flow


def test_transition_atom_errors():
    n = small_net()
    with pytest.raises(UnknownTransition):
        transition_atom(n, NodeId.single("n", "missing"))
    lonely = NodeId.single("n", "t_l")
    n2 = NetView(n.places, n.transitions | {lonely}, n.flow, {})
    with pytest.raises(IsolatedElement):
        transition_atom(n2, lonely)


def test_factorize_rejects_isolated_elements():
    n = small_net()
    orphan = NodeId.single("n", "p_orphan")
    n2 = NetView(n.places | {orphan}, n.transitions, n.flow, {})
    with pytest.raises(IsolatedElement) as exc:
        factorize(n2)
    assert orphan in exc.value.nodes


def test_factorize_small_net_round_trips():
    result = factorize(small_net())
    assert len(result.atoms) == 1
    assert result.matches
    assert result.witness is not None


def test_factorize_philosophers(phil_env):
    view = validate_net(evaluate(phil_env, "phils_in_a_cycle"))
    result = factorize(view)
    assert len(result.atoms) == 10
    assert result.matches
    # every atom covers one transition and both of its place rings
    for atom in result.atoms:
        inner = atom.interior()
        assert len(inner) == 1
        t = next(iter(inner))
        assert atom.kind_of(t) is Kind.TRANSITION


def test_factorize_random_sweep():
    rng = random.Random(99)
    for _ in range(30):
        assert factorize(random_net(rng, "n", max_transitions=6, max_places=8)).matches


def test_factorize_composes_its_tagged_atoms_without_retagging(monkeypatch):
    def refuse(self, prefix):
        raise AssertionError("factorize retagged a module")

    n = random_net(random.Random(12), "n")
    ts = sorted(n.transitions)
    want = [transition_atom(n, t).retagged(f"f{i}") for i, t in enumerate(ts, start=1)]
    monkeypatch.setattr(Module, "retagged", refuse)
    result = factorize(n)
    assert result.matches
    # the atoms are the composed operands: the retagged atoms of the net, in transition order
    assert len(result.atoms) == len(want)
    for atom, expected in zip(result.atoms, want):
        assert structural_equal(atom, expected)


# -- hand-built views ----------------------------------------------------------------

def _nid(*names):
    return NodeId(AtomicNodeId("n", name) for name in names)


P0, P1, T0, T1 = _nid("p0"), _nid("p1"), _nid("t0"), _nid("t1")


def _every_reader(view):
    """The numbering's readers: `pre`, the token game and `factorize`."""
    return [lambda: view.pre(T0), lambda: reachability(view), lambda: factorize(view)]


def test_view_with_a_node_both_place_and_transition_is_malformed():
    view = NetView(frozenset({P0, P1, T0}), frozenset({T0}), frozenset({(P0, T0), (T0, P1)}), {})
    for read in _every_reader(view):
        with pytest.raises(MalformedModule, match=r"n:t0 is both a place and a transition\Z"):
            read()


def test_view_with_an_arc_to_an_unknown_node_is_malformed():
    view = NetView(frozenset({P0, P1}), frozenset({T0}), frozenset({(P0, T0), (T0, P1), (_nid("z"), T0)}), {})
    for read in _every_reader(view):
        with pytest.raises(MalformedModule, match=r"arc \(n:z, n:t0\) references a node that is neither"):
            read()


@pytest.mark.parametrize("arcs", [[(P0, P1)], [(T0, T1)], [(T1, T0), (P1, P0)]])
def test_view_with_an_arc_between_equal_kinds_is_not_bipartite(arcs):
    flow = frozenset({(P0, T0), (T0, P1), (P1, T1), *arcs})
    view = NetView(frozenset({P0, P1}), frozenset({T0, T1}), flow, {})
    for read in _every_reader(view):
        with pytest.raises(NotBipartite) as exc:
            read()
        assert exc.value.bad_edges == tuple(sorted(arcs))


def test_views_of_validate_net_number_as_before(phil_env, prod_env):
    for env in (phil_env, prod_env):
        for name in env.names():
            try:
                view = validate_net(evaluate(env, name))
            except AbstractNodePresent:
                continue
            places, index, pre, post = view._numbering
            assert places == tuple(sorted(view.places)) and list(index) == sorted(view.transitions)
            for t, k in index.items():
                assert {places[p] for p in pre[k]} == {s for s, d in view.flow if d == t}
                assert {places[p] for p in post[k]} == {d for s, d in view.flow if s == t}


@pytest.mark.parametrize("view, message", [
    # two places sharing an atom, within one atom and across two
    (NetView(frozenset({P0, _nid("p0", "q")}), frozenset({T0}), frozenset({(P0, T0), (T0, _nid("p0", "q"))}), {}),
     "distinct nodes share atoms"),
    (NetView(frozenset({P0, P1, _nid("p0", "q")}), frozenset({T0, T1}),
             frozenset({(P0, T0), (T0, P1), (_nid("p0", "q"), T1)}), {}),
     "distinct nodes share atoms"),
    (NetView(frozenset({P0, P1}), frozenset({T0}), frozenset({(P0, T0), (T0, P1)}), {T0: 1}),
     "marking on non-place node n:t0"),
    (NetView(frozenset({P0, P1}), frozenset({T0}), frozenset({(P0, T0), (T0, P1)}), {P0: -1}),
     "n:p0: tokens must be a non-negative integer, got -1"),
])
def test_factorize_refuses_a_malformed_view_as_net_to_module_does(view, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("an atom was minted from a malformed view")

    monkeypatch.setattr(nets, "_minted_atoms", refuse)
    for call in (factorize, net_to_module):
        with pytest.raises(MalformedModule) as exc:
            call(view)
        assert str(exc.value) == message


def _factorizable_nets(phil_env, prod_env):
    rng = random.Random(23)
    nets = [random_net(rng, f"r{k}") for k in range(200)]
    for env in (phil_env, prod_env):
        for name in env.names():
            try:
                nets.append(validate_net(evaluate(env, name)))
            except AbstractNodePresent:
                pass
    return nets


def test_factorize_mints_the_retagged_transition_atoms(phil_env, prod_env, monkeypatch):
    checked = []
    init = Module.__init__

    def counted(self, *args, **kwargs):
        checked.append(self)
        init(self, *args, **kwargs)

    factorized = 0
    for n in _factorizable_nets(phil_env, prod_env):
        monkeypatch.setattr(Module, "__init__", counted)
        checked.clear()
        try:
            result = factorize(n)
        except IsolatedElement:
            continue
        finally:
            monkeypatch.setattr(Module, "__init__", init)
        # one checked module, the reference; the atoms are minted trusted
        assert checked == [result.reference]
        assert result.matches
        ts = sorted(n.transitions)
        assert len(result.atoms) == len(ts)
        for k, (atom, t) in enumerate(zip(result.atoms, ts), start=1):
            want = transition_atom(n, t).retagged(f"f{k}")
            assert verify_well_formed(atom) == []
            assert dumps(atom) == dumps(want)
            assert atom.left.slots == want.left.slots and atom.right.slots == want.right.slots
            assert atom.atom_set == want.atom_set
        factorized += 1
    assert factorized == 200 + 17  # every random net and every fixture binding
