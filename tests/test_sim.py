import itertools
import operator
import random
import tracemalloc

import pytest

from petrimod import sim
from petrimod import (NodeId, check_invariant, enabled, evaluate, fire, fixture_path, parse, reachability,
                      validate_net)
from petrimod.errors import NotEnabled, UnknownTransition
from petrimod.generate import random_net
from petrimod.nets import NetView
from petrimod.sim import MAX_MARKINGS, MAX_TOKENS_PER_PLACE, Clause, Counterexample, Invariant, ReachGraph


@pytest.fixture(scope="module")
def phil(phil_env):
    m = evaluate(phil_env, "phils_in_a_cycle")
    return m, validate_net(m)


def takes(m, net):
    return [t for t in sorted(net.transitions) if m.label_of(t) == "take"]


def test_initially_every_take_is_enabled(phil):
    m, net = phil
    ts = enabled(net, net.marking)
    assert len(ts) == 5
    assert all(m.label_of(t) == "take" for t in ts)


def test_firing_a_take_blocks_the_neighbours(phil):
    m, net = phil
    first, *rest = takes(m, net)
    after = fire(net, net.marking, first)
    forks = {p for p in net.pre(first) if m.label_of(p) == "available"}
    neighbours = [t for t in rest if net.pre(t) & forks]
    assert len(neighbours) == 2
    still = set(enabled(net, after))
    assert not still & set(neighbours)
    assert set(rest) - set(neighbours) <= still


def test_fire_moves_tokens(phil):
    m, net = phil
    t = takes(m, net)[0]
    after = fire(net, net.marking, t)
    assert sum(net.marking.values()) == 10
    assert sum(after.values()) == 8  # two forks and a thinking token for one eating
    ret = [r for r in net.transitions if m.label_of(r) == "return" and net.pre(r) == net.post(t)]
    assert len(ret) == 1
    assert fire(net, after, ret[0]) == dict(net.marking)


def test_fire_errors(phil):
    m, net = phil
    eater = next(t for t in net.transitions if m.label_of(t) == "return")
    with pytest.raises(NotEnabled):
        fire(net, net.marking, eater)
    with pytest.raises(UnknownTransition):
        fire(net, net.marking, NodeId.single("x", "ghost"))


def test_philosopher_state_space(phil):
    _, net = phil
    g = reachability(net)
    assert len(g) == 11
    assert not g.truncated


def test_production_state_spaces(prod_env):
    two = validate_net(evaluate(prod_env, "two_steps"))
    assert len(reachability(two)) == 4
    mixed = validate_net(evaluate(prod_env, "line_mixed"))
    assert len(reachability(mixed)) == 18


def test_paths_replay_to_their_markings(phil):
    _, net = phil
    g = reachability(net)
    for i in range(len(g)):
        m = dict(net.marking)
        for t in g.path_to(i):
            m = fire(net, m, t)
        assert m == g.marking(i)


def test_graph_is_complete_when_untruncated(phil):
    _, net = phil
    g = reachability(net)
    outgoing = {}
    for src, t, _ in g.arcs:
        outgoing.setdefault(src, set()).add(t)
    for i in range(len(g)):
        assert outgoing.get(i, set()) == set(enabled(net, g.marking(i)))


def test_initial_marking_is_a_home_state(phil):
    # state 0 is reachable from every state: walk the arcs backwards
    _, net = phil
    g = reachability(net)
    back = {}
    for src, _, dst in g.arcs:
        back.setdefault(dst, set()).add(src)
    seen = {0}
    frontier = [0]
    while frontier:
        fresh = {x for s in frontier for x in back.get(s, ()) if x not in seen}
        seen |= fresh
        frontier = list(fresh)
    assert seen == set(range(len(g)))


def test_trivially_false_invariant_fails_at_the_root(phil):
    _, net = phil
    g = reachability(net)
    ce = check_invariant(g, lambda m: False)
    assert isinstance(ce, Counterexample)
    assert ce.path == ()
    assert ce.marking == dict(net.marking)


def test_neighbouring_philosophers_never_eat_together(phil):
    m, net = phil
    g = reachability(net)
    eat_of = {}
    for t in takes(m, net):
        eat = next(p for p in net.post(t) if m.label_of(p) == "eating")
        forks = frozenset(p for p in net.pre(t) if m.label_of(p) == "available")
        eat_of[eat] = forks

    def exclusive(marking):
        eating = [e for e in eat_of if marking.get(e, 0)]
        return all(
            not (eat_of[a] & eat_of[b]) for i, a in enumerate(eating) for b in eating[i + 1 :]
        )

    assert check_invariant(g, exclusive) is None


def test_each_philosopher_thinks_or_eats(phil):
    m, net = phil
    g = reachability(net)
    state_places = [p for p in net.places if m.label_of(p) in ("thinking", "eating")]
    assert check_invariant(g, lambda mk: sum(mk.get(p, 0) for p in state_places) == 5) is None


def test_caps_mark_the_graph_truncated():
    t, p = NodeId.single("g", "t"), NodeId.single("g", "p")
    growing = NetView(frozenset({p}), frozenset({t}), frozenset({(t, p)}), {})
    g = reachability(growing)
    assert g.truncated
    assert len(g) == 17  # 0..16 tokens, further growth cut off

    g2 = reachability(growing, max_markings=5)
    assert g2.truncated and len(g2) == 5


def test_initial_marking_must_name_places(phil):
    _, net = phil
    with pytest.raises(ValueError):
        reachability(net, {NodeId.single("x", "alien"): 1})


def test_initial_marking_must_hold_counts(phil):
    _, net = phil
    p = min(net.places)
    for bad in (-1, 1.0, True, None):
        with pytest.raises(ValueError):
            reachability(net, {p: bad})


# -- the plain reference engine ---------------------------------------------------

def reference_reachability(
    n, initial=None, *, max_markings=MAX_MARKINGS, max_tokens_per_place=MAX_TOKENS_PER_PLACE
):
    """Breadth-first sweep over token tuples, one dict lookup per pre- and
    post-place: the engine `reachability` replaced, kept as its oracle.

    Returns places, vectors, arcs and truncated, plus the shortest path to
    every state, taken from the first arc into it.
    """
    places = tuple(sorted(n.places))
    index = {p: i for i, p in enumerate(places)}
    transitions = sorted(n.transitions)
    pre = {t: sorted(index[p] for p in n.pre(t)) for t in transitions}
    post = {t: sorted(index[p] for p in n.post(t)) for t in transitions}
    m = n.marking if initial is None else initial
    start = tuple(m.get(p, 0) for p in places)
    vectors, seen, arcs, truncated = [start], {start: 0}, [], False
    head = 0
    while head < len(vectors):
        vec = vectors[head]
        for t in transitions:
            if any(vec[i] < 1 for i in pre[t]):
                continue
            nxt = list(vec)
            for i in pre[t]:
                nxt[i] -= 1
            for i in post[t]:
                nxt[i] += 1
            succ = tuple(nxt)
            if max(succ, default=0) > max_tokens_per_place:
                truncated = True
                continue
            dst = seen.get(succ)
            if dst is None:
                if len(vectors) >= max_markings:
                    truncated = True
                    continue
                dst = len(vectors)
                seen[succ] = dst
                vectors.append(succ)
            arcs.append((head, t, dst))
        head += 1

    parent = {}
    for src, t, dst in arcs:
        if dst not in parent and dst != 0:
            parent[dst] = (src, t)
    paths = [()]
    for i in range(1, len(vectors)):
        src, t = parent[i]
        paths.append(paths[src] + (t,))  # a parent is found before its children
    return places, vectors, arcs, truncated, paths


def assert_same_graph(net, initial=None, **caps):
    places, vectors, arcs, truncated, paths = reference_reachability(net, initial, **caps)
    g = reachability(net, initial, **caps)
    assert g.places == places
    assert g.vectors == tuple(vectors)
    assert len(g) == len(vectors)
    assert list(g.arcs) == arcs
    assert len(g.arcs) == len(arcs)
    assert g.truncated == truncated
    for i, vec in enumerate(vectors):
        assert g.marking(i) == {p: k for p, k in zip(places, vec) if k}
        assert g.path_to(i) == paths[i]
    if arcs:
        assert g.arcs[0] == arcs[0] and g.arcs[-1] == arcs[-1]
        assert g.arcs[1::2] == tuple(arcs[1::2])
    return g


# multi-byte fields need a count of at least 127 somewhere, initially or as the cap
_COUNTS = (0, 1, 2, 3, 17, 126, 127, 128, 200, 255, 256, 1000, 40000)


_MAX_MARKINGS = (1, 2, 25, 5000)
_MAX_TOKENS = (0, 1, 16, 255, 1000)


@pytest.mark.parametrize("max_markings", _MAX_MARKINGS)
@pytest.mark.parametrize("max_tokens", _MAX_TOKENS)
def test_reachability_matches_the_reference_engine(max_markings, max_tokens):
    rng = random.Random(max_markings * 7919 + max_tokens)
    for trial in range(12):
        net = random_net(rng, f"d{trial}", max_transitions=6, max_places=6)
        initial = None
        if trial % 3:
            initial = {p: rng.choice(_COUNTS) for p in sorted(net.places) if rng.random() < 0.5}
        assert_same_graph(net, initial, max_markings=max_markings, max_tokens_per_place=max_tokens)


def without_presets(net, rng):
    """`net` with every pre-arc of a random third of its transitions dropped,
    and the number of those new source transitions."""
    ts = sorted(net.transitions)
    sources = set(rng.sample(ts, round(len(ts) / 3)))
    flow = frozenset((s, d) for s, d in net.flow if d not in sources)
    return NetView(net.places, net.transitions, flow, net.marking), len(sources)


def test_source_transitions_match_the_reference_engine():
    # `random_net` gives every transition a pre-place; a source is enabled in every state
    rng = random.Random(2718)
    sources = 0
    for max_markings, max_tokens in itertools.product(_MAX_MARKINGS, _MAX_TOKENS):
        for trial in range(8):
            net, k = without_presets(random_net(rng, f"s{trial}", max_transitions=6, max_places=6), rng)
            sources += k
            assert_same_graph(net, max_markings=max_markings, max_tokens_per_place=max_tokens)
    assert sources >= 100


def test_seeded_nets_at_volume_match_the_reference_engine():
    # the sweep fires only the transitions outside a state's sleep mask; every
    # state, path, arc and cut must still be the plain sweep's, whichever cap cuts
    rng = random.Random(26)
    seen = {"complete": 0, "cut": 0, "sources": 0}
    for trial in range(1200):
        net = random_net(rng, f"x{trial}", max_transitions=rng.choice((3, 6, 9, 12)), max_places=8)
        if trial % 3 == 0:
            net, k = without_presets(net, rng)
            seen["sources"] += k > 0
        g = assert_same_graph(net, max_markings=rng.choice((-1, 0, 1, 2, 5, 25, 200, 1000)),
                              max_tokens_per_place=rng.choice((-1, 0, 1, 2, 3, 16, 200)))
        seen["cut" if g.truncated else "complete"] += 1
    assert min(seen.values()) >= 200, seen


@pytest.mark.parametrize("max_transitions", [40, 70])
def test_wide_random_nets_match_the_reference_engine(max_transitions):
    # enabled-transition masks wider than one int digit (30 bits) and than 64 bits
    rng = random.Random(max_transitions)
    fired = set()  # ids of the transitions that fired in some sweep
    for trial in range(30):
        net = random_net(rng, f"w{trial}", max_transitions=max_transitions, max_places=max_transitions)
        initial = {p: rng.randint(0, 2) for p in sorted(net.places)}
        g = assert_same_graph(net, initial, max_markings=rng.choice((100, 400)),
                              max_tokens_per_place=rng.choice((2, 3, 16)))
        ids = {t: i for i, t in enumerate(sorted(net.transitions))}
        fired |= {ids[t] for _, t, _ in g.arcs}
    assert max(fired) >= (64 if max_transitions > 64 else 30)


def _net(entries, marking=None):
    """A net from `"src dst"` arcs and lone `"name"` nodes; names starting with t are transitions."""
    split = [entry.split() for entry in entries]
    ids = {x: NodeId.single("h", x) for names in split for x in names}
    ts = frozenset(nid for x, nid in ids.items() if x.startswith("t"))
    flow = frozenset((ids[a], ids[b]) for a, b in (names for names in split if len(names) == 2))
    return NetView(frozenset(ids.values()) - ts, ts, flow, {ids[x]: k for x, k in (marking or {}).items()})


@pytest.mark.parametrize("entries, marking", [
    # a source transition feeds p, which t1 drains into q: only a cap stops it
    (["t0 p", "p t1", "t1 q"], None),
    # a source with no post-place loops on every marking
    (["p t1", "t1 q", "t0"], {"p": 2}),
    # self-loop: t1 reads s without changing it; t2 takes s away and disables t1
    (["s t1", "t1 s", "a t1", "t1 b", "s t2", "t2 c"], {"s": 1, "a": 3}),
    # a self-loop place next to a counter that grows past the cap
    (["s t1", "t1 s", "t1 q", "q t2", "t2 r"], {"s": 1}),
    # expanding state 1, t0 finds a new state, then t3 a later one that t5
    # leads to as well; were t0's state to sleep t5 because t5's successor was
    # seen by the end of the expansion, max_markings 5 would count 8 arcs, not 7
    (["p2 t0", "t0 p2", "t0 p0", "p1 t1", "p2 t1", "t1 p1", "p2 t2", "p0 t2", "t2 p2", "t2 p0", "t2 p1",
      "p1 t3", "p2 t3", "t3 p2", "p1 t4", "t4 p1", "t4 p2", "p1 t5"], {"p1": 2, "p2": 1}),
])
@pytest.mark.parametrize("caps", [{}, {"max_tokens_per_place": 2}, {"max_markings": 3},
                                  {"max_tokens_per_place": 130, "max_markings": 60},
                                  {"max_markings": 5, "max_tokens_per_place": 1}])
def test_hand_made_nets_match_the_reference_engine(entries, marking, caps):
    assert_same_graph(_net(entries, marking), **caps)


def test_arc_rows_find_their_source_state(phil):
    # the sweep keeps one arc offset per state, and states without arcs (dead
    # ends, or cut by a cap) leave empty runs the lookup must skip
    _, net = phil
    rng = random.Random(5)
    graphs = [reachability(net), reachability(net, max_markings=4)]
    graphs += [reachability(random_net(rng, f"r{k}", max_transitions=4, max_places=4), max_markings=30)
               for k in range(20)]
    assert any(len({s for s, _, _ in g.arcs}) < len(g) for g in graphs)
    for g in graphs:
        rows = list(g.arcs)
        assert [g.arcs[i] for i in range(len(rows))] == rows
        assert [g.arcs[i] for i in range(-len(rows), 0)] == rows
        assert g.arcs[::-1] == tuple(rows[::-1]) and g.arcs[len(rows):] == ()
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                g.arcs[i]


def test_initial_marking_above_the_token_cap():
    # p starts at 20 over a cap of 16: every successor still holds more than
    # 16 on p, so the sweep stops at the root even though t only moves a
    # token from q to r; with the cap lifted to 20, t fires once
    p, q, r, t = (NodeId.single("c", x) for x in ("p", "q", "r", "t"))
    net = NetView(frozenset({p, q, r}), frozenset({t}), frozenset({(q, t), (t, r)}), {p: 20, q: 1})
    g = assert_same_graph(net)
    assert g.vectors == ((20, 1, 0),)
    assert list(g.arcs) == []
    assert g.truncated
    g = assert_same_graph(net, max_tokens_per_place=20)
    assert g.vectors == ((20, 1, 0), (20, 0, 1))
    assert list(g.arcs) == [(0, t, 1)]
    assert not g.truncated
    assert g.path_to(1) == (t,)


def test_caps_at_the_edges():
    t, p = NodeId.single("e", "t"), NodeId.single("e", "p")
    source = NetView(frozenset({p}), frozenset({t}), frozenset({(t, p)}), {})
    for caps in ({"max_tokens_per_place": -1}, {"max_markings": 0}, {"max_tokens_per_place": 126},
                 {"max_tokens_per_place": 127, "max_markings": 300},
                 {"max_tokens_per_place": 10**30, "max_markings": 50}):
        assert_same_graph(source, **caps)
    with pytest.raises(TypeError):  # a float cap cannot size a field
        reachability(source, max_tokens_per_place=float("inf"))
    # a net without places: the empty marking loops on t unless no count is allowed
    empty = NetView(frozenset(), frozenset({t}), frozenset(), {})
    assert list(assert_same_graph(empty).arcs) == [(0, t, 0)]
    assert assert_same_graph(empty, max_tokens_per_place=-1).truncated


def test_memory_per_marking_is_bounded(phil_env):
    # own-process allocations only: the peak of one sweep over the 20-ring,
    # whose L_20 = 15,127 markings are the independent sets of a 20-cycle,
    # and what the graph keeps; it stores no arcs, so 167,240 of them cost nothing
    text = fixture_path("philosophers.hkl").read_text(encoding="utf-8")
    ring = " . ".join(["phil_with_forks"] * 20)
    net = validate_net(evaluate(parse(f"{text}\nring20 := ({ring})^c\n"), "ring20"))
    tracemalloc.start()
    try:
        g = reachability(net)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == 15127 and not g.truncated and len(g.arcs) == 167240
    assert peak / len(g) < 256
    assert kept / len(g) < 160


# -- invariants ---------------------------------------------------------------------

_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
        "!=": operator.ne, "<": operator.lt, ">": operator.gt}


def dict_predicate(clauses):
    """The marking-dict predicate `petrimod reach --invariant` used before
    clauses were evaluated on packed states: the oracle of `Invariant`."""
    def pred(marking) -> bool:
        for agg, places, op, num in clauses:
            counts = [marking.get(p, 0) for p in places]
            value = sum(counts) if agg == "sum" else max(counts, default=0)
            if not _OPS[op](value, num):
                return False
        return True

    return pred


def reference_check(g, pred):
    for i in range(len(g)):
        if not pred(g.marking(i)):
            return Counterexample(g.marking(i), g.path_to(i))
    return None


def _random_clause(rng, g):
    """A clause that mostly holds at the root and breaks once its value
    drifts by more than a random slack, so violations turn up at every depth."""
    chosen = [p for p in g.places if rng.random() < 0.4]
    if rng.random() < 0.1:
        chosen.append(NodeId.single("elsewhere", "p"))  # holds no tokens in any state
    agg, op = rng.choice(("sum", "max")), rng.choice(tuple(_OPS))
    counts = [g.marking(0).get(p, 0) for p in chosen]
    value = sum(counts) if agg == "sum" else max(counts, default=0)
    slack = rng.choice((0, 0, 1, 2))
    bound = {"<=": value + slack, "<": value + 1 + slack, ">=": value - slack, ">": value - 1 - slack,
             "==": value, "!=": value + 1 + slack}[op]
    if rng.random() < 0.1:
        bound = rng.choice((0, 127, 1000))
    return Clause(agg, chosen, op, max(0, bound))


def test_compiled_invariants_agree_with_the_dict_predicate(monkeypatch):
    decoded = []
    marking = ReachGraph.marking
    monkeypatch.setattr(ReachGraph, "marking", lambda g, i: decoded.append(i) or marking(g, i))
    rng = random.Random(14)
    seen = {"violated": 0, "violated past the root": 0, "holds": 0, "truncated": 0, "wide": 0}
    for trial in range(1000):
        net = random_net(rng, f"v{trial}", max_transitions=6, max_places=6)
        initial = {p: rng.randint(0, 3) for p in sorted(net.places)}
        if trial % 2:  # a count of 127 or more needs two-byte fields
            initial[rng.choice(sorted(net.places))] = rng.choice((126, 127, 200, 1000))
        g = reachability(net, initial, max_markings=rng.choice((5, 40, 300)),
                         max_tokens_per_place=max(initial.values()) + rng.choice((0, 2, 16)))
        clauses = [_random_clause(rng, g) for _ in range(rng.randint(1, 3))]
        expected = reference_check(g, dict_predicate(clauses))
        assert check_invariant(g, dict_predicate(clauses)) == expected
        decoded.clear()
        assert check_invariant(g, Invariant(clauses)) == expected
        assert len(decoded) == (expected is not None)  # a dict for the counterexample only
        seen["violated" if expected else "holds"] += 1
        seen["violated past the root"] += bool(expected and expected.path)
        seen["truncated"] += g.truncated
        seen["wide"] += g._width > 1
    assert min(seen.values()) >= 100, seen


def replayed(net, initial, path):
    """The marking `path` leads to from `initial`, fired one transition at a time."""
    m = {p: k for p, k in initial.items() if k}
    for t in path:
        m = fire(net, m, t)
    return m


def test_every_marking_a_callable_sees_replays_from_its_path(phil, monkeypatch):
    # the oracle is `fire` along `path_to(i)`, not `g.marking(i)`, which shares
    # its per-state decode with the decoder's wide path; seeded nets whose
    # markings hold at most one token per place, counts above 1, and counts
    # that need two-byte fields; small batches mix batches with and without a
    # count above 1 in one graph
    rng = random.Random(28)
    seen = {"one-token": 0, "counts above 1": 0, "wide": 0}
    nets = [(phil[1], dict(phil[1].marking), MAX_TOKENS_PER_PLACE)]
    for trial in range(450):
        net = random_net(rng, f"o{trial}", max_transitions=6, max_places=6)
        kind = trial % 3
        initial = {p: rng.randint(0, 1 if kind == 0 else 3) for p in sorted(net.places)}
        if kind == 2:  # a count of 127 or more needs two-byte fields
            initial[rng.choice(sorted(net.places))] = rng.choice((127, 200, 1000))
        cap = rng.choice((1, 16)) if kind == 0 else max(initial.values()) + rng.choice((0, 2, 16))
        nets.append((net, initial, cap))
    for net, initial, cap in nets:
        monkeypatch.setattr(sim, "_BATCH", rng.choice((1, 3, 1024)))
        g = reachability(net, initial, max_markings=rng.choice((5, 40, 300)), max_tokens_per_place=cap)
        handed = []
        assert check_invariant(g, lambda m: handed.append(m) or True) is None
        assert len(handed) == len(g)
        assert len({id(m) for m in handed}) == len(handed)  # a new dict for each state
        for i, m in enumerate(handed):
            assert type(m) is dict and m == replayed(net, initial, g.path_to(i))
        # the counterexample holds the very dict the callable refused
        last = len(g) - 1
        handed.clear()
        cex = check_invariant(g, lambda m: handed.append(m) or len(handed) <= last)
        assert cex.marking is handed[-1] and cex.path == g.path_to(last)
        counts = [k for m in handed for k in m.values()]
        seen["wide" if g._width > 1 else "counts above 1" if max(counts, default=0) > 1 else "one-token"] += 1
    assert min(seen.values()) >= 100, seen


def test_invariant_clauses_are_checked():
    p = NodeId.single("x", "p")
    for bad in (Clause("min", [p], "<=", 1), Clause("sum", [p], "=<", 1), Clause("sum", [p], "=", 1)):
        with pytest.raises(ValueError):
            Invariant([bad])
    # a place-less net packs to zero bytes; the max over no places is 0
    t = NodeId.single("x", "t")
    g = reachability(NetView(frozenset(), frozenset({t}), frozenset(), {}))
    assert check_invariant(g, Invariant([Clause("max", [], "==", 0), Clause("sum", [p], "<", 1)])) is None
    assert check_invariant(g, Invariant([Clause("max", [], ">", 0)])) == Counterexample({}, ())
