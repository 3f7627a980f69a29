"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Criteria with a time bound measure wall-clock time and fail when over it.
"""

import random
import time
from collections import deque

from petrimod import (
    abstract_of,
    closure,
    compose,
    dumps,
    evaluate,
    fixture_path,
    isomorphic,
    loads,
    parse,
    reachability,
    structural_equal,
    to_pnml,
    validate_net,
    validate_pnml,
    verify_well_formed,
)
from petrimod.generate import random_module
from petrimod.laws import LAWS

SEED = 1105


def _report(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:>2}: {name}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def _rng(tag):
    return random.Random(f"{SEED}:{tag}")


def _failures(law, tag, trials):
    rng = _rng(tag)
    holds = LAWS[law].holds
    return sum(not holds(rng) for _ in range(trials))


def test_criterion_01_associativity():
    start = time.perf_counter()
    bad = _failures("associativity", "assoc", 1000)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "composition associative on 1000 random triples",
        bad == 0 and elapsed < 10.0,
        f"{bad} failures, {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_02_identity():
    bad = _failures("identity", "ident", 1000)
    _report(2, "empty module is a two-sided identity for 1000 random modules", bad == 0, f"{bad} failures")


def test_criterion_03_closure_idempotent_and_label_split():
    rng = _rng("clos")
    idempotence, label_split = LAWS["closure idempotence"].holds, LAWS["closure label split"].holds
    bad_idem = bad_split = 0
    for _ in range(1000):
        bad_idem += not idempotence(rng)
        bad_split += not label_split(rng)
    _report(
        3,
        "closure idempotent, no label on both sides, 1000 random modules",
        bad_idem == 0 and bad_split == 0,
        f"{bad_idem} idempotence / {bad_split} label-split failures",
    )


def test_criterion_04_abstraction_laws():
    bad = _failures("abstraction laws", "abst", 300)
    _report(4, "abstraction laws on 300 random named pairs", bad == 0, f"{bad} failures")


def test_criterion_05_factorization_completeness():
    start = time.perf_counter()
    bad = _failures("factorization", "fact", 300)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "300 random nets recompose from their transition atoms",
        bad == 0 and elapsed < 30.0,
        f"{bad} failures, {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_06_philosopher_cycles_coincide():
    env = parse(fixture_path("philosophers.hkl").read_text(encoding="utf-8"))
    forks = evaluate(env, "forks_in_a_cycle")
    phils = evaluate(env, "phils_in_a_cycle")
    ok = len(forks.left) == 0 and len(forks.right) == 0
    ok = ok and len(phils.left) == 0 and len(phils.right) == 0
    witness = isomorphic(forks, phils)
    _report(
        6,
        "both cycle assemblies evaluate, close completely, and are isomorphic",
        ok and witness is not None,
        f"{len(phils.nodes)} nodes each",
    )


def _oracle_reach(module):
    """Brute-force BFS over the token game, written against the module's raw
    edges on purpose: it must not share code with the simulator it checks."""
    places = {n for n, node in module.nodes.items() if node.kind.value == "place"}
    transitions = {n for n, node in module.nodes.items() if node.kind.value == "transition"}
    pre = {t: {s for s, d in module.edges if d == t} for t in transitions}
    post = {t: {d for s, d in module.edges if s == t} for t in transitions}

    def freeze(m):
        return frozenset((p, k) for p, k in m.items() if k)

    start = {p: module.marking.get(p, 0) for p in places}
    seen = {freeze(start)}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for t in transitions:
            if all(m.get(p, 0) > 0 for p in pre[t]):
                nxt = dict(m)
                for p in pre[t]:
                    nxt[p] -= 1
                for p in post[t]:
                    nxt[p] = nxt.get(p, 0) + 1
                key = freeze(nxt)
                if key not in seen:
                    seen.add(key)
                    queue.append(nxt)
    return seen


def test_criterion_07_philosopher_behavior():
    env = parse(fixture_path("philosophers.hkl").read_text(encoding="utf-8"))
    m = evaluate(env, "phils_in_a_cycle")
    net = validate_net(m)
    g = reachability(net)

    oracle = _oracle_reach(m)
    counts_match = not g.truncated and len(g) == len(oracle) == 11

    eat_of = {}
    for t in net.transitions:
        if m.label_of(t) != "take":
            continue
        eat = next(p for p in net.post(t) if m.label_of(p) == "eating")
        eat_of[eat] = frozenset(p for p in net.pre(t) if m.label_of(p) == "available")
    exclusive = True
    for state in oracle:
        eating = [p for p, k in state if p in eat_of and k]
        for i, a in enumerate(eating):
            for b in eating[i + 1 :]:
                if eat_of[a] & eat_of[b]:
                    exclusive = False
    _report(
        7,
        "cycle reachability untruncated, matches brute-force oracle, neighbours never eat together",
        counts_match and exclusive,
        f"simulator {len(g)} vs oracle {len(oracle)} markings",
    )


def test_criterion_08_interface_multiplicities():
    env = parse(fixture_path("production.hkl").read_text(encoding="utf-8"))
    two = evaluate(env, "two_steps")
    sides_ok = list(two.left.indexed(two.label_of).values()) == [
        ("material", 1),
        ("material", 2),
    ] and list(two.right.indexed(two.label_of).values()) == [
        ("product", 1),
        ("product", 2),
    ]

    grouped = evaluate(env, "line_grouped")
    mixed = evaluate(env, "line_mixed")
    grouped_ok = list(grouped.right.indexed(grouped.label_of).values()) == [
        ("parcel", 1),
        ("parcel", 2),
        ("product", 1),
    ]
    mixed_ok = list(mixed.right.indexed(mixed.label_of).values()) == [
        ("product", 1),
        ("parcel", 1),
        ("parcel", 2),
    ]
    _report(
        8,
        "production lines expose duplicate labels with hand-derived slot orders",
        sides_ok and grouped_ok and mixed_ok,
        "two_steps, line_grouped, line_mixed",
    )


def test_criterion_09_well_formedness_everywhere():
    rng = _rng("wf")
    bad = 0
    checked = 0

    def check(m):
        nonlocal bad, checked
        checked += 1
        if verify_well_formed(m):
            bad += 1
            return
        for side in (m.left, m.right):
            per_label = {}
            for label, i in side.indexed(m.label_of).values():
                per_label.setdefault(label, []).append(i)
            if any(idx != list(range(1, len(idx) + 1)) for idx in per_label.values()):
                bad += 1

    for _ in range(300):
        a = random_module(rng, "a", name="A")
        b = random_module(rng, "b")
        check(compose(a, b))
        check(closure(a))
        check(abstract_of(a))
    for name in ("philosophers.hkl", "production.hkl"):
        env = parse(fixture_path(name).read_text(encoding="utf-8"))
        for binding in env.names():
            check(evaluate(env, binding))
    _report(
        9,
        "per-label indices are exactly 1..n on every operation output",
        bad == 0,
        f"{checked} modules checked",
    )


def test_criterion_10_export_conformance():
    bad_pnml = bad_dump = 0
    total = 0
    for name in ("philosophers.hkl", "production.hkl"):
        env = parse(fixture_path(name).read_text(encoding="utf-8"))
        for binding in env.names():
            total += 1
            m = evaluate(env, binding)
            try:
                validate_pnml(to_pnml(m))
            except Exception:
                bad_pnml += 1
            text = dumps(m)
            back = loads(text)
            if not structural_equal(back, m) or dumps(back) != text:
                bad_dump += 1
    _report(
        10,
        "PNML validates and dumps round-trip byte-stable for every fixture binding",
        bad_pnml == 0 and bad_dump == 0,
        f"{total} bindings",
    )
