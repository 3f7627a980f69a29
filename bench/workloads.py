"""The three workloads: untimed inputs, the jobs that time them, and the
answer every verdict must match.

Each workload is a list of jobs run in order, one round after another.  A
job is `(name, fn)`; `fn(ctx)` calls petrimod only through `ctx.L`, marks
which stage its time belongs to with `ctx.go(stage)`, and compares each
verdict with `ctx.check`.  Expected answers come from algebraic laws or from
counting (5n nodes, Lucas numbers, ...), never from running the code under
test.  Jobs of one round share `ctx.state`, so a later job can use what an
earlier one built.
"""

from __future__ import annotations

import os
import random
import resource
from functools import partial

from petrimod import (IsoOptions, empty_module, evaluate, fixture_path, net_to_module, parse,
                      reachability, validate_net)
from petrimod.generate import random_module, random_net
from petrimod.relaxng import ValidationError

import gen

STAGES = ("build", "iso", "factorize", "export", "reach")

RING_SIZES = (50, 200)  # 250 and 1000 nodes
CHAIN_LINKS = 100
PARSE_ONLY = 1000  # philosophers in the parse-only source
REACH_SIZES = (18, 20, 22)
REACH_BUILDS = 5  # builds per ring and round: each takes ~20 ms, so one sample per round is noise
SMALL_JOBS = 1000  # enough that job_p99_s has at least ten samples beyond it
SMALL_CAP = 25  # max_markings in random_small, far below the default, so sweeps truncate

_RENAME = IsoOptions(rename_abstract_cores=True)
_PAGE = os.sysconf("SC_PAGE_SIZE")
_EMPTY = empty_module()


class MissingInput(Exception):
    """A job's input was never built because an earlier job of its round failed."""


class Ctx:
    """What a job sees: the layer functions, its stage clock, round state, checks."""

    def __init__(self, L, go):
        self.L = L
        self.go = go
        self.job = ""
        self.state: dict = {}
        self.wrong: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(f"{self.job}: {what}")

    def need(self, key: str):
        try:
            return self.state[key]
        except KeyError:
            raise MissingInput(key) from None


# -- ring_algebra ---------------------------------------------------------------

def ring_algebra(seed: int) -> list:
    phil_text = fixture_path("philosophers.hkl").read_text()
    prod_text = fixture_path("production.hkl").read_text()
    jobs = []
    for assoc in ("left", "right"):
        src = gen.production_chain(prod_text, CHAIN_LINKS, assoc, seed)
        jobs.append((f"chain_build_{assoc}", partial(_chain_build, src, assoc)))
    jobs += [
        ("chain_assoc", _chain_assoc),
        ("chain_iso", _chain_iso),
        ("chain_export", partial(_export, "chain_left")),
    ]
    for n in RING_SIZES:
        src = gen.philosopher_ring(phil_text, n, seed)
        jobs += [
            (f"ring{n}_build_phils", partial(_ring_phils, src, n)),
            (f"ring{n}_build_forks", partial(_ring_forks, n)),
            (f"ring{n}_verify", partial(_ring_verify, n)),
            (f"ring{n}_iso", partial(_ring_iso, n)),
            (f"ring{n}_factorize", partial(_ring_factorize, n)),
            (f"ring{n}_export", partial(_export, f"phils{n}")),
        ]
    src = gen.philosopher_ring(phil_text, PARSE_ONLY, seed)
    jobs.append((f"parse{PARSE_ONLY}", partial(_parse_only, src)))
    return jobs


def _labels(m, side) -> list[str]:
    return [m.label_of(nid) for nid in side]


def _chain_build(src, assoc, ctx):
    L = ctx.L
    ctx.go("build")
    m = L.evaluate(L.parse(src), "chain")
    ctx.state[f"chain_{assoc}"] = m
    # unmatched slots pile up: material 1..n on the left, parcel 1..n on the right
    ctx.check(_labels(m, m.left) == ["material"] * CHAIN_LINKS, "left interface is material 1..n")
    ctx.check(_labels(m, m.right) == ["parcel"] * CHAIN_LINKS, "right interface is parcel 1..n")


def _chain_assoc(ctx):
    ctx.go("iso")
    left, right = ctx.need("chain_left"), ctx.need("chain_right")
    ctx.check(ctx.L.structural_equal(left, right), "left and right grouping structurally equal")


def _chain_iso(ctx):
    ctx.go("iso")
    left, right = ctx.need("chain_left"), ctx.need("chain_right")
    ctx.check(ctx.L.isomorphic(left, right) is not None, "left and right grouping isomorphic")


def _check_ring(ctx, m, n, what):
    ctx.check(len(m.nodes) == 5 * n, f"{what} ring has 5n nodes")
    ctx.check(len(m.edges) == 8 * n, f"{what} ring has 8n arcs")
    ctx.check(sum(m.marking.values()) == 2 * n, f"{what} ring has 2n tokens")


def _ring_phils(src, n, ctx):
    L = ctx.L
    ctx.go("build")
    env = L.parse(src)
    m = L.evaluate(env, "phils_in_a_cycle")
    ctx.state[f"env{n}"] = env
    ctx.state[f"phils{n}"] = m
    _check_ring(ctx, m, n, "philosopher")


def _ring_forks(n, ctx):
    """The fork-centric ring of philosophers.hkl, folded by hand: per seat
    think . (left_use . right_use) . eat, left-associated, then closed."""
    L = ctx.L
    env = ctx.need(f"env{n}")
    snip, alphabet = env.snippets, env.alphabet
    ctx.go("build")
    row = None
    for i in range(n):
        think, left, right, eat = (
            L.instantiate(snip[name], alphabet, f"f{i}.{k}")
            for k, name in enumerate(("think", "left_use", "right_use", "eat"))
        )
        seat = L.compose(L.compose(think, L.compose(left, right)), eat)
        row = seat if row is None else L.compose(row, seat)
    m = L.closure(row)
    ctx.state[f"forks{n}"] = m
    _check_ring(ctx, m, n, "fork")


def _ring_verify(n, ctx):
    L = ctx.L
    ctx.go("build")
    for key in (f"phils{n}", f"forks{n}"):
        ctx.check(L.verify_well_formed(ctx.need(key)) == [], f"{key} well formed")


def _ring_iso(n, ctx):
    phils, forks = ctx.need(f"phils{n}"), ctx.need(f"forks{n}")
    ctx.go("iso")
    ctx.check(ctx.L.isomorphic(phils, forks) is not None, "both assemblies isomorphic")


def _ring_factorize(n, ctx):
    L = ctx.L
    phils = ctx.need(f"phils{n}")
    ctx.go("factorize")
    f = L.factorize(L.validate_net(phils))
    ctx.check(f.matches, "transition atoms recompose to the ring")
    ctx.check(len(f.atoms) == 2 * n, "one atom per transition")


def _pnml_valid(L, text) -> bool:
    try:
        L.validate_pnml(text)
    except ValidationError:
        return False
    return True


def _export(key, ctx):
    L = ctx.L
    m = ctx.need(key)
    ctx.go("export")
    ctx.check(L.structural_equal(L.loads(L.dumps(m)), m), "dump/load round trip")
    ctx.check(L.to_dot(m).startswith("digraph"), "DOT output")
    ctx.check(_pnml_valid(L, L.to_pnml(m)), "PNML validates")


def _parse_only(src, ctx):
    ctx.go("build")
    ctx.check("phils_in_a_cycle" in ctx.L.parse(src), "ring definition parsed")


# -- ring_reach -------------------------------------------------------------------

def ring_reach(seed: int) -> list:
    phil_text = fixture_path("philosophers.hkl").read_text()
    jobs = []
    for n in REACH_SIZES:
        src = gen.philosopher_ring(phil_text, n, seed)
        jobs += [(f"reach{n}_build", partial(_reach_build, src, n))] * REACH_BUILDS
        jobs += [
            (f"reach{n}_sweep", partial(_reach_sweep, n)),
            (f"reach{n}_holds", partial(_reach_invariant, n, n // 2)),
            (f"reach{n}_violated", partial(_reach_invariant, n, n // 2 - 1)),
        ]
    return jobs


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _reach_build(src, n, ctx):
    L = ctx.L
    ctx.go("build")
    m = L.evaluate(L.parse(src), "phils_in_a_cycle")
    ctx.state[f"ring{n}"] = m


def _reach_sweep(n, ctx):
    L = ctx.L
    m = ctx.need(f"ring{n}")
    ctx.go("reach")
    net = L.validate_net(m)
    g = L.reachability(net)
    ctx.state[f"net{n}"], ctx.state[f"graph{n}"] = net, g
    # who is eating is an independent set of the n-cycle: there are L_n of them
    ctx.check(len(g) == gen.lucas(n), f"L_{n} = {gen.lucas(n)} markings")
    ctx.check(not g.truncated, "sweep complete")


def reach_memory(seed: int) -> dict[str, float]:
    """Peak-RSS growth of the largest ring's sweep.  Call it only in a fresh
    interpreter: once an earlier sweep has set the process's peak and left
    freed memory mapped, neither the peak nor the RSS before a sweep tells
    what the sweep itself needs."""
    n = max(REACH_SIZES)
    src = gen.philosopher_ring(fixture_path("philosophers.hkl").read_text(), n, seed)
    net = validate_net(evaluate(parse(src), "phils_in_a_cycle"))
    before = _rss_bytes()
    g = reachability(net)
    grown = _peak_rss_bytes() - before
    return {"sim.reachability.rss_mb": grown / 2**20, "sim.bytes_per_marking": grown / len(g)}


def _reach_invariant(n, bound, ctx):
    """`reach --invariant "sum(eating) <= bound"`: at most n//2 philosophers
    eat at once, so the bound n//2 holds and n//2 - 1 fails after n//2 takes."""
    L = ctx.L
    m, net, g = ctx.need(f"ring{n}"), ctx.need(f"net{n}"), ctx.need(f"graph{n}")
    ctx.go("reach")
    eating = [p for p in net.places if m.label_of(p) == "eating"]
    cex = L.check_invariant(g, lambda mk: sum(mk.get(p, 0) for p in eating) <= bound)
    if bound >= n // 2:
        ctx.check(cex is None, f"sum(eating) <= {bound} holds")
        return
    ctx.check(cex is not None, f"sum(eating) <= {bound} violated")
    if cex is None:
        return
    ctx.check(len(cex.path) == n // 2, f"counterexample path has {n // 2} transitions")
    mk = dict(net.marking)
    for t in cex.path:
        mk = L.fire(net, mk, t)
    ctx.check(mk == cex.marking, "path replays to the reported marking")
    for key in (f"net{n}", f"graph{n}"):
        del ctx.state[key]


# -- random_small -----------------------------------------------------------------

def random_small(seed: int, count: int = SMALL_JOBS) -> list:
    rng = random.Random(seed)
    jobs = []
    for j in range(count):
        a = random_module(rng, "a", name="A")
        b = random_module(rng, "b", name="B")
        c = random_module(rng, "c")
        net = random_net(rng, "n", max_transitions=8, max_places=10)
        inputs = (a, b, c, a.retagged("r"), net, net_to_module(net))
        jobs.append((f"small{j}", partial(_small, inputs)))
    return jobs


def _small(inputs, ctx):
    a, b, c, a_copy, net, net_module = inputs
    L = ctx.L
    ctx.go("build")
    assoc = (L.compose(L.compose(a, b), c), L.compose(a, L.compose(b, c)))
    unit = (L.compose(_EMPTY, a), L.compose(a, _EMPTY))
    once = L.closure(a)
    twice = L.closure(once)
    core = L.abstract_of(a)
    core_of_core = L.abstract_of(core)
    whole = L.abstract_of(L.compose(a, b).with_name("AB"))
    parts = L.abstract_of(L.compose(core, L.abstract_of(b)).with_name("AB"))

    ctx.go("iso")
    ctx.check(L.structural_equal(*assoc), "associativity")
    ctx.check(all(L.structural_equal(m, a) for m in unit), "identity")
    ctx.check(L.structural_equal(twice, once), "closure idempotence")
    ctx.check(L.isomorphic(core_of_core, core, _RENAME) is not None, "abstraction idempotence")
    ctx.check(L.isomorphic(whole, parts, _RENAME) is not None, "abstraction of a composition")
    ctx.check(L.isomorphic(a, a_copy) is not None, "retagged copy isomorphic")

    ctx.go("export")
    ctx.check(L.structural_equal(L.loads(L.dumps(a)), a), "dump/load round trip")
    ctx.check(_pnml_valid(L, L.to_pnml(net_module)), "PNML validates")

    ctx.go("factorize")
    ctx.check(L.factorize(net).matches, "transition atoms recompose to the net")

    ctx.go("reach")
    g = L.reachability(net, max_markings=SMALL_CAP)
    ctx.check(
        all(L.fire(net, g.marking(src), t) == g.marking(dst) for src, t, dst in g.arcs),
        "every arc replays through fire",
    )


WORKLOADS = {"ring_algebra": ring_algebra, "ring_reach": ring_reach, "random_small": random_small}
MEMORY_PROBES = {"ring_reach": reach_memory}  # run in a fresh interpreter by traced runs

