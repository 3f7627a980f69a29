"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import petrimod as pm  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

PHIL = pm.fixture_path("philosophers.hkl").read_text()
PROD = pm.fixture_path("production.hkl").read_text()


def _ctx(tracer=None):
    return wl.Ctx(spans.layers(pm, tracer), lambda stage: None)


def test_ring_of_five_isomorphic_with_eleven_markings():
    ctx = _ctx()
    src = gen.philosopher_ring(PHIL, 5, seed=7)
    for job in (
        partial(wl._ring_phils, src, 5),
        partial(wl._ring_forks, 5),
        partial(wl._ring_verify, 5),
        partial(wl._ring_iso, 5),
        partial(wl._ring_factorize, 5),
        partial(wl._export, "phils5"),
        partial(wl._reach_build, src, 5),
        partial(wl._reach_sweep, 5),
    ):
        job(ctx)
    assert gen.lucas(5) == 11
    assert len(ctx.state["graph5"]) == 11
    wl._reach_invariant(5, 2, ctx)
    wl._reach_invariant(5, 1, ctx)
    assert ctx.wrong == []


def test_a_wrong_verdict_is_reported():
    ctx = _ctx()
    src = gen.philosopher_ring(PHIL, 5, seed=1)
    wl._reach_build(src, 5, ctx)
    ctx.state["ring6"] = ctx.state["ring5"]  # a ring of five posing as six
    wl._reach_sweep(6, ctx)
    assert any("L_6" in what for what in ctx.wrong)


def test_random_small_jobs_pass():
    ctx = _ctx()
    for _, job in wl.random_small(seed=3, count=20):
        job(ctx)
    assert ctx.wrong == []


def test_seed_only_permutes_declarations():
    a = gen.philosopher_ring(PHIL, 4, seed=1)
    b = gen.philosopher_ring(PHIL, 4, seed=2)
    assert a != b and sorted(a.strip().split("\n\n")) == sorted(b.strip().split("\n\n"))
    ma = pm.evaluate(pm.parse(a), "phils_in_a_cycle")
    mb = pm.evaluate(pm.parse(b), "phils_in_a_cycle")
    assert pm.structural_equal(ma, mb)


def test_chain_groupings_agree():
    ctx = _ctx()
    for assoc in ("left", "right"):
        wl._chain_build(gen.production_chain(PROD, wl.CHAIN_LINKS, assoc, seed=5), assoc, ctx)
    wl._chain_assoc(ctx)
    assert ctx.wrong == []
    assert "(link . (link))" in gen.production_chain(PROD, 3, "right")


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    ctx = _ctx(tracer)
    tracer.open("round0")
    tracer.open("job")
    ctx.L.parse(PHIL)
    tracer.close()
    tracer.close()
    (r, _, r_end, r_parent, _), (job, j_start, j_end, j_parent, _), layer = tracer.spans
    assert (r_parent, j_parent, layer[0], layer[3]) == (None, 0, "dsl.parse", 1)
    assert layer[4] == {"bytes": len(PHIL.encode())}
    own = tracer.self_times()
    assert abs(own[1] - ((j_end - j_start) - (layer[2] - layer[1]))) < 1e-9


def test_stopwatch_leaves_out_the_sampler_time():
    import run

    sampler = run.Sampler()
    sampler.sample()
    before = sampler.spent
    watch = run.Stopwatch(sampler)
    watch.start()
    watch.go("build")
    sampler.sample()  # as if the timer fired inside the job
    times = watch.stop()
    assert times["job"] < sampler.spent - before  # the job itself does next to nothing
    assert abs(times["job"] - times["build"] - times[None]) < 1e-9
    sampler.sample()
    first, last = times["samples"]
    assert (first, last) == (0, 2)
    assert sampler.factor(first, last) == run.REFERENCE_S / run.statistics.mean(sampler.samples)


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring_reach", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
