#!/usr/bin/env python3
"""petrimod benchmark: seeded workloads through the public API, checked and timed.

    python3 bench/run.py --workload ring_algebra --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1        # every workload, each in its own process

One workload runs in one process and one thread as a closed loop: its jobs
run in order, the next one starting when the previous one returns, and the
whole list repeats in rounds until another round would overrun --seconds,
counted from the start of set-up.  Every verdict is compared with an answer
known without running petrimod; a wrong one makes the run exit 1.  A job
that raises counts as failed, by the layer function it raised from and by
exception type, and is never retried.

Times are calibrated seconds.  The host this was built on swings in speed by
20-50% within a second, far more than any bound worth checking, so every
SAMPLE_EVERY_S a timer signal interrupts the run to time a fixed reference
loop, and each job's seconds, less those interruptions, are scaled by
REFERENCE_S over the mean of the reference times taken while it ran and
just before and after it.  Raw seconds are printed beside them.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics named in BENCHMARK.json; with --trace 1 every round is traced, and it
holds the per-layer metrics read from the spans, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "petrimod"
OUT = HERE / "out"
WORKLOADS = ("ring_algebra", "ring_reach", "random_small")
SETUP_SAMPLES = 15  # each in a fresh interpreter
REFERENCE_S = 0.002  # about the median sample on the 2-vCPU host the bench was tuned on
REFERENCE_IMPORT_S = 0.0125  # about the median reference import on the same host
SAMPLE_EVERY_S = 0.1

# Set-up is mostly import, which tracks the host's speed differently from the
# reference loop, so it is calibrated against a reference import: stdlib
# modules executed again under private names once they (and everything they
# import) are loaded, so that what petrimod imports cannot change the work.
_REFERENCE_MODULES = ("argparse", "csv", "fractions", "configparser", "difflib", "pprint",
                      "optparse", "calendar", "tarfile", "textwrap", "shlex", "gettext", "string")

# Import plus first-use set-up (the PNML schema compile), timed inside a fresh
# interpreter so that interpreter start-up is left out; then the reference.
_SETUP_PROBE = f"""
import importlib, importlib.util, statistics, sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import petrimod
from petrimod.export import ptnet_schema
ptnet_schema()
took = time.perf_counter() - t
mods = [importlib.import_module(m) for m in {_REFERENCE_MODULES!r}]
def reference_import():
    t = time.perf_counter()
    for m in mods:
        spec = importlib.util.spec_from_file_location("_reference_" + m.__name__, m.__file__)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    return time.perf_counter() - t
print(took, statistics.median(reference_import() for _ in range(5)))
"""

_MEMORY_PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads
print(json.dumps(workloads.MEMORY_PROBES[sys.argv[3]](int(sys.argv[4]))))
"""


@dataclass(frozen=True)
class _Atom:
    instance: str
    name: str


# Built once and only read by reference_loop(): a sample taken while the
# program is at its peak memory then adds little to the peak RSS.
_BIG = {(i, i * 7 % 1000): i for i in range(6000)}


def reference_loop() -> int:
    """Fixed pure-Python work of the kinds petrimod does: tuple keys and dict
    updates, frozen dataclasses in frozensets, and reads of a dict larger
    than the other two, so that the host's cache contention shows in it too."""
    counts: dict = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    keys = frozenset(counts)
    n = sum(1 for k in counts if k in keys)
    atoms = [_Atom(f"i{i % 50}", f"n{i}") for i in range(150)]
    groups = {frozenset(atoms[i:i + 3]): i for i in range(0, 150, 2)}
    return n + len(groups) + sum(_BIG.get((i, i * 7 % 1000), 0) for i in range(6000))


def reference_time() -> float:
    # collections the program left pending run in its next job, not in here
    was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if was_on:
            gc.enable()


def _setup_in_child() -> tuple[float, float]:
    """(set-up seconds, reference import seconds) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    took, ref = done.stdout.split()
    return float(took), float(ref)


class Sampler:
    """Reference times taken every SAMPLE_EVERY_S from a SIGALRM handler, so
    that a job of seconds is calibrated by samples taken while it ran.
    `spent` is the handler's own time, which the stopwatch takes out."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        start = time.perf_counter()
        try:
            self.samples.append(reference_time())
        except RecursionError:  # the job it interrupted was at the limit; skip
            pass
        self.spent += time.perf_counter() - start

    def factor(self, first: int, last: int) -> float:
        return REFERENCE_S / statistics.mean(self.samples[first:last + 1])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Stopwatch:
    """Splits one job's wall time, less the sampler's interruptions, between
    the stages the job names, and notes the samples that bracket the job:
    the last one before it, those during it, and the first one after it."""

    def __init__(self, sampler: Sampler):
        self.sampler = sampler

    def start(self) -> None:
        self.acc: dict = {}
        self.stage = None
        self.first = len(self.sampler.samples) - 1
        self.begun = self.last = time.perf_counter()
        self.spent0 = self.spent = self.sampler.spent

    def go(self, stage) -> None:
        now, spent = time.perf_counter(), self.sampler.spent
        self.acc[self.stage] = self.acc.get(self.stage, 0.0) + (now - self.last) - (spent - self.spent)
        self.stage, self.last, self.spent = stage, now, spent

    def stop(self) -> dict:
        self.go(None)
        self.acc["job"] = self.last - self.begun - (self.spent - self.spent0)
        self.acc["samples"] = (self.first, len(self.sampler.samples))
        return self.acc


def _raised_from(exc: BaseException) -> str:
    """`layer.function` of the outermost petrimod frame of a traceback."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename).resolve()
        if path.parent == PACKAGE:
            return f"{path.stem}.{frame.f_code.co_name}"
    return "bench"


def _median_sum(rounds, names, key, calibrated=True) -> float:
    """Sum over job names of the median of all samples of that name: one
    round in which every job runs once, with the bursts of noise that hit
    single samples filtered out."""
    pooled: dict[str, list[float]] = {}
    for times in rounds:
        for name, t in zip(names, times):
            pooled.setdefault(name, []).append(t.get(key, 0.0) * (t["factor"] if calibrated else 1.0))
    return sum(statistics.median(samples) for samples in pooled.values())


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    began = time.perf_counter()  # --seconds covers set-up and inputs too
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no petrimod sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import petrimod as pm

    if Path(pm.__file__).resolve().parent != PACKAGE:
        print(f"imported petrimod from {pm.__file__}, not from {PACKAGE}", file=sys.stderr)
        return 2
    setup = [_setup_in_child() for _ in range(SETUP_SAMPLES)]
    pm.export.ptnet_schema()  # first-use set-up, timed in setup_s only

    import workloads

    memory = {}
    if trace and name in workloads.MEMORY_PROBES:
        done = subprocess.run(
            [sys.executable, "-c", _MEMORY_PROBE, str(HERE), str(SRC), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        memory = json.loads(done.stdout)
    jobs = workloads.WORKLOADS[name](seed)
    names = [job for job, _ in jobs]
    tracer = spans.Tracer() if trace else None
    sampler = Sampler()
    watch = Stopwatch(sampler)
    ctx = workloads.Ctx(spans.layers(pm, tracer), watch.go)
    rounds: list[list[dict]] = []
    failures: Counter = Counter()
    attempted = failed = 0
    walls: list[float] = []
    with sampler:
        while True:
            # what the benchmark holds (inputs, spans, timings) is kept out of
            # the program's collections
            gc.collect()
            gc.freeze()
            round_start = time.perf_counter()
            if trace:
                tracer.open(f"round{len(rounds)}")
            times: list[dict] = []
            job_spans: list[int | None] = []
            sampler.sample()
            for job, fn in jobs:
                ctx.job = job
                job_spans.append(tracer.open(job) if trace else None)
                err = None
                watch.start()
                try:
                    fn(ctx)
                except Exception as e:  # every job failure is counted, none retried
                    err = e
                times.append(watch.stop())
                if trace:
                    tracer.close()
                attempted += 1
                if err is not None:
                    failed += 1
                    failures[(_raised_from(err), type(err).__name__)] += 1
                    err = None  # its traceback holds the failed job's data
            sampler.sample()
            for t, span in zip(times, job_spans):
                t["factor"] = sampler.factor(*t["samples"])
                if span is not None:
                    tracer.spans[span][4] = t["factor"]
            if trace:
                tracer.close()
            ctx.state = {}
            rounds.append(times)
            now = time.perf_counter()
            walls.append(now - round_start)
            if now - began + max(walls) > seconds:
                break

    values = {
        "setup_s": statistics.median(took * REFERENCE_IMPORT_S / ref for took, ref in setup),
        "total_s": _median_sum(rounds, names, "job"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for stage in workloads.STAGES:
        if any(stage in t for r in rounds for t in r):
            values[f"{stage}_s"] = _median_sum(rounds, names, stage)
    if trace:
        layer = spans.layer_metrics(tracer, {m["name"] for m in spec["per_layer"]})
        layer.update(memory)
        # what the spans cost, in calibrated seconds, over the traced total less that cost
        cost = tracer.cost(spans.span_cost()) / len(rounds) * REFERENCE_S / statistics.mean(sampler.samples)
        layer["trace.overhead_frac"] = cost / (values["total_s"] - cost)
        _write_spans(tracer, name, seed)

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = (layer if trace else values).get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"{name}: seed {seed}, {len(rounds)} rounds{' (traced)' if trace else ''}, "
          f"{attempted} jobs attempted, {failed} failed")
    print("  round wall times: " + ", ".join(f"{w:.3f}" for w in walls) + " s; reference loop "
          f"{statistics.median(sampler.samples) * 1e3:.3f} ms median over {len(sampler.samples)} "
          f"samples (nominal {REFERENCE_S * 1e3:g} ms)")
    _report(values, setup, rounds, names, attempted, failed, workloads.STAGES)
    for (where, kind), count in sorted(failures.items()):
        print(f"  failed: {where} raised {kind} x{count}")
    if trace:
        for key, value in layer.items():
            print(f"  {key:38s} {value:.6g}")
    for what, count in sorted(Counter(ctx.wrong).items()):
        print(f"  WRONG: {what} x{count}")
    print(json.dumps({"correct": not ctx.wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if ctx.wrong else 0


def _report(values, setup, rounds, names, attempted, failed, stages) -> None:
    n = len(rounds)
    raw_setup = statistics.median(took for took, _ in setup)
    lines = [("setup_s", values["setup_s"], "s", f"median of {len(setup)} set-ups, raw {raw_setup:.6g} s")]
    for key in ("total",) + stages:
        if f"{key}_s" in values:
            raw = _median_sum(rounds, names, "job" if key == "total" else key, calibrated=False)
            lines.append((f"{key}_s", values[f"{key}_s"], "s",
                          f"sum of per-job medians over {n} rounds, raw {raw:.6g} s"))
    lines.append(("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} jobs"))
    lines.append(("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of this process"))
    # a percentile is reported only with at least ten samples beyond it
    job_times = sorted(t["job"] * t["factor"] for r in rounds for t in r)
    for q in (50, 99):
        if len(job_times) * (100 - q) / 100 >= 10:
            lines.append((f"job_p{q}_s", _percentile(job_times, q), "s", f"of {len(job_times)} jobs"))
    for key, value, unit, note in lines:
        print(f"  {key:14s} {value:12.6g} {unit:6s} {note}")


def _write_spans(tracer, name: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-seed{seed}.json", "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": tracer.spans}, f)


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run([
            sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
