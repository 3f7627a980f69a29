"""The layer functions the benchmark calls, plain or wrapped in spans.

Jobs call petrimod only through the namespace `layers()` returns, so an
untraced run calls the library functions themselves and a traced run calls
them inside spans.  Spans live in memory as lists
[name, start, end, parent, info]; the parent of a layer span is its job span,
the parent of a job span is its round span.  A layer span's `info` holds
counts read from the return value, or ERROR when the call raised; a job
span's holds the factor that calibrates its seconds.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

# layer -> public functions the benchmark calls.  `generate` only feeds
# inputs and `cli` is not called, so neither is listed.
LAYERS = {
    "dsl": ("parse", "evaluate", "instantiate"),
    "core": ("compose", "closure", "abstract_of", "verify_well_formed"),
    "iso": ("isomorphic", "structural_equal"),
    "nets": ("validate_net", "factorize"),
    "sim": ("reachability", "check_invariant", "fire"),
    "export": ("dumps", "loads", "to_dot", "to_pnml", "validate_pnml"),
}

ERROR = "error"

# Counts read from a call's arguments and return value, after its span ended.
COUNTS = {
    "dsl.parse": lambda args, out: {"bytes": len(args[0].encode())},
    "dsl.evaluate": lambda args, out: {"nodes": len(out.nodes)},
    "iso.isomorphic": lambda args, out: {"nodes": len(args[0].nodes)},
    "nets.factorize": lambda args, out: {"atoms": len(out.atoms)},
    "sim.reachability": lambda args, out: {
        "markings": len(out), "arcs": len(out.arcs), "truncated": int(out.truncated)},
    "export.dumps": lambda args, out: {"bytes": len(out.encode())},
    "export.to_pnml": lambda args, out: {"bytes": len(out.encode())},
}


class Tracer:
    """Span store for one run; written out only when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []  # indices of the open round and job spans
        self.count_s = 0.0  # time spent reading COUNTS after layer spans ended

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self._open.append(index)
        self.spans.append([name, perf_counter(), None, parent, None])
        return index

    def close(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    def wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._open, COUNTS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans.append([name, start, perf_counter(), parent, ERROR])
                raise
            end = perf_counter()
            info = None
            if count:
                info = count(args, out)
                self.count_s += perf_counter() - end
            spans.append([name, start, end, parent, info])
            return out

        return traced

    def cost(self, per_span: float) -> float:
        """Seconds tracing added to the run: every span at `per_span`, plus
        the counts read from return values."""
        return len(self.spans) * per_span + self.count_s

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a no-op called through Tracer.wrap
    against the same no-op called directly, median of five trials.  Round
    and job spans, opened and closed by hand, are taken to cost the same."""

    def noop():
        return None

    samples = []
    for _ in range(5):
        wrapped = Tracer().wrap("noop", noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)


def layers(pm, tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace of every listed layer function, wrapped when a tracer is given."""
    ns = {}
    for layer, names in LAYERS.items():
        module = getattr(pm, layer)
        for name in names:
            fn = getattr(module, name)
            ns[name] = tracer.wrap(f"{layer}.{name}", fn) if tracer else fn
    return SimpleNamespace(**ns)


def layer_metrics(tracer: Tracer, wanted: set[str]) -> dict:
    """Per-round sums over the layer spans, median over rounds.

    `<layer>.<function>.s` is calibrated self time, `.ok_s` the part spent in
    calls that returned, `.calls` and `.errors` count calls, and the remaining
    stats sum the counts in COUNTS.  A `.us_per_node.n<k>` stat in `wanted` is
    the time per node of the calls on the ring of k philosophers (5k nodes).
    """
    own = tracer.self_times()
    depth: list[int] = []
    round_of: list[int] = []
    rows: dict[int, Counter] = {}
    per_node: dict[int, dict[str, list[float]]] = {}
    for i, (name, start, end, parent, info) in enumerate(tracer.spans):
        if parent is None:
            depth.append(0)
            round_of.append(i)
            rows[i], per_node[i] = Counter(), {}
            continue
        depth.append(depth[parent] + 1)
        round_of.append(round_of[parent])
        if depth[i] < 2:  # a job
            continue
        row = rows[round_of[i]]
        seconds = own[i] * tracer.spans[parent][4]
        row[f"{name}.s"] += seconds
        row[f"{name}.calls"] += 1
        if info == ERROR:
            row[f"{name}.errors"] += 1
        elif info:
            row[f"{name}.ok_s"] += seconds
            for key, value in info.items():
                row[f"{name}.{key}"] += value
            nodes = info.get("nodes", 0)
            tag = f"{name}.us_per_node.n{nodes // 5}"
            if tag in wanted and nodes % 5 == 0:
                per_node[round_of[i]].setdefault(tag, []).append(seconds / nodes * 1e6)
    for r, row in rows.items():
        for tag, samples in per_node[r].items():
            row[tag] = statistics.mean(samples)
        # rates over the calls that returned
        if row["dsl.parse.ok_s"]:
            row["dsl.parse.kb_per_s"] = row["dsl.parse.bytes"] / 1024 / row["dsl.parse.ok_s"]
        if row["sim.reachability.ok_s"]:
            row["sim.markings_per_s"] = row["sim.reachability.markings"] / row["sim.reachability.ok_s"]
    keys = sorted({k for row in rows.values() for k in row})
    return {k: statistics.median(row.get(k, 0) for row in rows.values()) for k in keys}
