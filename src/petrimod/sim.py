"""Token game on net views: enabledness, firing, reachability, invariant checks.

Markings are plain dicts from place id to a positive token count; absent
means zero.  Reachability is a deterministic breadth-first sweep over token
vectors, capped so a structurally unbounded net terminates with a truncated
graph instead of eating the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from .core import NodeId
from .errors import NotEnabled, UnknownTransition
from .nets import NetView, adjacency

__all__ = ["Marking", "ReachGraph", "Counterexample", "enabled", "fire", "reachability", "check_invariant"]

Marking = dict[NodeId, int]

MAX_MARKINGS = 1_000_000
MAX_TOKENS_PER_PLACE = 16


def _as_vector(n: NetView, places: tuple[NodeId, ...], m: Mapping[NodeId, int]) -> tuple[int, ...]:
    unknown = set(m) - set(places)
    if unknown:
        raise ValueError(f"marking names non-places: {sorted(map(str, unknown))}")
    return tuple(m.get(p, 0) for p in places)


def enabled(n: NetView, m: Mapping[NodeId, int]) -> list[NodeId]:
    """Transitions whose every pre-place carries a token, sorted."""
    pre, _ = adjacency(n)
    return [t for t in sorted(n.transitions) if all(m.get(p, 0) >= 1 for p in pre[t])]


def fire(n: NetView, m: Mapping[NodeId, int], t: NodeId) -> Marking:
    if t not in n.transitions:
        raise UnknownTransition(str(t))
    pre, post = n.pre(t), n.post(t)
    if any(m.get(p, 0) < 1 for p in pre):
        raise NotEnabled(f"{t} lacks a token on some pre-place")
    out = dict(m)
    for p in pre:
        out[p] -= 1
    for p in post:
        out[p] = out.get(p, 0) + 1
    return {p: k for p, k in out.items() if k}


@dataclass(frozen=True)
class ReachGraph:
    """Reached token vectors plus the fired-transition arcs between them.

    State 0 is the initial marking.  `truncated` means a cap cut the sweep
    short, so absence from the graph proves nothing.
    """

    places: tuple[NodeId, ...]
    vectors: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[int, NodeId, int], ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.vectors)

    def marking(self, i: int) -> Marking:
        return {p: k for p, k in zip(self.places, self.vectors[i]) if k}

    def markings(self) -> list[Marking]:
        return [self.marking(i) for i in range(len(self.vectors))]

    def path_to(self, i: int) -> tuple[NodeId, ...]:
        """Transitions of one shortest firing sequence from state 0 to state i."""
        parent: dict[int, tuple[int, NodeId]] = {}
        for src, t, dst in self.arcs:
            # arcs are recorded in BFS order, so the first arc into a state
            # closes a shortest path
            if dst not in parent and dst != 0:
                parent[dst] = (src, t)
        path: list[NodeId] = []
        while i != 0:
            i, t = parent[i]
            path.append(t)
        return tuple(reversed(path))


class Counterexample(NamedTuple):
    marking: Marking
    path: tuple[NodeId, ...]


def reachability(
    n: NetView,
    initial: Mapping[NodeId, int] | None = None,
    *,
    max_markings: int = MAX_MARKINGS,
    max_tokens_per_place: int = MAX_TOKENS_PER_PLACE,
) -> ReachGraph:
    places = tuple(sorted(n.places))
    index = {p: i for i, p in enumerate(places)}
    transitions = sorted(n.transitions)
    pre_places, post_places = adjacency(n)
    pre = {t: sorted(index[p] for p in pre_places[t]) for t in transitions}
    post = {t: sorted(index[p] for p in post_places[t]) for t in transitions}

    start = _as_vector(n, places, n.marking if initial is None else initial)
    vectors: list[tuple[int, ...]] = [start]
    seen: dict[tuple[int, ...], int] = {start: 0}
    arcs: list[tuple[int, NodeId, int]] = []
    truncated = False

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

    return ReachGraph(places, tuple(vectors), tuple(arcs), truncated)


def check_invariant(
    g: ReachGraph, pred: Callable[[Marking], bool]
) -> Counterexample | None:
    """First reached marking violating pred, with a shortest firing sequence
    to it; None when every reached marking satisfies pred."""
    for i in range(len(g.vectors)):
        m = g.marking(i)
        if not pred(m):
            return Counterexample(m, g.path_to(i))
    return None
