"""Token game on net views: enabledness, firing, reachability, invariant checks.

Markings are plain dicts from place id to a positive token count; absent
means zero.  Reachability is a deterministic breadth-first sweep over token
vectors, capped so a structurally unbounded net terminates with a truncated
graph instead of eating the machine.

The sweep runs on integers only.  Places are numbered in sorted order and a
marking is one int with a byte-aligned field per place, place 0 in the
lowest bytes.  The top bit of each field is a guard that a stored count
never reaches, so one addition tests a condition on every field at once:
adding guard - 1 sets a field's guard bit exactly when its count is at least
1, and adding guard - 1 - cap sets it exactly when the count exceeds the cap.
Counts are at most max(cap, initial) + 1 while a successor is being tested,
so no field carries into the next.

Each reached state that is not yet expanded keeps its enabled transitions as
one int with a bit per transition id.  A new state starts from its parent's
bits and re-tests only the transitions that consume a place the fired
transition changed.

Most arcs are one pair of independent steps taken in the other order, so the
sweep keeps sleep sets (Godefroid, Partial-Order Methods for the Verification
of Concurrent Systems, LNCS 1032, 1996).  Transitions t and u are independent
when they share no place, in pre- or post-set: each leaves the other's
enabledness and effect alone.  Each state is born with a sleep mask, the
transitions it does not fire because their successor is stored already.
Expanding state m walks its enabled transitions outside its mask in ascending
id; `done` starts as the mask and gains each transition whose successor
passed the token cap, new or seen.  A child c found by u sleeps the `done`
transitions independent of u.  That is exact: for t asleep in c, m + t was
stored before c was born, so it is expanded before c and fires u or sleeps
it, by induction on the state index, and c + t = m + t + u is stored when c
is expanded.  Each field of c + t is a field of m + t or of c, so the token
cap passes it too.  Sleep masks keep every state, parent and arc, and drop
only firings: on the 22-philosopher ring 79,204 of 481,624 arcs are fired.
Once `max_markings` cuts a successor, a sleeping one may never be stored, so
from then on every enabled transition fires.

The sweep stores no arcs, only a running arc count per state: a state's
arcs are its enabled transitions, in id order, whose successor passed the
token cap and was stored, so `ReachGraph.arcs` rebuilds a state's row from
the packed states when it is read.  An `Invariant` of `sum`/`max` clauses is
evaluated on the packed states through one field mask per clause, and builds
no marking dict but the counterexample's.

Any other callable invariant gets a new marking dict per state from
`_decode`.  For one-byte fields it takes the states 1,024 at a time, and one
C pass of `high & s` over a batch, where `high` sets every bit of every
field but the lowest, tells whether any count in it is above 1.  When none
is, as in a safe net, the batch is decoded by a chain of C iterators with no
Python frame per state: `to_bytes`, `compress` of the places by those bytes,
and `dict.fromkeys` of the marked places with 1.  Otherwise a generator zips
the marked places with the nonzero counts that `bytes.translate` keeps.
Wider fields, and `ReachGraph.marking(i)`, are decoded one state at a time
by `_marking`: for one state a chain's setup costs more than it saves.  On
the 22-philosopher ring (39,603 states, 66 places) a state costs about 2.4
us by `fromkeys` against 3.0 us by the generator; a C chain of the zip
(`tee` of the bytes, `translate`) was no faster, at 3.2 us (medians of 21
interleaved runs, CPython 3.11, 2-vCPU Linux host).
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple

from .core import NodeId
from .errors import NotEnabled
from .nets import NetView

__all__ = ["Marking", "ReachGraph", "Counterexample", "Clause", "Invariant", "enabled", "fire", "reachability",
           "check_invariant"]

Marking = dict[NodeId, int]

MAX_MARKINGS = 1_000_000
MAX_TOKENS_PER_PLACE = 16


def _as_vector(places: tuple[NodeId, ...], m: Mapping[NodeId, int]) -> tuple[int, ...]:
    unknown = set(m) - set(places)
    if unknown:
        raise ValueError(f"marking names non-places: {sorted(map(str, unknown))}")
    bad = sorted(str(p) for p, k in m.items() if type(k) is not int or k < 0)
    if bad:
        raise ValueError(f"token counts must be non-negative integers: {bad}")
    return tuple(m.get(p, 0) for p in places)


def enabled(n: NetView, m: Mapping[NodeId, int]) -> list[NodeId]:
    """Transitions whose every pre-place carries a token, sorted."""
    places, transitions, pre, _ = n._numbering
    return [t for t, ps in zip(transitions, pre) if all(m.get(places[p], 0) >= 1 for p in ps)]


def fire(n: NetView, m: Mapping[NodeId, int], t: NodeId) -> Marking:
    places, _, pre, post = n._numbering
    i = n._number(t)
    if any(m.get(places[p], 0) < 1 for p in pre[i]):
        raise NotEnabled(f"{t} lacks a token on some pre-place")
    out = dict(m)
    for p in pre[i]:
        out[places[p]] -= 1
    for p in post[i]:
        out[places[p]] = out.get(places[p], 0) + 1
    return {p: k for p, k in out.items() if k}


class _Arcs(Sequence):
    """Read-only `(src, transition, dst)` triples, rebuilt from the states.

    `first[s]` counts the arcs of the states before s, so state s's arcs are
    the rows `first[s]` up to `first[s + 1]`; a row finds its source by
    bisection.  A state's arcs are its enabled transitions in id order whose
    successor passes the token cap and is a stored state: a successor cut by
    the cap fails the same test here, and one cut by `max_markings` was never
    stored.  The first row read builds a `{state: index}` table.
    """

    __slots__ = ("_first", "_states", "_rules", "_caps", "_index")

    def __init__(self, first: array, states: list[int], rules: tuple[tuple[NodeId, int, int, int], ...],
                 caps: tuple[int, int]):
        # rules: (transition, guard - 1 per pre-place, their guard bits, post - pre), in id order
        self._first, self._states, self._rules, self._caps = first, states, rules, caps
        self._index: dict[int, int] | None = None

    def __len__(self) -> int:
        return self._first[-1]

    def _row(self, s: int) -> list[tuple[int, NodeId, int]]:
        index = self._index
        if index is None:
            index = self._index = {m: i for i, m in enumerate(self._states)}
        m, (over, guards) = self._states[s], self._caps
        row = []
        for t, h, g, delta in self._rules:
            if (m + h) & g == g and not (m + delta + over) & guards:
                dst = index.get(m + delta)
                if dst is not None:
                    row.append((s, t, dst))
        return row

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        i = range(len(self))[i]
        s = bisect_right(self._first, i) - 1
        return self._row(s)[i - self._first[s]]

    def __iter__(self) -> Iterator[tuple[int, NodeId, int]]:
        for s in range(len(self._states)):
            yield from self._row(s)


def _unpack(s: int, width: int, n: int) -> Sequence[int]:
    """Packed state s's n token counts, as bytes when fields are one byte wide."""
    raw = s.to_bytes(n * width, "little")
    if width == 1:
        return raw
    return tuple(int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width))


def _marking(places: tuple[NodeId, ...], width: int, s: int) -> Marking:
    """Packed state s's marking dict, decoded on its own."""
    counts = _unpack(s, width, len(places))
    return dict(zip(compress(places, counts), filter(None, counts)))


_BATCH = 1024  # states per count test of `_decode_bytes`


def _decode(places: tuple[NodeId, ...], width: int, states: Sequence[int]) -> Iterator[Marking]:
    """The marking dict of each packed state, in order.

    One-byte fields are decoded `_BATCH` states at a time by `_decode_bytes`,
    so the count test reads at most one batch ahead of the markings; wider
    fields state by state."""
    if width != 1:
        return map(_marking, repeat(places), repeat(width), states)
    high = int.from_bytes(b"\xfe" * len(places), "little")  # every bit of every field but the lowest
    return chain.from_iterable(
        _decode_bytes(places, high, states[j : j + _BATCH]) for j in range(0, len(states), _BATCH))


def _decode_bytes(places: tuple[NodeId, ...], high: int, states: Sequence[int]) -> Iterator[Marking]:
    """Markings of one batch of one-byte-field states.  When no count in the
    batch is above 1, which one C pass of `high & s` decides, each marking
    is its marked places with 1, by a chain of C iterators with no Python
    frame per state."""
    raw = map(operator.methodcaller("to_bytes", len(places), "little"), states)
    if any(map(high.__and__, states)):
        return (dict(zip(compress(places, r), r.translate(None, b"\0"))) for r in raw)
    return map(dict.fromkeys, map(compress, repeat(places), raw), repeat(1))


@dataclass(frozen=True, eq=False)
class ReachGraph:
    """Reached markings plus the fired-transition arcs between them.

    State 0 is the initial marking.  `truncated` means a cap cut the sweep
    short, so absence from the graph proves nothing.  `vectors` lists each
    state's token counts in `places` order; `arcs` is a lazy sequence of
    `(src, transition, dst)` in the order the sweep found them, whose rows
    are rebuilt from the states when read; its length costs nothing.
    """

    places: tuple[NodeId, ...]
    arcs: Sequence[tuple[int, NodeId, int]]
    truncated: bool
    _transitions: tuple[NodeId, ...] = field(repr=False)
    _width: int = field(repr=False)  # bytes per place field
    _states: list[int] = field(repr=False)  # packed markings in discovery order
    _parent: array = field(repr=False)  # the state that found each state; -1 for state 0
    _via: array = field(repr=False)  # transition id of the arc that found it

    def __len__(self) -> int:
        return len(self._states)

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """Every state's token counts, decoded afresh on each access."""
        n = len(self.places)
        return tuple(tuple(_unpack(s, self._width, n)) for s in self._states)

    def marking(self, i: int) -> Marking:
        return _marking(self.places, self._width, self._states[i])

    def _markings(self) -> Iterator[Marking]:
        """Every state's marking in discovery order, each a new dict."""
        return _decode(self.places, self._width, self._states)

    def path_to(self, i: int) -> tuple[NodeId, ...]:
        """Transitions of one shortest firing sequence from state 0 to state i."""
        # a state's parent found it from the BFS layer before its own
        i = range(len(self._states))[i]
        path: list[NodeId] = []
        while i:
            path.append(self._transitions[self._via[i]])
            i = self._parent[i]
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
    places, transitions, pre_places, post_places = n._numbering
    start_vec = _as_vector(places, n.marking if initial is None else initial)
    max_tokens_per_place = operator.index(max_tokens_per_place)  # sizes the fields

    width = 1
    while 1 << (8 * width - 1) <= max(max_tokens_per_place, 0, *start_vec) + 1:
        width += 1
    bits = 8 * width
    guard = 1 << (bits - 1)

    unit = [1 << (bits * i) for i in range(len(places))]  # the lowest bit of each field
    every = sum(unit)
    # a bit above every field: `over` sets it alone when even zero tokens exceed the cap
    top = 1 << (bits * len(places))
    guards = every * guard | top
    over = top if max_tokens_per_place < 0 else every * (guard - 1 - max_tokens_per_place)

    # enabledness of u reads only u's pre-places, so firing t can change it
    # only when u consumes a place t changes: one in pre(t) △ post(t)
    consumers = [0] * len(places)  # bits of the transitions each place feeds
    touching = [0] * len(places)  # bits of the transitions with the place in their pre- or post-set
    tests = []  # (bit, guard - 1 per pre-place, guard bits of the pre-places)
    for tid, (ps, qs) in enumerate(zip(pre_places, post_places)):
        pre, bit = 0, 1 << tid
        for p in ps:
            pre += unit[p]
            consumers[p] |= bit
            touching[p] |= bit
        for q in qs:
            touching[q] |= bit
        tests.append((bit, pre * (guard - 1), pre * guard))
    # (post - pre, bits of the transitions left as they were, tests to redo,
    # bits of the transitions that share no place with it: the independent ones)
    moves = []
    for ps, qs, (_, _, g) in zip(pre_places, post_places, tests):
        redo = dep = 0
        for p in set(ps).symmetric_difference(qs):
            redo |= consumers[p]
        for p in (*ps, *qs):
            dep |= touching[p]
        delta = sum([unit[p] for p in qs]) - (g >> (bits - 1))
        keep, again = ~redo, []
        while redo:
            low = redo & -redo
            redo ^= low
            again.append(tests[low.bit_length() - 1])
        moves.append((delta, keep, again, ~dep))

    start = sum(k << (bits * i) for i, k in enumerate(start_vec))
    states = [start]
    seen = {start}
    parent, via = array("i", [-1]), array("i", [-1])
    first, narcs = array("q", [0]), 0  # arcs before each state, then in all; may pass 2**31
    truncated = full = False  # full: max_markings cut a successor, so fire every enabled transition
    # each reached state not yet expanded, as one int: its enabled transitions,
    # one bit per id, and above them its sleep mask
    frontier = deque([sum(bit for bit, h, g in tests if (start + h) & g == g)])
    shift = len(transitions)
    enabled_bits = (1 << shift) - 1

    for head, m in enumerate(states):
        packed = frontier.popleft()
        here, done = packed & enabled_bits, packed >> shift
        narcs += here.bit_count()  # less one for each successor a cap cuts; a sleeping one is stored
        rest = here if full else here & ~done  # done: the transitions whose successor is stored
        while rest:
            low = rest & -rest
            rest ^= low
            tid = low.bit_length() - 1
            delta, keep, again, independent = moves[tid]
            succ = m + delta
            if (succ + over) & guards:
                truncated = True
                narcs -= 1
                continue
            if succ not in seen:
                if len(states) >= max_markings:
                    truncated = full = True
                    narcs -= 1
                    continue
                seen.add(succ)
                states.append(succ)
                parent.append(head)
                via.append(tid)
                mask = here & keep
                for bit, h, g in again:
                    if (succ + h) & g == g:
                        mask |= bit
                frontier.append(mask | (done & independent) << shift)
            done |= low
        first.append(narcs)

    rules = tuple((t, h, g, delta) for t, (_, h, g), (delta, *_) in zip(transitions, tests, moves))
    arcs = _Arcs(first, states, rules, (over, guards))
    return ReachGraph(places, arcs, truncated, tuple(transitions), width, states, parent, via)


class Clause(NamedTuple):
    """`agg(places) op bound`: the sum or the max of the token counts on
    places, compared with bound.  `agg` is "sum" or "max", `op` one of
    <=, >=, ==, !=, <, >.  The max over no places is 0."""

    agg: str
    places: Collection[NodeId]
    op: str
    bound: int


_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
        "!=": operator.ne, "<": operator.lt, ">": operator.gt}


class Invariant:
    """A conjunction of clauses.  `check_invariant` evaluates it on the
    packed markings, so it builds a marking dict only for a violation."""

    __slots__ = ("clauses",)

    def __init__(self, clauses: Iterable[Clause]):
        self.clauses = tuple(Clause(*c) for c in clauses)
        for c in self.clauses:
            if c.agg not in ("sum", "max") or c.op not in _OPS:
                raise ValueError(f"bad invariant clause: {c}")

    def _first_violation(self, g: ReachGraph) -> int | None:
        """The first state of g, in discovery order, where a clause fails,
        found on the packed states one clause at a time: each clause scans
        only the states before the earliest failure found so far."""
        index = {p: i for i, p in enumerate(g.places)}
        bits = 8 * g._width
        field, guard = (1 << bits) - 1, 1 << (bits - 1)
        size = len(g.places) * g._width
        found = len(g._states)
        for agg, ps, op, bound in self.clauses:
            fields = {index[p] for p in ps if p in index}  # other places hold no tokens
            mask = sum(field << (bits * i) for i in fields)
            states = enumerate(islice(g._states, found))
            k = bound - 1 if op in ("<", ">=") else bound  # max < b is max <= b - 1, max >= b is max > b - 1
            if agg == "max" and fields and op not in ("==", "!=") and 0 <= k <= guard - 1:
                # a stored count stays below guard - 1, so adding guard - 1 - k
                # to each field sets its guard bit exactly when its count exceeds k
                units = sum(1 << (bits * i) for i in fields)
                add, test, above = units * (guard - 1 - k), units * guard, op in (">", ">=")
                # the clause fails where `max > k` is not what it asks for
                fails = (i for i, s in states if (not ((s & mask) + add) & test) is above)
            else:
                # over no fields the masked counts are all zero, which sums to max's 0
                agg, op = sum if agg == "sum" or not fields else max, _OPS[op]
                if g._width == 1:  # a byte per field: aggregate the masked state's bytes
                    fails = (i for i, s in states if not op(agg((s & mask).to_bytes(size, "little")), bound))
                else:
                    fails = (i for i, s in states if not op(agg([s >> (bits * f) & field for f in fields]), bound))
            found = next(fails, found)
        return found if found < len(g._states) else None


def check_invariant(
    g: ReachGraph, pred: Invariant | Callable[[Marking], bool]
) -> Counterexample | None:
    """First reached marking violating pred, with a shortest firing sequence
    to it; None when every reached marking satisfies pred.

    An `Invariant` is evaluated on the packed states; any other callable
    gets each state's marking dict in discovery order."""
    if isinstance(pred, Invariant):
        i = pred._first_violation(g)
        return None if i is None else Counterexample(g.marking(i), g.path_to(i))
    for i, m in enumerate(g._markings()):
        if not pred(m):
            return Counterexample(m, g.path_to(i))
    return None
