"""Seeded random modules and nets for self-tests and law suites."""

from __future__ import annotations

import random

from .core import Alphabet, Kind, Module, Node, NodeId
from .nets import NetView

__all__ = ["GEN_ALPHABET", "random_module", "random_net"]

# One shared label universe so any two generated modules agree on kinds.
GEN_ALPHABET = Alphabet(
    places=frozenset({"pa", "pb", "pc", "pd"}),
    transitions=frozenset({"ta", "tb", "tc", "td"}),
    other=frozenset({"alpha", "beta", "gamma", "delta"}),
)
_LABELS = sorted(GEN_ALPHABET.places | GEN_ALPHABET.transitions | GEN_ALPHABET.other)


def random_module(
    rng: random.Random,
    tag: str,
    *,
    max_nodes: int = 12,
    max_slots_per_side: int = 4,
    shared_interfaces: bool = True,
    name: str | None = None,
) -> Module:
    """One random well-formed module whose atoms live under `tag`.

    Interfaces draw up to `max_slots_per_side` slots each; with
    `shared_interfaces` a node may sit in both interfaces, without it the two
    sides are node-disjoint (the domain where closure's no-shared-label fact
    holds).  Modules built under different tags are atom-disjoint.
    """
    n = rng.randint(1, max_nodes)
    nodes = []
    for i in range(n):
        label = rng.choice(_LABELS)
        nodes.append(Node(NodeId.single(tag, f"n{i}"), label, GEN_ALPHABET.kind_of(label)))
    ids = [node.id for node in nodes]

    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        edges.add((rng.choice(ids), rng.choice(ids)))

    k_left = rng.randint(0, min(max_slots_per_side, n))
    left = rng.sample(ids, k_left)
    if shared_interfaces:
        pool = ids
    else:
        pool = [nid for nid in ids if nid not in left]
    k_right = rng.randint(0, min(max_slots_per_side, len(pool)))
    right = rng.sample(pool, k_right)

    marking = {}
    for node in nodes:
        if node.kind is Kind.PLACE and rng.random() < 0.3:
            marking[node.id] = rng.randint(1, 3)

    return Module(nodes, edges, left, right, marking, name)


def random_net(
    rng: random.Random,
    tag: str,
    *,
    max_transitions: int = 15,
    max_places: int = 20,
) -> NetView:
    """One random net without isolated elements and with a small random marking."""
    n_places = rng.randint(1, max_places)
    n_trans = rng.randint(1, max_transitions)
    places = [NodeId.single(tag, f"p{i}") for i in range(n_places)]
    transitions = [NodeId.single(tag, f"t{i}") for i in range(n_trans)]

    flow: set[tuple[NodeId, NodeId]] = set()
    for t in transitions:
        for p in rng.sample(places, min(len(places), rng.randint(1, 3))):
            flow.add((p, t))
        for p in rng.sample(places, min(len(places), rng.randint(0, 3))):
            flow.add((t, p))

    touched = {p for edge in flow for p in edge}
    for p in places:
        if p not in touched:
            t = rng.choice(transitions)
            flow.add((p, t) if rng.random() < 0.5 else (t, p))

    marking = {p: rng.randint(1, 2) for p in places if rng.random() < 0.4}
    return NetView(frozenset(places), frozenset(transitions), frozenset(flow), marking)
