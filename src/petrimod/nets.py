"""Viewing modules as place/transition nets and factorizing nets into transition atoms."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Mapping

from .core import Kind, Module, Node, NodeId, compose
from .errors import AbstractNodePresent, IsolatedElement, NotBipartite, UnknownTransition
from .iso import IsoOptions, IsoWitness, isomorphic

__all__ = ["NetView", "Factorization", "adjacency", "validate_net", "net_to_module", "transition_atom", "factorize"]


@dataclass(frozen=True)
class NetView:
    """A module's content read as a net: places, transitions, flow, tokens."""

    places: frozenset[NodeId]
    transitions: frozenset[NodeId]
    flow: frozenset[tuple[NodeId, NodeId]]
    marking: Mapping[NodeId, int] = field(default_factory=dict)

    @cached_property
    def _adjacency(self) -> tuple[Mapping[NodeId, tuple[NodeId, ...]], Mapping[NodeId, tuple[NodeId, ...]]]:
        # one pass over the flow, on first use; tuples keep a cached view small
        pre: dict[NodeId, list[NodeId]] = {t: [] for t in self.transitions}
        post: dict[NodeId, list[NodeId]] = {t: [] for t in self.transitions}
        for s, d in self.flow:
            if d in pre:
                pre[d].append(s)
            if s in post:
                post[s].append(d)
        return (MappingProxyType({t: tuple(ps) for t, ps in pre.items()}),
                MappingProxyType({t: tuple(ps) for t, ps in post.items()}))

    def pre(self, t: NodeId) -> frozenset[NodeId]:
        """The places feeding transition t."""
        return frozenset(self._transition(t, 0))

    def post(self, t: NodeId) -> frozenset[NodeId]:
        """The places transition t feeds."""
        return frozenset(self._transition(t, 1))

    def _transition(self, t: NodeId, side: int) -> tuple[NodeId, ...]:
        try:
            return self._adjacency[side][t]
        except KeyError:
            raise UnknownTransition(f"{t} is not a transition of this net") from None


def adjacency(n: NetView) -> tuple[Mapping[NodeId, tuple[NodeId, ...]], Mapping[NodeId, tuple[NodeId, ...]]]:
    """Pre- and post-places of every transition, each without repeats.

    Built once per net view and shared by `NetView.pre`/`post`, the token
    game and `factorize`.
    """
    return n._adjacency


def validate_net(a: Module) -> NetView:
    """Check that every node is a place or transition and every edge crosses kinds."""
    offenders = sorted(nid for nid, node in a.nodes.items() if node.kind is Kind.ABSTRACT)
    if offenders:
        raise AbstractNodePresent(offenders)
    bad = sorted((s, d) for s, d in a.edges if a.kind_of(s) is a.kind_of(d))
    if bad:
        raise NotBipartite(bad)
    return NetView(
        places=frozenset(nid for nid, n in a.nodes.items() if n.kind is Kind.PLACE),
        transitions=frozenset(nid for nid, n in a.nodes.items() if n.kind is Kind.TRANSITION),
        flow=a.edges,
        marking=dict(a.marking),
    )


def net_to_module(n: NetView) -> Module:
    """The monolithic module of a net: every place on both interfaces, identity labels."""
    nodes = [Node(p, str(p), Kind.PLACE) for p in n.places]
    nodes += [Node(t, str(t), Kind.TRANSITION) for t in n.transitions]
    places = tuple(sorted(n.places))
    return Module(nodes, n.flow, places, places, dict(n.marking))


def transition_atom(n: NetView, t: NodeId) -> Module:
    """The atomic module of one transition: its surrounding places on both interfaces.

    Places keep their net identity as labels, so equally named places of two
    atoms merge when the atoms are composed.  Markings are structural noise
    here and are left out.
    """
    return _atom(t, n.pre(t), n.post(t))


def _atom(t: NodeId, pre: Collection[NodeId], post: Collection[NodeId], tag: str | None = None) -> Module:
    """The atom of `t`; with a `tag`, its node ids are minted retagged under
    `tag`, so the atom is ready to compose with atoms of other tags."""
    ring = tuple(sorted({*pre, *post}))
    if not ring:
        raise IsolatedElement([t], f"transition {t} has no surrounding places")
    mint = {nid: nid if tag is None else nid.retagged(tag) for nid in (t, *ring)}
    nodes = [Node(mint[t], str(t), Kind.TRANSITION)]
    nodes += [Node(mint[p], str(p), Kind.PLACE) for p in ring]
    edges = {(mint[p], mint[t]) for p in pre} | {(mint[t], mint[p]) for p in post}
    places = [mint[p] for p in ring]
    return Module(nodes, edges, places, places)


@dataclass(frozen=True)
class Factorization:
    """Transition atoms of a net plus the outcome of recomposing them.

    `atoms` are the modules that were composed, in canonical transition
    order: the i-th (from 1) has every atom instance tagged `f{i}/`, so the
    atoms are pairwise atom-disjoint and their ids are not the net's.  Their
    labels are the net ids' text.
    """

    atoms: tuple[Module, ...]
    recomposed: Module
    reference: Module
    matches: bool
    witness: IsoWitness | None


def factorize(n: NetView) -> Factorization:
    """Split a net into its transition atoms and check they compose back to it.

    Atoms are ordered by canonical transition id.  Composition operands must
    be atom-disjoint while the atoms share places, so the i-th atom is built
    under the instance tag `f{i}/`; identity labels then merge shared places
    back together.  The result is compared against the net's monolithic
    module up to isomorphism, which is the right equivalence because merged
    copies carry union identities.  With identity labels no start key
    repeats, so `isomorphic` replays the one mapping the labels allow and
    runs no search.
    """
    pre, post = adjacency(n)
    isolated = sorted(n.places - {p for e in n.flow for p in e})
    isolated += sorted(t for t in n.transitions if not pre[t] and not post[t])
    if isolated:
        raise IsolatedElement(isolated)

    atoms = tuple(_atom(t, pre[t], post[t], f"f{i}") for i, t in enumerate(sorted(n.transitions), start=1))
    recomposed = compose(*atoms)
    reference = net_to_module(n)
    witness = isomorphic(recomposed, reference, IsoOptions())
    return Factorization(atoms, recomposed, reference, witness is not None, witness)
