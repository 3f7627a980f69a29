"""Viewing modules as place/transition nets and factorizing nets into transition atoms."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Collection, Mapping

from .core import Kind, Module, Node, NodeId, _adjacency, compose
from .errors import AbstractNodePresent, IsolatedElement, NotBipartite, UnknownTransition
from .iso import IsoOptions, IsoWitness, isomorphic

__all__ = ["NetView", "Factorization", "validate_net", "net_to_module", "transition_atom", "factorize"]


@dataclass(frozen=True)
class NetView:
    """A module's content read as a net: places, transitions, flow, tokens.

    Every flow edge joins a place and a transition.  The token game, PNML
    export and `factorize` read one numbering, built on first use."""

    places: frozenset[NodeId]
    transitions: frozenset[NodeId]
    flow: frozenset[tuple[NodeId, NodeId]]
    marking: Mapping[NodeId, int] = field(default_factory=dict)

    @cached_property
    def _numbering(self) -> tuple[tuple[NodeId, ...], dict[NodeId, int], tuple[tuple[int, ...], ...],
                                  tuple[tuple[int, ...], ...]]:
        """The places sorted; the transitions sorted, each to its position;
        per transition, the positions of its pre- and post-places among the
        places.  No list per node is kept, so a cached view stays small."""
        places, transitions = tuple(sorted(self.places)), sorted(self.transitions)
        index = {nid: i for i, nid in enumerate(chain(places, transitions))}
        out, inn = _adjacency(index, self.flow, len(index))
        return (places, {t: k for k, t in enumerate(transitions)},
                tuple(map(tuple, inn[len(places):])), tuple(map(tuple, out[len(places):])))

    def pre(self, t: NodeId) -> frozenset[NodeId]:
        """The places feeding transition t."""
        places, _, pre, _ = self._numbering
        return frozenset([places[p] for p in pre[self._number(t)]])

    def post(self, t: NodeId) -> frozenset[NodeId]:
        """The places transition t feeds."""
        places, _, _, post = self._numbering
        return frozenset([places[p] for p in post[self._number(t)]])

    def _number(self, t: NodeId) -> int:
        """Transition t's position among the sorted transitions."""
        k = self._numbering[1].get(t)
        if k is None:
            raise UnknownTransition(f"{t} is not a transition of this net")
        return k


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
    places, transitions, _, _ = n._numbering
    nodes = [Node(p, str(p), Kind.PLACE) for p in places]
    nodes += [Node(t, str(t), Kind.TRANSITION) for t in transitions]
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
    places, transitions, pre, post = n._numbering
    linked = set(chain(*pre, *post))  # the places on some arc
    isolated = [p for i, p in enumerate(places) if i not in linked]
    isolated += [t for t, ps, qs in zip(transitions, pre, post) if not ps and not qs]
    if isolated:
        raise IsolatedElement(isolated)

    atoms = tuple(_atom(t, [places[p] for p in ps], [places[p] for p in qs], f"f{k}")
                  for k, (t, ps, qs) in enumerate(zip(transitions, pre, post), start=1))
    recomposed = compose(*atoms)
    reference = net_to_module(n)
    witness = isomorphic(recomposed, reference, IsoOptions())
    return Factorization(atoms, recomposed, reference, witness is not None, witness)
