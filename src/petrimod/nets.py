"""Viewing modules as place/transition nets and factorizing nets into transition atoms."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Collection, Iterator, Mapping

from .core import (Interface, Kind, Module, Node, NodeId, _ID_KEY, _adjacency, _mint_atom, _mint_id, _mint_node,
                   compose)
from .errors import AbstractNodePresent, IsolatedElement, MalformedModule, NotBipartite, UnknownTransition
from .iso import IsoOptions, IsoWitness, isomorphic

__all__ = ["NetView", "Factorization", "validate_net", "net_to_module", "transition_atom", "factorize"]


def _edge_key(edge: tuple[NodeId, NodeId]) -> tuple:
    """The sort key that orders arcs as `sorted` orders (src, dst) pairs of ids."""
    return edge[0].key, edge[1].key


@dataclass(frozen=True)
class NetView:
    """A module's content read as a net: places, transitions, flow, tokens.

    Every flow edge joins a place and a transition.  The token game, PNML
    export and `factorize` read one numbering, built on first use; building
    it refuses a hand-built view that breaks this: a node that is both a
    place and a transition or an arc to a node of neither (`MalformedModule`),
    an arc between two places or two transitions (`NotBipartite`)."""

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
        places, transitions = tuple(sorted(self.places, key=_ID_KEY)), sorted(self.transitions, key=_ID_KEY)
        index = {nid: i for i, nid in enumerate(chain(places, transitions))}
        if len(index) != len(places) + len(transitions):
            both = min(self.places & self.transitions, key=_ID_KEY)
            raise MalformedModule(f"{both} is both a place and a transition")
        try:
            out, inn = _adjacency(index, self.flow, len(index))
        except KeyError:
            s, d = min((e for e in self.flow if e[0] not in index or e[1] not in index), key=_edge_key)
            raise MalformedModule(f"arc ({s}, {d}) references a node that is neither place nor transition") from None
        n = len(places)
        # an arc from a place ends at a transition (position n or more), one from a transition at a place
        if min(chain.from_iterable(out[:n]), default=n) < n or max(chain.from_iterable(out[n:]), default=-1) >= n:
            raise NotBipartite(sorted(((s, d) for s, d in self.flow if (index[s] < n) is (index[d] < n)),
                                      key=_edge_key))
        return places, {t: k for k, t in enumerate(transitions)}, tuple(map(tuple, inn[n:])), tuple(map(tuple, out[n:]))

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
    """Check that every node is a place or transition and every edge crosses kinds.

    Abstract nodes raise `AbstractNodePresent`.  Arcs between equal kinds
    are found by the view's own rule: its numbering is built here, so
    `NotBipartite` is raised at this call and the view comes back numbered.
    """
    offenders = sorted((nid for nid, node in a.nodes.items() if node.kind is Kind.ABSTRACT), key=_ID_KEY)
    if offenders:
        raise AbstractNodePresent(offenders)
    view = NetView(
        places=frozenset(nid for nid, n in a.nodes.items() if n.kind is Kind.PLACE),
        transitions=frozenset(nid for nid, n in a.nodes.items() if n.kind is Kind.TRANSITION),
        flow=a.edges,
        marking=dict(a.marking),
    )
    view._numbering
    return view


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
    pre, post = n.pre(t), n.post(t)
    ring = tuple(sorted(pre | post, key=_ID_KEY))
    if not ring:
        raise IsolatedElement([t], f"transition {t} has no surrounding places")
    nodes = [Node(t, str(t), Kind.TRANSITION)]
    nodes += [Node(p, str(p), Kind.PLACE) for p in ring]
    edges = {(p, t) for p in pre} | {(t, p) for p in post}
    return Module(nodes, edges, ring, ring)


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

    The net is checked once, by building that monolithic module with
    `net_to_module`, before any atom: a view it refuses is refused here
    with the same error.  Each atom is then `transition_atom(n, t)`
    retagged under `f{i}`, minted trusted straight from the view's
    numbering: its ring is the sorted positions of its places, its ids are
    minted from the net ids' `key` with no check per atom, its labels are
    the reference's, one text per net node, and one `Interface` is both of
    its sides.  It is well formed because the reference is.
    """
    places, transitions, pre, post = n._numbering
    linked = set(chain(*pre, *post))  # the places on some arc
    isolated = [p for i, p in enumerate(places) if i not in linked]
    isolated += [t for t, ps, qs in zip(transitions, pre, post) if not ps and not qs]
    if isolated:
        raise IsolatedElement(isolated)

    reference = net_to_module(n)
    labels = [node.label for node in reference.nodes.values()]  # the places' texts, then the transitions'
    atoms = tuple(_minted_atoms(places, transitions, pre, post, labels))
    recomposed = compose(*atoms)
    witness = isomorphic(recomposed, reference, IsoOptions())
    return Factorization(atoms, recomposed, reference, witness is not None, witness)


def _minted_atoms(places: tuple[NodeId, ...], transitions: Collection[NodeId], pre: tuple[tuple[int, ...], ...],
                  post: tuple[tuple[int, ...], ...], labels: list[str]) -> Iterator[Module]:
    """`transition_atom(n, t).retagged(f"f{k}")` for the k-th transition t
    (from 1), built trusted from a numbering whose net `net_to_module`
    accepted; `labels` are that module's labels, in its node order."""
    place, transition = Kind.PLACE, Kind.TRANSITION
    steps = zip(transitions, labels[len(places):], pre, post)
    for k, (t, label, ps, qs) in enumerate(steps, start=1):
        tag = f"f{k}/"
        tid = _mint_id([_mint_atom(tag + instance, name) for instance, name in t.key])
        nodes = {tid: _mint_node(tid, label, transition)}
        mint = {}
        for p in sorted({*ps, *qs}):
            mint[p] = pid = _mint_id([_mint_atom(tag + instance, name) for instance, name in places[p].key])
            nodes[pid] = _mint_node(pid, labels[p], place)
        edges = frozenset([(mint[p], tid) for p in ps] + [(tid, mint[q]) for q in qs])
        side = Interface(tuple(mint.values()))
        yield Module._trusted(nodes, edges, side, side, {}, None)
