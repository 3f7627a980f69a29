"""Directed labeled graphs with ordered interfaces and the algebra that glues them.

A Module is a directed graph whose nodes carry a label and a kind, plus two
ordered interfaces (left and right) referencing some of its nodes.  Equally
labeled interface slots are numbered 1..n by their position in the slot
sequence; these per-label indices are always derived from the order and are
never stored.  Composition merges index-matched slot pairs of the left
operand's right interface with the right operand's left interface; closure
does the same between a module's own two interfaces.

Node identity is an atom set.  Merging two nodes unions their atoms, so a
node produced by several merges in any grouping ends up with the same
identity, which is what makes composition associative as plain structural
equality rather than merely up to isomorphism.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    KindMismatch,
    MalformedModule,
    NonDisjointInterfaces,
    NonDisjointOperands,
    UnnamedModule,
)

__all__ = [
    "Kind",
    "Alphabet",
    "AtomicNodeId",
    "NodeId",
    "Node",
    "Interface",
    "HarmonicPair",
    "Module",
    "harmonic_pairs",
    "compose",
    "closure",
    "abstract_of",
    "empty_module",
    "is_monolithic",
    "seam",
    "verify_well_formed",
]


class Kind(Enum):
    """What a node is: net place, net transition, or anything else."""

    PLACE = "place"
    TRANSITION = "transition"
    ABSTRACT = "abstract"


@dataclass(frozen=True)
class Alphabet:
    """Label universe split into place labels, transition labels, and the rest."""

    places: frozenset[str] = frozenset()
    transitions: frozenset[str] = frozenset()
    other: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "places", frozenset(self.places))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "other", frozenset(self.other))
        overlap = (self.places & self.transitions) | (self.places & self.other) | (self.transitions & self.other)
        if overlap:
            raise ValueError(f"labels declared in more than one group: {sorted(overlap)}")

    def __contains__(self, label: str) -> bool:
        return label in self.places or label in self.transitions or label in self.other

    def kind_of(self, label: str) -> Kind:
        if label in self.places:
            return Kind.PLACE
        if label in self.transitions:
            return Kind.TRANSITION
        return Kind.ABSTRACT


# Atom fields feed the canonical "instance:name" text form, so they must not
# contain the separator characters or whitespace.
_ATOM_FIELD = re.compile(r"[^\s:+]+\Z")


@dataclass(frozen=True, order=True, slots=True)
class AtomicNodeId:
    """Indivisible unit of node identity, minted once per instantiation."""

    instance: str
    name: str

    def __post_init__(self):
        for part in (self.instance, self.name):
            if not _ATOM_FIELD.match(part):
                raise MalformedModule(f"bad atom field {part!r}: must be non-empty, no whitespace, ':' or '+'")

    def __str__(self) -> str:
        return f"{self.instance}:{self.name}"


def _mint_atom(instance: str, name: str, _set_instance=AtomicNodeId.instance.__set__,
               _set_name=AtomicNodeId.name.__set__) -> AtomicNodeId:
    """An atom from fields already known to be valid, without `__post_init__`."""
    atom = object.__new__(AtomicNodeId)
    _set_instance(atom, instance)
    _set_name(atom, name)
    return atom


class NodeId(frozenset):
    """Node identity: a non-empty set of atoms, flattened across merges.

    Hashing and equality are the atom set's, computed in C, and the hash is
    cached in the object.  A NodeId's `==` is True only for another
    NodeId, but a mutable `set` on the left runs `set.__eq__` first, which
    accepts any frozenset subclass: `{atom} == NodeId.single(...)` is True.
    Compare ids with ids.  `<` and `>` order ids by `key`; `<=` and `>=` raise.
    """

    # `key`, the sorted (instance, name) pairs, is filled on first use by __getattr__
    __slots__ = ("key",)
    __hash__ = frozenset.__hash__
    __ne__ = object.__ne__  # the negation of __eq__
    __le__ = __ge__ = object.__le__  # NotImplemented, so TypeError

    def __new__(cls, atoms: Iterable[AtomicNodeId]):
        self = super().__new__(cls, atoms)
        if not self:
            raise MalformedModule("NodeId needs at least one atom")
        return self

    @property
    def atoms(self) -> frozenset[AtomicNodeId]:
        return self

    def __getattr__(self, name: str):
        if name != "key":
            raise AttributeError(name)
        self.key = key = tuple(sorted((a.instance, a.name) for a in self))
        return key

    @staticmethod
    def single(instance: str, name: str) -> "NodeId":
        return NodeId((AtomicNodeId(instance, name),))

    def merge(self, other: "NodeId") -> "NodeId":
        return NodeId(self | other)

    def retagged(self, prefix: str) -> "NodeId":
        """The same atoms with every instance namespaced under `prefix`."""
        if not _ATOM_FIELD.match(prefix):  # the checked constructor raises, or accepts an empty prefix
            return NodeId(AtomicNodeId(f"{prefix}/{a.instance}", a.name) for a in self)
        # `prefix/instance` is a valid field whenever both parts are, so skip re-matching each atom
        return NodeId(_mint_atom(f"{prefix}/{a.instance}", a.name) for a in self)

    def __eq__(self, other: object):
        if isinstance(other, NodeId):
            return frozenset.__eq__(self, other)
        return False if isinstance(other, (set, frozenset)) else NotImplemented

    def __lt__(self, other: "NodeId") -> bool:
        return self.key < other.key

    def __gt__(self, other: "NodeId") -> bool:
        return self.key > other.key

    def __str__(self) -> str:
        return "+".join(f"{i}:{n}" for i, n in self.key)

    def __repr__(self) -> str:
        return f"NodeId({self})"


@dataclass(frozen=True)
class Node:
    """A graph node: identity, label, kind."""

    id: NodeId
    label: str
    kind: Kind

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise MalformedModule(f"node {self.id}: label must be a non-empty string, got {self.label!r}")


@dataclass(frozen=True)
class Interface:
    """Ordered slot sequence; a node may fill at most one slot per interface."""

    slots: tuple[NodeId, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if len(set(self.slots)) != len(self.slots):
            raise MalformedModule("a node appears twice in one interface")

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __contains__(self, nid: object) -> bool:
        return nid in self.slots

    def __getitem__(self, i: int) -> NodeId:
        return self.slots[i]

    def indexed(self, label_of: Callable[[NodeId], str]) -> dict[NodeId, tuple[str, int]]:
        """Each slot's node to its label and derived per-label index (1..n
        top-down), in slot order."""
        seen: dict[str, int] = {}
        out = {}
        for nid in self.slots:
            label = label_of(nid)
            seen[label] = seen.get(label, 0) + 1
            out[nid] = label, seen[label]
        return out

    def labels(self, label_of: Callable[[NodeId], str]) -> tuple[str, ...]:
        return tuple(label_of(nid) for nid in self.slots)


@dataclass(frozen=True)
class HarmonicPair:
    """Index-matched, equally labeled slot pair ready to be merged."""

    left: NodeId  # slot from the first interface handed in
    right: NodeId  # slot from the second
    label: str
    index: int


def _pair_slots(xs: Interface, ys: Interface, label_of: Callable) -> list[tuple]:
    """The pairing rule: (label, index, x, y) for every slot x of `xs` and y
    of `ys` with equal label and equal per-label index, sorted by (label, index)."""
    by_key = {key: y for y, key in ys.indexed(label_of).items()}
    return sorted((*key, x, by_key[key]) for x, key in xs.indexed(label_of).items() if key in by_key)


def harmonic_pairs(
    r: Interface,
    s: Interface,
    label_of: Callable[[NodeId], str],
) -> tuple[HarmonicPair, ...]:
    """All pairs (x in r, y in s) with equal label and equal per-label index.

    The two interfaces must not share a node.
    """
    shared = set(r.slots) & set(s.slots)
    if shared:
        raise NonDisjointInterfaces(shared)
    return tuple(HarmonicPair(x, y, label, i) for label, i, x, y in _pair_slots(r, s, label_of))


class Module:
    """Immutable directed labeled graph with a left and a right interface.

    `nodes` maps NodeId to Node, `edges` is a set of (src, dst) NodeId pairs,
    `marking` holds positive token counts on places.  `Module(...)` validates
    every structural invariant.  The results of `compose`, `closure`,
    `with_name` and `retagged` are built trusted, through `_trusted`: their
    parts are valid modules already, so gluing checks only that the parts
    agree on one kind per label, `with_name` only the name and `retagged`
    only the prefix.  Instances are never mutated afterwards.
    """

    __slots__ = ("nodes", "edges", "left", "right", "marking", "name", "__weakref__", "_atoms", "_labels")

    def __init__(
        self,
        nodes: Iterable[Node] | Mapping[NodeId, Node] = (),
        edges: Iterable[tuple[NodeId, NodeId]] = (),
        left: Interface | Iterable[NodeId] = (),
        right: Interface | Iterable[NodeId] = (),
        marking: Mapping[NodeId, int] | None = None,
        name: str | None = None,
    ):
        if isinstance(nodes, Mapping):
            node_map = dict(nodes)
        else:
            node_map = {}
            for node in nodes:
                if node.id in node_map:
                    raise MalformedModule(f"node {node.id} defined twice")
                node_map[node.id] = node
        edge_set = frozenset((src, dst) for src, dst in edges)
        left_if = left if isinstance(left, Interface) else Interface(tuple(left))
        right_if = right if isinstance(right, Interface) else Interface(tuple(right))
        # an int zero is no token; anything else is kept for the checker to judge
        mark = {nid: count for nid, count in (marking or {}).items() if count or type(count) is not int}
        atoms = frozenset().union(*node_map)
        for problem in _problems(node_map, edge_set, left_if, right_if, mark, name, atoms):
            raise MalformedModule(problem)
        # the label table is derived on demand: storing it here costs memory on every module
        _fill(self, node_map, edge_set, left_if, right_if, mark, name, atoms, None)

    @classmethod
    def _trusted(cls, nodes: dict[NodeId, Node], edges: frozenset[tuple[NodeId, NodeId]],
                 left: Interface, right: Interface, marking: dict[NodeId, int], name: str | None,
                 atoms: frozenset[AtomicNodeId], labels: dict[str, Node] | None) -> "Module":
        """A module from parts known to be well formed, with no check at all.

        `atoms` is the union of the nodes' atom sets and `labels` maps each
        label to a node that carries it, in order of the label's first node,
        or is None to derive it on demand; only a node's label and kind are
        read from it.  Only `_glue`, `with_name` and `_reminted` build
        modules this way.
        """
        self = object.__new__(cls)
        _fill(self, nodes, edges, left, right, marking, name, atoms, labels)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Module is immutable")

    # -- lookups ------------------------------------------------------------

    def label_of(self, nid: NodeId) -> str:
        return self.nodes[nid].label

    def kind_of(self, nid: NodeId) -> Kind:
        return self.nodes[nid].kind

    def tokens(self, nid: NodeId) -> int:
        return self.marking.get(nid, 0)

    @property
    def atom_set(self) -> frozenset[AtomicNodeId]:
        return self._atoms

    def _node_per_label(self) -> dict[str, Node]:
        """Each label to a node that carries it, so to its kind, in order of
        the label's first node."""
        if self._labels is None:
            return {node.label: node for node in self.nodes.values()}
        return self._labels

    def interior(self) -> frozenset[NodeId]:
        """Nodes in no interface."""
        boundary = set(self.left) | set(self.right)
        return frozenset(nid for nid in self.nodes if nid not in boundary)

    def is_empty(self) -> bool:
        return not self.nodes

    # -- derived copies -------------------------------------------------------

    def with_name(self, name: str | None) -> "Module":
        """A copy under another name; only the name is checked."""
        problem = _name_problem(name)
        if problem:
            raise MalformedModule(problem)
        return Module._trusted(dict(self.nodes), self.edges, self.left, self.right, dict(self.marking), name,
                               self._atoms, self._labels)

    def retagged(self, prefix: str) -> "Module":
        """Fresh copy whose every atom instance is namespaced under `prefix`.

        Labels, kinds, structure and markings are untouched, so the copy is
        isomorphic to the original but atom-disjoint from it.
        """
        if self.nodes and not _ATOM_FIELD.match(prefix):
            # an invalid prefix raises here as the atom would; an empty one gives valid `/instance` fields
            next(iter(self.nodes)).retagged(prefix)
        return self._reminted(f"{prefix}/{{}}".format)

    def _reminted(self, instance_of: Callable[[str], str]) -> "Module":
        """A copy with every atom's instance mapped through `instance_of`,
        built trusted: one remap per atom and no check.

        `instance_of` must map valid instance fields to valid ones and
        distinct instances to distinct ones, so the copy is well formed
        because this module is.  Node, edge, slot, marking and label order
        are kept.  Behind `retagged` and the `.hkl` evaluator's re-minting.
        """
        remap = {nid: NodeId([_mint_atom(instance_of(a.instance), a.name) for a in nid]) for nid in self.nodes}
        nodes = {remap[nid]: Node(remap[nid], node.label, node.kind) for nid, node in self.nodes.items()}
        get = remap.__getitem__
        return Module._trusted(
            nodes, frozenset([(get(s), get(d)) for s, d in self.edges]),
            Interface(tuple(map(get, self.left))), Interface(tuple(map(get, self.right))),
            {get(nid): count for nid, count in self.marking.items()}, self.name,
            frozenset().union(*nodes), self._labels)

    def __repr__(self) -> str:
        name = self.name or "<anon>"
        return f"<Module {name}: {len(self.nodes)} nodes, {len(self.edges)} edges, L{len(self.left)}/R{len(self.right)}>"


def _fill(m: Module, nodes, edges, left, right, marking, name, atoms, labels) -> None:
    """Set a new module's slots, past its refusing `__setattr__`."""
    set_ = object.__setattr__
    set_(m, "nodes", nodes)
    set_(m, "edges", edges)
    set_(m, "left", left)
    set_(m, "right", right)
    set_(m, "marking", marking)
    set_(m, "name", name)
    set_(m, "_atoms", atoms)
    set_(m, "_labels", labels)


def empty_module() -> Module:
    """The neutral element: no nodes, no edges, empty interfaces."""
    return Module()


def is_monolithic(a: Module) -> bool:
    """True when both interfaces reference exactly the same node set."""
    return set(a.left) == set(a.right)


def _glue(parts: Sequence[Module], cls: Mapping[NodeId, NodeId],
          left: Iterable[NodeId], right: Iterable[NodeId]) -> Module:
    """Build the module of `parts` with the nodes of each class merged into one.

    The one merge-and-rebuild behind `compose` and `closure`.  `cls` maps
    every merged node to a key its whole class shares, and the members of a
    class share label and kind; `left` and `right` are the result's
    interfaces in unmerged node ids.  A merged node takes the union of its
    members' atoms, the sum of their tokens and the place of its first
    member in part order.  The parts are valid modules with disjoint atoms
    and the edges, slots and marking go through the same class map as the
    nodes, so the result is built trusted: the only check is that the parts
    agree on one kind per label, with `_problems`' message for a clash.
    """
    members: dict[NodeId, list[NodeId]] = {}
    for nid, key in cls.items():
        members.setdefault(key, []).append(nid)
    target = {key: NodeId(frozenset().union(*group)) for key, group in members.items()}
    mp = {nid: target[key] for nid, key in cls.items()}.get
    labels = _glued_labels(parts)

    # a merged class keeps its first member's position; its Node is replaced below
    node_maps = [part.nodes for part in parts]
    nodes = dict(zip(map(mp, chain(*node_maps), chain(*node_maps)), chain.from_iterable(m.values() for m in node_maps)))
    for nid in target.values():
        node = nodes[nid]
        nodes[nid] = Node(nid, node.label, node.kind)

    # one pass per arc: measured faster than mapping the ends apart and zipping them back
    if cls:
        edges = frozenset([(mp(s, s), mp(d, d)) for part in parts for s, d in part.edges])
    else:
        edges = frozenset().union(*(part.edges for part in parts))

    marking: dict[NodeId, int] = {}
    for part in parts:
        for nid, count in part.marking.items():
            key = mp(nid, nid)
            marking[key] = marking.get(key, 0) + count

    atoms = frozenset().union(*(part.atom_set for part in parts))
    return Module._trusted(nodes, edges, Interface(tuple(map(mp, left, left))),
                           Interface(tuple(map(mp, right, right))), marking, None, atoms, labels)


def _glued_labels(parts: Sequence[Module]) -> dict[str, Node]:
    """The label table of `parts` glued in order, each label at its first
    part; raises `MalformedModule` on the first label that a part gives
    another kind than the parts before it."""
    labels = dict(parts[0]._node_per_label()) if parts else {}
    for problem in _kind_clashes(labels, chain.from_iterable(part._node_per_label().values() for part in parts[1:])):
        raise MalformedModule(problem)
    return labels


def compose(*parts: Module) -> Module:
    """Glue modules left to right: `compose(a, b, c)` is `compose(compose(a, b), c)`.

    Composing `a` with `b` merges the harmonic pairs of a's right and b's
    left interface.  The operands must have disjoint atom sets.  Merged
    nodes take the union of their atoms and the sum of their tokens.  The
    result's left interface is a's left interface (merge-mapped) followed by
    b's unmatched left slots in order; the right interface is b's right
    interface followed by a's unmatched right slots.  With per-label indices
    derived from slot order, the appended leftovers land exactly at index
    p + n - m, where p counts the label on the kept side, n is the
    leftover's old index and m the number of merged pairs of that label.
    Composition is total: without any harmonic pair it degrades to a
    disjoint union with concatenated interfaces.  No parts give the empty
    module.  Only the interfaces are folded and the result is built once;
    errors come in the fold's order.  The chain's right slots are kept in
    one deque per label, index 1 first, so a step costs the size of its part.
    """
    atoms: set[AtomicNodeId] = set()
    cls: dict[NodeId, NodeId] = {}  # merged node -> first member of its class
    chain: dict[str, deque[Node]] = {}  # the chain's right slots by label, in slot order
    paired_left: set[NodeId] = set()
    paired_right: set[NodeId] = set()
    for k, part in enumerate(parts):
        pairs = []
        try:
            shared = atoms.intersection(part.atom_set)
            if shared:
                raise NonDisjointOperands(shared)
            for nid, (label, i) in sorted(part.left.indexed(part.label_of).items(), key=itemgetter(1)):
                if chain.get(label):  # entry i of the label's deque, at the front once 1..i-1 are popped
                    x, y = chain[label].popleft(), part.nodes[nid]
                    if x.kind is not y.kind:
                        raise KindMismatch(f"pair {label!r}@{i} merges {x.kind.value} with {y.kind.value}")
                    pairs.append((x.id, y.id))
        except (NonDisjointOperands, KindMismatch):
            # the binary fold would have built, and so checked, the chain so far
            _glued_labels(parts[:k])
            raise
        atoms |= part.atom_set
        for x, y in pairs:
            cls[y] = cls.setdefault(x, x)
            paired_right.add(x)
            paired_left.add(y)
        for nid in reversed(part.right.slots):
            node = part.nodes[nid]
            chain.setdefault(node.label, deque()).appendleft(node)
    left = [nid for part in parts for nid in part.left if nid not in paired_left]
    right = [nid for part in reversed(parts) for nid in part.right if nid not in paired_right]
    return _glue(parts, cls, left, right)


def closure(a: Module) -> Module:
    """Merge the harmonic pairs of a's own right and left interface.

    A node sitting at the same label and index in both interfaces is its own
    counterpart; such a slot is left alone (nothing to merge with) and the
    node stays in both interfaces.  Distinct-node pairs merge; because one
    node can be the partner of one slot and the occupant of another, merges
    may chain, so the merge classes are computed with union-find.  Closure is
    total and idempotent.
    """
    pairs = [(r, l) for _, _, r, l in _pair_slots(a.right, a.left, a.label_of) if r != l]

    parent: dict[NodeId, NodeId] = {}

    def find(x: NodeId) -> NodeId:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for r, l in pairs:
        parent.setdefault(r, r)
        parent.setdefault(l, l)
        parent[find(r)] = find(l)

    dropped_left = {l for _, l in pairs}
    dropped_right = {r for r, _ in pairs}
    return _glue(
        (a,),
        {nid: find(nid) for nid in parent},
        [n for n in a.left if n not in dropped_left],
        [n for n in a.right if n not in dropped_right],
    )


def abstract_of(a: Module) -> Module:
    """Collapse a module to one abstract core node behind its own interfaces.

    The core is labeled with the module's name; every left slot gets an edge
    into the core and every right slot an edge out of it.  Interface slots,
    their order and their markings are kept, interior structure is dropped.
    The core's atom is derived from the module's atom listing, so equal
    modules abstract to the identical result.
    """
    if not a.name:
        raise UnnamedModule("abstraction needs a named module")
    listing = "\n".join(sorted(str(nid) for nid in a.nodes))
    digest = hashlib.sha1(f"{a.name}\n{listing}".encode()).hexdigest()[:12]
    core = NodeId.single(f"abstr.{digest}", a.name)

    boundary = set(a.left) | set(a.right)
    nodes = [Node(core, a.name, Kind.ABSTRACT)]
    nodes += [a.nodes[nid] for nid in a.nodes if nid in boundary]
    edges = {(nid, core) for nid in a.left} | {(core, nid) for nid in a.right}
    marking = {nid: c for nid, c in a.marking.items() if nid in boundary}
    return Module(nodes, edges, a.left, a.right, marking, a.name)


def seam(parts: Iterable[Module]) -> Module:
    """Compose the abstract versions of the given modules, in order."""
    return compose(*map(abstract_of, parts))


def _problems(
    nodes: Mapping[NodeId, Node],
    edges: Iterable[tuple[NodeId, NodeId]],
    left: Interface,
    right: Interface,
    marking: Mapping[NodeId, int],
    name: object,
    atoms: frozenset[AtomicNodeId],
) -> Iterator[str]:
    """Every structural violation of a module's parts, in a fixed order;
    `atoms` is the union of the nodes' atom sets.

    The one checker behind both `Module(...)` and `verify_well_formed`.
    Invariants that `Node`, `NodeId` and `Interface` enforce when they are
    built (non-empty string labels, non-empty atom sets, no repeated slot)
    are not checked again, and per-label indices need no check because
    `Interface.indexed` derives them by counting.  `_glue` checks its
    results with the one-kind-per-label rule alone, `_kind_clashes`.
    """
    for nid, node in nodes.items():
        if node.id is not nid and node.id != nid:  # identity first: `!=` runs NodeId.__eq__
            yield f"node map key {nid} != node id {node.id}"
    yield from _kind_clashes({}, nodes.values())
    if sum(map(len, nodes)) != len(atoms):
        yield "distinct nodes share atoms"

    for src, dst in edges:
        if src not in nodes or dst not in nodes:
            yield f"edge ({src}, {dst}) references unknown node"

    for side_name, side in (("left", left), ("right", right)):
        for nid in side:
            if nid not in nodes:
                yield f"{side_name} interface references unknown node {nid}"

    for nid, count in marking.items():
        if nid not in nodes:
            yield f"marking on unknown node {nid}"
        elif nodes[nid].kind is not Kind.PLACE:
            yield f"marking on non-place node {nid}"
        if type(count) is not int or count < 0:  # bool is an int subclass but not a count
            yield f"{nid}: tokens must be a non-negative integer, got {count!r}"

    problem = _name_problem(name)
    if problem:
        yield problem


def _kind_clashes(first: dict[str, Node], nodes: Iterable[Node]) -> Iterator[str]:
    """The one-kind-per-label rule.  Enters each node into `first`, which
    keeps the first node seen per label, and reports every later node whose
    kind differs from that node's."""
    for node in nodes:
        prev = first.setdefault(node.label, node).kind
        if prev is not node.kind:
            yield f"label {node.label!r} used with kinds {prev.value} and {node.kind.value}"


def _name_problem(name: object) -> str | None:
    if name is not None and not isinstance(name, str):
        return f"name must be a string or None, got {name!r}"
    return None


def verify_well_formed(a: Module) -> list[str]:
    """Re-run the construction checker over a module's public surface.

    Returns every violation as a human-readable line, empty when the module
    is well formed.  `Module(...)` raises on the first of the same problems;
    this sweep exists so outputs of every operation, and modules whose
    `nodes` or `marking` dict was changed after construction, can be
    checked independently.
    """
    return list(_problems(a.nodes, a.edges, a.left, a.right, a.marking, a.name, frozenset().union(*a.nodes)))
