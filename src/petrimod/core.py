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
from operator import attrgetter, itemgetter
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

    The package itself never orders ids through `<`: every sort it makes
    passes `_ID_KEY` as `key=`, so two ids compare as their cached `key`
    tuples, in C, or it sorts int positions in an order already made that
    way.  `<` and `>` stay for callers.
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


# the sort key of node ids: `sorted(ids, key=_ID_KEY)` is `sorted(ids)` with no Python-level compare
_ID_KEY = attrgetter("key")


def _mint_id(atoms: Iterable[AtomicNodeId], _new=frozenset.__new__) -> NodeId:
    """A NodeId of atoms known to be valid and non-empty, without `NodeId.__new__`."""
    return _new(NodeId, atoms)


@dataclass(frozen=True)
class Node:
    """A graph node: identity, label, kind."""

    id: NodeId
    label: str
    kind: Kind

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise MalformedModule(f"node {self.id}: label must be a non-empty string, got {self.label!r}")


def _mint_node(nid: NodeId, label: str, kind: Kind, _new=object.__new__, _set=object.__setattr__) -> Node:
    """A Node whose label is known to be a non-empty string, without `__post_init__`."""
    node = _new(Node)
    _set(node, "id", nid)
    _set(node, "label", label)
    _set(node, "kind", kind)
    return node


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
    only the prefix.  A `compose` result is built on first read: until
    `nodes`, `edges`, `marking`, `left` or `right` is read it is an
    `_Unread` module that holds only its name and a record of what it is
    made of (`_pending`), and that read fills the five slots, through
    `_Unread.__getattr__`, with one glue of all the built modules below it.
    A built module, however it was made, holds exactly its parts: nodes,
    edges, interfaces, marking and name.  Its atom set is the union of its
    node ids, derived by `atom_set` on each read.  Instances never change
    what they show afterwards.
    """

    __slots__ = ("nodes", "edges", "left", "right", "marking", "name", "__weakref__", "_pending")

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
        for problem in _problems(node_map, edge_set, left_if, right_if, mark, name):
            raise MalformedModule(problem)
        _fill(self, node_map, edge_set, left_if, right_if, mark, name)

    @classmethod
    def _trusted(cls, nodes: dict[NodeId, Node], edges: frozenset[tuple[NodeId, NodeId]],
                 left: Interface, right: Interface, marking: dict[NodeId, int], name: str | None) -> "Module":
        """A module from parts known to be well formed, with no check at all.

        Only `closure`, `with_name`, `_reminted` and the atoms of
        `nets.factorize` build modules this way; the first read of a
        `compose` result fills its slots through the same `_fill`.
        """
        self = object.__new__(cls)
        _fill(self, nodes, edges, left, right, marking, name)
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
        """The union of the node ids, a new set on each read."""
        return frozenset().union(*self.nodes)

    def _node_per_label(self) -> dict[str, Node]:
        """A new table of each label to a node that carries it, so to its
        kind, in order of the label's first node."""
        return {node.label: node for node in self.nodes.values()}

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
        return Module._trusted(dict(self.nodes), self.edges, self.left, self.right, dict(self.marking), name)

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
            {get(nid): count for nid, count in self.marking.items()}, self.name)

    def __repr__(self) -> str:
        name = self.name or "<anon>"
        return f"<Module {name}: {len(self.nodes)} nodes, {len(self.edges)} edges, L{len(self.left)}/R{len(self.right)}>"


def _fill(m: Module, nodes, edges, left, right, marking, name) -> None:
    """Set a built module's slots, past its refusing `__setattr__`: the one
    slot filler, for checked, trusted and first-read modules alike.  The
    parts and the name are all it holds; nothing derived is stored."""
    set_ = object.__setattr__
    set_(m, "nodes", nodes)
    set_(m, "edges", edges)
    set_(m, "left", left)
    set_(m, "right", right)
    set_(m, "marking", marking)
    set_(m, "name", name)
    set_(m, "_pending", None)


def empty_module() -> Module:
    """The neutral element: no nodes, no edges, empty interfaces."""
    return Module()


def is_monolithic(a: Module) -> bool:
    """True when both interfaces reference exactly the same node set."""
    return set(a.left) == set(a.right)


def _glue(parts: list[Module], cls: Mapping[NodeId, NodeId]) -> tuple:
    """The nodes, edges and marking of `parts` with the nodes of each class
    merged into one, and the map from a node id to its merged id.

    The one merge-and-rebuild behind `compose` and `closure`.  `cls` maps
    every merged node to a key its whole class shares, and the members of a
    class share label and kind.  A merged node takes the union of its
    members' atoms, the sum of their tokens and the place of its first
    member in part order.  The parts are valid modules with disjoint atoms
    that agree on one kind per label, and the edges and marking go through
    the same class map as the nodes, so the caller builds its result
    trusted, with no check at all.  `parts` is emptied part by part, so a
    part that nothing else holds is freed as soon as it is glued.
    """
    members: dict[NodeId, list[NodeId]] = {}
    for nid, key in cls.items():
        members.setdefault(key, []).append(nid)
    target = {key: NodeId(frozenset().union(*group)) for key, group in members.items()}
    mp = {nid: target[key] for nid, key in cls.items()}.get

    nodes: dict[NodeId, Node] = {}
    marking: dict[NodeId, int] = {}
    edges: list = []
    for i, part in enumerate(parts):
        parts[i] = None
        node_map = part.nodes
        if cls:
            # a merged class keeps its first member's position; its Node is replaced below
            nodes.update(zip(map(mp, node_map, node_map), node_map.values()))
            # one pass per arc: measured faster than mapping the ends apart and zipping them back
            edges += [(mp(s, s), mp(d, d)) for s, d in part.edges]
            for nid, count in part.marking.items():
                key = mp(nid, nid)
                marking[key] = marking.get(key, 0) + count
        else:  # a disjoint union: the part's own maps
            nodes.update(node_map)
            edges.append(part.edges)
            marking.update(part.marking)
    for nid in target.values():
        node = nodes[nid]
        nodes[nid] = Node(nid, node.label, node.kind)
    return nodes, frozenset(edges) if cls else frozenset().union(*edges), marking, mp


def _classes(pairs: Iterable[tuple[NodeId, NodeId]]) -> dict[NodeId, NodeId]:
    """Union-find: every node id in `pairs` to a key its whole class shares."""
    # every value stored is the key object of its own entry, so roots compare by identity;
    # the finds are inlined, with path halving
    parent: dict[NodeId, NodeId] = {}
    for x, y in pairs:
        x = parent.setdefault(x, x)
        while (up := parent[x]) is not x:
            parent[x] = x = parent[up]
        y = parent.setdefault(y, y)
        while (up := parent[y]) is not y:
            parent[y] = y = parent[up]
        if x is not y:
            parent[x] = y
    for x in parent:
        root = parent[x]
        while (up := parent[root]) is not root:
            root = up
        while x is not root:  # the whole path to the root, so no later walk takes it again
            parent[x], x = root, parent[x]
    return parent


def _adjacency(index: Mapping[NodeId, int], edges: Iterable[tuple[NodeId, NodeId]],
               size: int) -> tuple[list[list[int]], list[list[int]]]:
    """The out- and in-lists, in edge order, of `size` nodes numbered by
    `index`: the package's one builder of adjacency from an edge set."""
    out: list[list[int]] = [[] for _ in range(size)]
    inn: list[list[int]] = [[] for _ in range(size)]
    for s, d in edges:
        i, j = index[s], index[d]
        out[i].append(j)
        inn[j].append(i)
    return out, inn


def _glued_labels(tables: Sequence[dict[str, Node]]) -> dict[str, Node]:
    """The label tables of parts glued in order, each label at its first
    part, grown into the first table; raises `MalformedModule` on the first
    label that a part gives another kind than the parts before it."""
    labels = tables[0] if tables else {}
    for problem in _kind_clashes(labels, chain.from_iterable(table.values() for table in tables[1:])):
        raise MalformedModule(problem)
    return labels


class _Unread(Module):
    """A `compose` result whose `nodes`, `edges`, `marking`, `left` and
    `right` are not built yet.  The first read of one of them, or of
    anything derived from them such as `atom_set`, builds all five and
    makes the result a plain `Module`, so built modules pay nothing for
    `__getattr__`."""

    __slots__ = ()

    def __getattr__(self, name: str):
        # only the unset slots get here; without a record, a build was cut short and nothing is left to build
        if name not in ("nodes", "edges", "marking", "left", "right") or self._pending is None:
            raise AttributeError(name)
        _build(self)
        return getattr(self, name)


class _Pending:
    """What an unread `compose` result is made of, kept until its first read.

    `parts` are its operands: a built one as itself, a pending one as its
    own record, never as the module, so a result stays buildable when an
    operand is read afterwards.  Everything here is in leaf ids, the ids of
    the built modules below.  `cls` maps each node that a harmonic pair
    merged to the first member of its class, as `_glue` takes it.  `left`
    and `right` are the result's interfaces, each merged node in the id of
    the member that fills the slot, and `ends` maps every interface node to
    its Node.  `labels`, the label table, and `atoms`, the atom set, are
    the record's own until a later `compose` takes them over, growing them
    into its result's or copying them there.  Each is None then, and
    rebuilt from the built modules below, the set from their node ids, if
    it is needed again, so no record under another keeps either.
    """

    __slots__ = ("parts", "cls", "left", "right", "ends", "labels", "atoms")

    def __init__(self, parts: tuple[Module | _Pending, ...], cls: dict[NodeId, NodeId], left: Interface,
                 right: Interface, ends: dict[NodeId, Node], labels: dict[str, Node], atoms: set[AtomicNodeId]):
        self.parts = parts
        self.cls = cls
        self.left = left
        self.right = right
        self.ends = ends
        self.labels = labels
        self.atoms = atoms

    def walk(self) -> tuple[list[_Pending], list[Module]]:
        """The records of the tree under this one, itself first, and the
        built modules at its leaves, operands left to right."""
        records, leaves, stack = [], [], [self]
        while stack:
            part = stack.pop()
            if type(part) is _Pending:
                records.append(part)
                stack += reversed(part.parts)
            else:
                leaves.append(part)
        return records, leaves

    def held(self) -> tuple[dict[str, Node], set[AtomicNodeId]]:
        """The label table and the atom set, rebuilt once taken over."""
        if self.atoms is None:
            leaves = self.walk()[1]
            self.labels = {node.label: node for leaf in leaves for node in leaf.nodes.values()}
            self.atoms = set().union(*[nid for leaf in leaves for nid in leaf.nodes])
        return self.labels, self.atoms


def _build(m: Module) -> None:
    """Fill the unset slots of a `compose` result on its first read.

    The tree of records below `m` is walked, operands left to right, down
    to built modules.  Their classes, all in leaf ids, joined by union-find
    give one class map over the built leaves, and one `_glue` of the leaves
    makes what `compose(*leaves)` makes, in the same node, slot and marking
    order; the interfaces go through the map it returns, so each merged id
    is minted there, once, and `_fill` sets the slots.  The record is
    dropped before the glue, so a leaf that nothing else holds is freed as
    soon as it is glued.
    """
    record = m._pending
    records, leaves = record.walk()
    # one record means built parts only, whose classes `compose` left final
    cls = record.cls if len(records) == 1 else _classes(chain.from_iterable(r.cls.items() for r in records))
    left, right = record.left, record.right
    # from here `leaves` holds the last reference to a leaf nothing else holds; a glue cut
    # short by an exception leaves `m` with nothing to build (see `_Unread.__getattr__`)
    object.__setattr__(m, "_pending", None)
    del record, records
    nodes, edges, marking, mp = _glue(leaves, cls)
    _fill(m, nodes, edges, Interface(tuple([mp(nid, nid) for nid in left])),
          Interface(tuple([mp(nid, nid) for nid in right])), marking, m.name)
    object.__setattr__(m, "__class__", Module)


def _first_overlap(sets: Sequence[Iterable[AtomicNodeId]]) -> tuple[int, set[AtomicNodeId]]:
    """The first operand whose atoms meet those of the operands before it,
    with the atoms they share."""
    seen: set[AtomicNodeId] = set()
    for k, atoms in enumerate(sets):
        shared = seen.intersection(atoms)
        if shared:
            return k, shared
        seen |= atoms
    raise AssertionError("the operands are disjoint")


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
    module.

    Every check runs here and every error is raised here, in the fold's
    order: atoms shared with the parts before, a pair of two kinds, a label
    of two kinds.  Only the interfaces, in leaf ids (the ids of the built
    modules under the result, read through each pending operand's record),
    the label table and the atom set are built here.  The nodes, edges,
    marking and interfaces are built on the first read of `nodes`, `edges`,
    `marking`, `left` or `right`, by one glue over all the built modules
    under the result, so a fold of binary calls in any grouping costs one
    n-ary glue and mints each merged id once.  The chain's right slots are
    kept in one deque per label, index 1 first, so a step costs the size of
    its interfaces.  Every operand's label table and atom set is the
    call's own: a built operand's are derived from its nodes, a pending
    operand's are taken over from its record.  The first table and the
    largest set become the result's and grow in place, so a fold copies
    neither.
    """
    sets, tables, ends_of, records = [], [], [], []  # a record: a built part itself, or a pending part's `_Pending`
    for part in parts:
        pending = part._pending
        if pending is None:
            sets.append(set().union(*part.nodes))
            tables.append(part._node_per_label())
            ends_of.append(part.nodes)
            records.append(part)
        else:
            labels, atoms = pending.held()
            pending.labels = pending.atoms = None  # taken over: grown into the result's or copied there
            sets.append(atoms)
            tables.append(labels)
            ends_of.append(pending.ends)
            records.append(pending)
    atoms = max(sets, key=len, default=set())  # it grows into the result's once the checks pass
    rest = set().union(*[s for s in sets if s is not atoms])
    disjoint = len(atoms) + len(rest) == sum(map(len, sets)) and atoms.isdisjoint(rest)
    overlap = None if disjoint else _first_overlap(sets)

    cls: dict[NodeId, NodeId] = {}  # merged node -> first member of its class
    tails: dict[str, deque[Node]] = {}  # the chain's right slots by label, in slot order
    paired_left: set[NodeId] = set()
    paired_right: set[NodeId] = set()
    for k, part in enumerate(records):
        ends = ends_of[k]
        pairs = []
        try:
            if overlap and k == overlap[0]:
                raise NonDisjointOperands(overlap[1])
            if tails:
                for nid, (label, i) in sorted(part.left.indexed(lambda n: ends[n].label).items(), key=itemgetter(1)):
                    if tails.get(label):  # entry i of the label's deque, at the front once 1..i-1 are popped
                        x, y = tails[label].popleft(), ends[nid]
                        if x.kind is not y.kind:
                            raise KindMismatch(f"pair {label!r}@{i} merges {x.kind.value} with {y.kind.value}")
                        pairs.append((x.id, y.id))
        except (NonDisjointOperands, KindMismatch):
            # the binary fold would have built, and so checked, the chain so far
            _glued_labels(tables[:k])
            raise
        for x, y in pairs:
            cls[y] = cls.setdefault(x, x)
            paired_right.add(x)
            paired_left.add(y)
        if k + 1 < len(records):  # no part after the last pairs with its right slots
            for nid in reversed(part.right.slots):
                node = ends[nid]
                tails.setdefault(node.label, deque()).appendleft(node)
    labels = _glued_labels(tables)

    left = [ends[nid] for part, ends in zip(records, ends_of) for nid in part.left if nid not in paired_left]
    right = [ends[nid] for part, ends in zip(reversed(records), reversed(ends_of))
             for nid in part.right if nid not in paired_right]

    atoms |= rest
    result = object.__new__(_Unread)
    set_ = object.__setattr__
    set_(result, "name", None)
    set_(result, "_pending", _Pending(tuple(records), cls, Interface(tuple([node.id for node in left])),
                                      Interface(tuple([node.id for node in right])),
                                      {node.id: node for node in chain(left, right)}, labels, atoms))
    return result


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
    nodes, edges, marking, mp = _glue([a], _classes(pairs))
    dropped_left = {l for _, l in pairs}
    dropped_right = {r for r, _ in pairs}
    left = [mp(n, n) for n in a.left if n not in dropped_left]
    right = [mp(n, n) for n in a.right if n not in dropped_right]
    return Module._trusted(nodes, edges, Interface(tuple(left)), Interface(tuple(right)), marking, None)


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
) -> Iterator[str]:
    """Every structural violation of a module's parts, in a fixed order.
    Distinct nodes share atoms when their ids hold more atoms than their
    union.

    The one checker behind both `Module(...)` and `verify_well_formed`.
    Invariants that `Node`, `NodeId` and `Interface` enforce when they are
    built (non-empty string labels, non-empty atom sets, no repeated slot)
    are not checked again, and per-label indices need no check because
    `Interface.indexed` derives them by counting.  `compose` checks its
    results with the one-kind-per-label rule alone, `_kind_clashes`.
    """
    for nid, node in nodes.items():
        if node.id is not nid and node.id != nid:  # identity first: `!=` runs NodeId.__eq__
            yield f"node map key {nid} != node id {node.id}"
    yield from _kind_clashes({}, nodes.values())
    if sum(map(len, nodes)) != len(frozenset().union(*nodes)):
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
    return list(_problems(a.nodes, a.edges, a.left, a.right, a.marking, a.name))
