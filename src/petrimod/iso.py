"""Structural equality and label-respecting isomorphism with replayable witnesses."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Kind, Module, NodeId, _ID_KEY, _adjacency
from .errors import SearchBudgetExceeded

__all__ = ["IsoOptions", "IsoWitness", "structural_equal", "isomorphic", "verify_witness"]


@dataclass(frozen=True)
class IsoOptions:
    """Matching mode.

    rename_abstract_cores: labels of abstract-kind nodes are matched through
    one consistent bijective renaming instead of string equality.
    """

    rename_abstract_cores: bool = False


@dataclass(frozen=True)
class IsoWitness:
    """A node bijection plus the abstract-label renaming it relies on."""

    mapping: tuple[tuple[NodeId, NodeId], ...]
    label_renaming: tuple[tuple[str, str], ...] = ()


def structural_equal(a: Module, b: Module) -> bool:
    """Exact coincidence of nodes, edges, interfaces, labels, kinds and markings.

    Module names are metadata and do not participate.  Each of b's node ids
    is compared with its equal in `a` once; b's edges, slots and marking are
    then mapped to a's id objects and compared there.  Lookups by the same
    object skip the atom-set comparison, so an arc costs no more for a
    large merged id; an end that merely equals a node id is looked up by
    value and costs one such comparison.
    """
    if len(a.nodes) != len(b.nodes):
        return False
    mine: dict[NodeId, NodeId] = {}  # each of b's node ids to a's equal one
    for nid, other in b.nodes.items():
        node = a.nodes.get(nid)
        if node is None or node.label != other.label or node.kind is not other.kind:
            return False
        mine[nid] = node.id
    to_a = mine.get
    return (
        len(a.edges) == len(b.edges)
        and a.edges == {(to_a(s), to_a(d)) for s, d in b.edges}
        and a.left.slots == tuple(map(to_a, b.left.slots))
        and a.right.slots == tuple(map(to_a, b.right.slots))
        and a.marking == {to_a(nid): count for nid, count in b.marking.items()}
    )


_NO_SLOT = ("", 0)  # the (label, index) of a node outside an interface


class _Numbered:
    """A module as a coloured digraph: nodes numbered in insertion order,
    their out- and in-lists (`out`, `inn`) and a start key per node (`keys`).

    In rename mode each abstract label that two or more cores carry becomes a
    label-class node, numbered after the module's nodes in order of its first
    core, with an edge from each of its cores.  Any bijection keeping these
    edges renames core labels consistently and bijectively, so the search
    never sees the renaming.  A core alone with its label gets no such node.
    A core's start key holds its class size, saving refinement a round.

    The lists come from `core._adjacency`, in edge-set order, with the
    label-class edges appended.  A key is (kind, label or class size,
    per-label left and right index with 0 for absent, in-degree,
    out-degree), the degrees being list lengths; a label-class node's key
    is ("label", class size).  The replay reuses the `(left, right)` slot
    tables the keys read, kept as `slots`.
    """

    def __init__(self, m: Module, rename: bool):
        self.ids = list(m.nodes)
        classes: dict[str, list[int]] = {}
        if rename:
            for i, node in enumerate(m.nodes.values()):
                if node.kind is Kind.ABSTRACT:
                    classes.setdefault(node.label, []).append(i)
        cores = [members for members in classes.values() if len(members) > 1]
        self.slots = left, right = m.left.indexed(m.label_of), m.right.indexed(m.label_of)
        n = len(self.ids)
        self.out, self.inn = out, inn = _adjacency({nid: i for i, nid in enumerate(self.ids)}, m.edges, n + len(cores))
        for c, members in enumerate(cores, n):
            for i in members:
                out[i].append(c)
            inn[c] = members
        self.keys: list[tuple] = []
        for i, (nid, node) in enumerate(m.nodes.items()):
            label = node.label
            if rename and node.kind is Kind.ABSTRACT:
                label = len(classes[label])
            # the index alone: in rename mode a slot's label may be a core's
            index_l, index_r = left.get(nid, _NO_SLOT)[1], right.get(nid, _NO_SLOT)[1]
            self.keys.append((node.kind, label, index_l, index_r, len(inn[i]), len(out[i])))
        self.keys += [("label", len(members)) for members in cores]


def _refine(keys: list, out: list[list[int]], inn: list[list[int]]) -> list[int]:
    """Colour refinement (1-dimensional Weisfeiler-Leman) to a fixpoint.

    A node's next colour is its colour plus the sorted colours of its out-
    and in-neighbours.  Colour numbers come from one table per round, in
    order of first appearance, so nodes of two graphs refined together get
    equal colours exactly when their refined neighbourhoods agree.
    """
    table: dict = {}
    colours = [table.setdefault(k, len(table)) for k in keys]
    count = len(table)
    while True:
        table = {}
        colours_next = [
            table.setdefault(
                (c, tuple(sorted([colours[j] for j in o])), tuple(sorted([colours[j] for j in i]))),
                len(table),
            )
            for c, o, i in zip(colours, out, inn)
        ]
        if len(table) == count:  # no class split: the partition is stable
            return colours
        colours, count = colours_next, len(table)


class _Search:
    """Colour refinement, then backtracking over a BFS order with an explicit stack.

    The pair lives in one node space: `a`'s nodes are `0..na-1` and `b`'s
    follow, label-class nodes included.  Each node has a sorted out-list and
    in-list (`out`, `inn`): `a`'s lists from its `_Numbered`, sorted in
    place, then copies of `b`'s shifted by `na`.  Edge membership is one set
    of codes `source * size + target` (`edges`), and `image` maps both ways:
    a node of `a` to its image in `b` and back, -1 while unmapped.  The
    lists arrive in the order of the edge frozenset; sorting them by node
    number keeps everything derived (colours, search order, the witness)
    independent of string hashing.

    Nodes of `a` are visited breadth-first, each component starting from a
    node of the smallest colour cell.  A root may map to any unmapped node of
    its colour; every other node only to an unmapped node of its colour
    adjacent, in the same edge direction, to the image of its BFS parent
    (the VF2 frontier of Cordella et al., 2004).  Equal colours imply equal
    start keys and degrees, so the feasibility check is left with the edges
    to already mapped nodes.
    """

    def __init__(self, ga: _Numbered, gb: _Numbered, budget: int):
        self.budget = budget
        self.steps = 0
        self.na = na = len(ga.keys)
        self.keys = ga.keys + gb.keys
        self.size = size = len(self.keys)
        self.out = ga.out + [[v + na for v in adj] for adj in gb.out]
        self.inn = ga.inn + [[v + na for v in adj] for adj in gb.inn]
        for adj in self.out + self.inn:
            adj.sort()
        self.edges = {s * size + d for s, adj in enumerate(self.out) for d in adj}
        self.image = [-1] * size

    def _order(self) -> tuple[list[int], list[tuple[int, bool] | None]]:
        """BFS order of `a` and, per position, (BFS parent, reached by an out-edge)."""
        colours, cells = self.colours, self.cells_b  # a's cells are as large as b's
        seen = [False] * self.na
        order: list[int] = []
        link: list[tuple[int, bool] | None] = []
        for root in sorted(range(self.na), key=lambda i: (len(cells[colours[i]]), i)):
            if seen[root]:
                continue
            seen[root] = True
            k = len(order)
            order.append(root)
            link.append(None)
            while k < len(order):
                p = order[k]
                k += 1
                for adj, forward in ((self.out[p], True), (self.inn[p], False)):
                    for x in adj:
                        if not seen[x]:
                            seen[x] = True
                            order.append(x)
                            link.append((p, forward))
        return order, link

    def _candidates(self, u: int, link: tuple[int, bool] | None) -> list[int]:
        colours, image = self.colours, self.image
        c = colours[u]
        if link is None:
            pool = self.cells_b[c]
        else:
            p, forward = link
            pool = (self.out if forward else self.inn)[image[p]]
        return [v for v in pool if colours[v] == c and image[v] < 0]

    def _feasible(self, u: int, v: int) -> bool:
        out, inn, edges, image, size = self.out, self.inn, self.edges, self.image, self.size
        # edges to the already-mapped region must correspond in both directions
        for x, y in ((u, v), (v, u)):
            for w in out[x]:
                z = image[w]
                if z >= 0 and y * size + z not in edges:
                    return False
            for w in inn[x]:
                z = image[w]
                if z >= 0 and z * size + y not in edges:
                    return False
        return True

    def run(self) -> list[int] | None:
        """The image of every node of `a`, numbered within `b`, or None when
        no bijection exists: at once when the two graphs, refined together,
        differ in colours."""
        na = self.na
        self.colours = colours = _refine(self.keys, self.out, self.inn)
        if sorted(colours[:na]) != sorted(colours[na:]):
            return None
        self.cells_b: dict[int, list[int]] = {}
        for v in range(na, self.size):
            self.cells_b.setdefault(colours[v], []).append(v)
        order, link = self._order()
        n = len(order)
        image = self.image
        pools = [self._candidates(order[0], link[0])] if n else []
        tried = [0] * n
        depth = 0
        while depth < n:
            u, pool = order[depth], pools[depth]
            k = tried[depth]
            while k < len(pool) and not self._feasible(u, pool[k]):
                k += 1
            if k == len(pool):
                # exhausted: undo the choice one level up and try its next candidate
                pools.pop()
                tried[depth] = 0
                depth -= 1
                if depth < 0:
                    return None
                prev = order[depth]
                image[image[prev]] = -1
                image[prev] = -1
                continue
            tried[depth] = k + 1
            self.steps += 1
            if self.steps > self.budget:
                raise SearchBudgetExceeded(f"gave up after {self.budget} candidate expansions")
            v = pool[k]
            image[u], image[v] = v, u
            depth += 1
            if depth < n:
                pools.append(self._candidates(order[depth], link[depth]))
        return [v - na for v in image[:na]]


def isomorphic(
    a: Module,
    b: Module,
    options: IsoOptions | None = None,
    *,
    budget: int = 1_000_000,
) -> IsoWitness | None:
    """Find a structure-preserving node bijection, or None if there is none.

    The witness preserves kinds, labels (modulo the optional abstract-core
    renaming), edges in both directions, and interface membership with side
    and per-label index.  Markings are not compared.

    One of two engines proposes the image of every node.  Every node first
    gets a start key from kind, label, interface positions and degrees.
    Keys are isomorphism invariants, so when no key repeats within `a` nor
    within `b` the only possible bijection maps each node to the node of the
    same key: differing key sets answer None, and otherwise that one mapping
    is proposed.  This path runs no refinement and no search, and uses no
    budget.

    Otherwise both modules are coloured together by colour refinement from
    those keys; differing colour histograms answer None without any search.
    In rename mode the cores sharing a label point to one label-class node,
    so the renaming is graph structure like any edge.  A backtracking search
    with an explicit stack then maps `a` breadth-first, drawing each node's
    candidates from its colour cell next to its BFS parent's image.
    `budget` caps the number of accepted candidate expansions; running out
    raises SearchBudgetExceeded, which means unknown rather than
    non-isomorphic.

    One replay (`_replay`, also behind `verify_witness`) then decides either
    proposal and yields the witness's label renaming.  A forced mapping
    that fails it answers None; a searched one raises AssertionError, also
    under `python -O`.
    """
    opts = options or IsoOptions()

    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return None

    rename = opts.rename_abstract_cores
    ga, gb = _Numbered(a, rename), _Numbered(b, rename)
    keys_a = set(ga.keys)
    by_key = {key: v for v, key in enumerate(gb.keys)}
    forced = len(keys_a) == len(ga.keys) and len(by_key) == len(gb.keys)
    if forced:
        # both start colourings are discrete: the bijection is forced, if any
        image = [by_key[key] for key in ga.keys] if keys_a == by_key.keys() else None
    else:
        image = _Search(ga, gb, budget).run()
    if image is None:
        return None

    # zip stops at a's last module node: label-class nodes stay out of the witness
    mapping = {u: gb.ids[v] for u, v in zip(ga.ids, image)}
    renaming = _replay(a, b, mapping, rename, ga.slots, gb.slots)
    if renaming is None and not forced:
        raise AssertionError("the search proposed a mapping that fails replay")
    if renaming is None:
        return None
    # a's ids are distinct, so sorting by them alone is `sorted(mapping.items())`
    order = sorted(mapping, key=_ID_KEY)
    return IsoWitness(tuple(zip(order, map(mapping.__getitem__, order))), tuple(renaming))


def _replay(a: Module, b: Module, mapping: dict[NodeId, NodeId], rename: bool,
            slots_a: tuple[dict, dict], slots_b: tuple[dict, dict]) -> list[tuple[str, str]] | None:
    """Replay `mapping` slot by slot and edge by edge against both modules.

    `slots_a` and `slots_b` are the modules' `(left, right)` tables from
    `Interface.indexed`.  Returns the abstract-label renaming the mapping
    induces, as sorted pairs of labels that differ (empty outside rename
    mode), or None when the mapping is no isomorphism.
    """
    image = set(mapping.values())
    if mapping.keys() != a.nodes.keys() or len(image) != len(mapping) or image != b.nodes.keys():
        return None
    # an injective mapping sends a's edges to as many distinct pairs
    if len(a.edges) != len(b.edges):
        return None

    ren: dict[str, str] = {}
    ren_rev: dict[str, str] = {}
    for u, v in mapping.items():
        na, nb = a.nodes[u], b.nodes[v]
        if na.kind is not nb.kind:
            return None
        if rename and na.kind is Kind.ABSTRACT:
            if ren.setdefault(na.label, nb.label) != nb.label or ren_rev.setdefault(nb.label, na.label) != na.label:
                return None
        elif na.label != nb.label:
            return None
    for s, d in a.edges:
        if (mapping[s], mapping[d]) not in b.edges:
            return None

    # the mapping is injective, so equal sizes and every image at its index make equal slot sets
    for a_slots, b_slots in zip(slots_a, slots_b):
        if len(a_slots) != len(b_slots):
            return None
        for nid, (_, i) in a_slots.items():
            if b_slots.get(mapping[nid], _NO_SLOT)[1] != i:
                return None
    return sorted((x, y) for x, y in ren.items() if x != y)


def verify_witness(a: Module, b: Module, witness: IsoWitness, options: IsoOptions | None = None) -> bool:
    """Replay a witness node, edge and slot by slot, as `isomorphic` decides.
    Its `label_renaming` must be the renaming the mapping induces, so
    outside rename mode an empty one."""
    opts = options or IsoOptions()
    mapping = dict(witness.mapping)
    if len(mapping) != len(witness.mapping):  # a node named twice; `_replay` refuses a repeated image
        return False
    slots = lambda m: (m.left.indexed(m.label_of), m.right.indexed(m.label_of))
    renaming = _replay(a, b, mapping, opts.rename_abstract_cores, slots(a), slots(b))
    return renaming == sorted(witness.label_renaming)
