"""Serializers: canonical JSON dump (lossless, byte-stable), Graphviz DOT, PNML.

The JSON dump is the round-trip format; DOT and PNML are one-way views.
Dumps are canonical: nodes and edges sorted, keys sorted, two-space indent,
trailing newline, so equal modules serialize to equal bytes.

Both writers emit their text directly for their one fixed shape: the bytes
are those `json.dumps(to_dict(a), indent=2, sort_keys=True)` and ElementTree's
`indent` plus `tostring` give, which the tests keep as their oracles.
"""

from __future__ import annotations

import hashlib
import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from importlib import resources
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Iterable

from .core import AtomicNodeId, Kind, Module, Node, NodeId, _ID_KEY
from .errors import AbstractNodePresent, NotANet, NotBipartite, ParseError, PetrimodError
from .nets import validate_net
from .relaxng import Schema, ValidationError

__all__ = [
    "DUMP_FORMAT",
    "PNML_NS",
    "PTNET_TYPE",
    "to_dict",
    "dumps",
    "loads",
    "to_dot",
    "to_pnml",
    "ptnet_schema",
    "validate_pnml",
]

DUMP_FORMAT = "petrimod-dump/1"
PNML_NS = "http://www.pnml.org/version-2009/grammar/pnml"
PTNET_TYPE = "http://www.pnml.org/version-2009/grammar/ptnet"
IDMAP_NS = "urn:petrimod:idmap"
NET_ID = "net1"  # the one net of every document


# -- canonical JSON ------------------------------------------------------------

def to_dict(a: Module) -> dict:
    nodes = sorted(a.nodes.values(), key=attrgetter("id.key"))
    text = {n.id: str(n.id) for n in nodes}  # each id's text once

    def side(interface):
        return [
            {"id": text[nid], "label": label, "index": i}
            for nid, (label, i) in interface.indexed(a.label_of).items()
        ]

    return {
        "format": DUMP_FORMAT,
        "name": a.name,
        "nodes": [
            {"id": text[n.id], "label": n.label, "kind": n.kind.value, "tokens": a.tokens(n.id)}
            for n in nodes
        ],
        "edges": sorted([[text[s], text[d]] for s, d in a.edges]),
        "left": side(a.left),
        "right": side(a.right),
    }


def _json_list(items: list[str]) -> str:
    # the value of a top-level key; each item comes indented by four spaces
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _json_slots(entries: list[dict]) -> str:
    return _json_list([
        f'    {{\n      "id": {_json_str(e["id"])},\n      "index": {e["index"]},\n'
        f'      "label": {_json_str(e["label"])}\n    }}'
        for e in entries
    ])


def dumps(a: Module) -> str:
    """`to_dict(a)` as `json.dumps(..., indent=2, sort_keys=True)` writes it,
    formatted for its fixed shape; strings go through json's own C escaper."""
    d = to_dict(a)
    edges = _json_list([f"    [\n      {_json_str(s)},\n      {_json_str(t)}\n    ]" for s, t in d["edges"]])
    nodes = _json_list([
        f'    {{\n      "id": {_json_str(n["id"])},\n      "kind": {_json_str(n["kind"])},\n'
        f'      "label": {_json_str(n["label"])},\n      "tokens": {n["tokens"]}\n    }}'
        for n in d["nodes"]
    ])
    name = "null" if d["name"] is None else _json_str(d["name"])
    return (f'{{\n  "edges": {edges},\n  "format": {_json_str(d["format"])},\n'
            f'  "left": {_json_slots(d["left"])},\n  "name": {name},\n  "nodes": {nodes},\n'
            f'  "right": {_json_slots(d["right"])}\n}}\n')


def _node_id(text, where: str) -> NodeId:
    if not isinstance(text, str):
        raise ParseError(f"{where}: node id must be a string, got {text!r}")
    atoms = []
    for part in text.split("+"):
        inst, sep, name = part.partition(":")
        if not sep or not inst or not name:
            raise ParseError(f"{where}: malformed node id {text!r}")
        atoms.append(AtomicNodeId(inst, name))
    return NodeId(atoms)


def loads(text: str) -> Module:
    """Read a canonical dump back; stated interface labels/indices are re-derived
    and must agree, so a hand-edited dump cannot silently lie about them."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too deep, or an int past the int-string limit
        raise ParseError(f"not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ParseError("dump must be a JSON object")
    if data.get("format") != DUMP_FORMAT:
        raise ParseError(f"expected format {DUMP_FORMAT!r}, got {data.get('format')!r}")

    kinds = {k.value: k for k in Kind}
    parsed: dict[str, NodeId] = {}  # each id text is parsed once, where it first appears

    def node_id(text, where: str) -> NodeId:
        nid = parsed.get(text) if isinstance(text, str) else None
        if nid is None:
            nid = parsed[text] = _node_id(text, where)
        return nid

    try:
        nodes = []
        marking: dict[NodeId, int] = {}
        for entry in data["nodes"]:
            nid = node_id(entry["id"], "nodes")
            if entry["kind"] not in kinds:
                raise ParseError(f"unknown kind {entry['kind']!r}")
            nodes.append(Node(nid, entry["label"], kinds[entry["kind"]]))
            marking[nid] = entry.get("tokens", 0)
        edges = [(node_id(s, "edges"), node_id(d, "edges")) for s, d in data["edges"]]
        left = [node_id(e["id"], "left") for e in data["left"]]
        right = [node_id(e["id"], "right") for e in data["right"]]
        module = Module(nodes, edges, left, right, marking, data.get("name"))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ParseError(f"malformed dump: {e}") from None
    except PetrimodError as e:
        raise ParseError(f"inconsistent dump: {e}") from None

    for side_name, interface, stated in (("left", module.left, data["left"]),
                                         ("right", module.right, data["right"])):
        for (nid, (label, i)), entry in zip(interface.indexed(module.label_of).items(), stated):
            if entry.get("label") != label or entry.get("index") != i:
                raise ParseError(
                    f"{side_name} interface states {entry.get('label')}:{entry.get('index')} "
                    f"for {nid}, derived {label}:{i}"
                )
    return module


def _ranked(nodes: Iterable[NodeId], edges: Iterable[tuple[NodeId, NodeId]]) -> tuple[dict[NodeId, int], list[int]]:
    """Each node to its rank in sorted id order, in that order, and the edges
    as the ints `rank(src) * n + rank(dst)`, sorted: the order of the sorted
    (src, dst) pairs.  Only the node sort compares ids, by their cached keys."""
    rank = {nid: k for k, nid in enumerate(sorted(nodes, key=_ID_KEY))}
    n = len(rank)
    codes = [rank[s] * n + rank[d] for s, d in edges]
    codes.sort()
    return rank, codes


# -- Graphviz ------------------------------------------------------------------

_SHAPE = {Kind.PLACE: "circle", Kind.TRANSITION: "box", Kind.ABSTRACT: "box"}
# a quoted DOT string ends at an unescaped quote; a raw line break becomes
# Graphviz's centred "\n", so each statement stays on one line
_DOT_SPECIAL = re.compile(r'[\\"]|\r\n?|\n')


def _dot_text(text: str) -> str:
    """`text` as the inside of a quoted DOT string."""
    return _DOT_SPECIAL.sub(lambda m: "\\" + m[0] if m[0] in '\\"' else "\\n", text)


def _dot_label(a: Module, nid: NodeId) -> str:
    label = _dot_text(a.label_of(nid))
    tokens = a.tokens(nid)
    if not tokens:
        return label
    dots = "&#9679;" * tokens if tokens <= 5 else f"{tokens}&#9679;"
    return f"{label}\\n{dots}"


def to_dot(a: Module, *, title: str | None = None) -> str:
    """Render left interface as the min rank, right as the max rank, interior
    in a dashed cluster.  A node sitting in both interfaces is drawn twice,
    tied together with a double line.

    Nodes are numbered `n0`, `n1`, ... in sorted id order, and edges and
    doubled slots are written in the order of those numbers: an edge sorts
    as the one int `rank(src) * n + rank(dst)` (`_ranked`), so only the
    node sort compares ids, through their cached `key`s."""
    rank, edges = _ranked(a.nodes, a.edges)
    left = set(a.left)
    right = set(a.right)
    doubled = left & right

    def decl(nid: NodeId, vid: str, text: str) -> str:
        node = a.nodes[nid]
        shape = _SHAPE[node.kind]
        extra = ' style=rounded' if node.kind is Kind.ABSTRACT else ""
        return f'{vid} [label="{text}" shape={shape}{extra}];'

    lines = [f'digraph "{_dot_text(title or a.name or "module")}" {{', "  rankdir=LR;"]
    lines.append('  node [fontsize=11 fontname="Helvetica"];')

    lines.append("  { rank=min;")
    for nid, (label, i) in a.left.indexed(a.label_of).items():
        lines.append("    " + decl(nid, f"n{rank[nid]}", f"{_dot_text(label)}:{i}"))
    lines.append("  }")

    lines.append("  { rank=max;")
    for nid, (label, i) in a.right.indexed(a.label_of).items():
        vid = f"n{rank[nid]}" + ("r" if nid in doubled else "")
        lines.append("    " + decl(nid, vid, f"{_dot_text(label)}:{i}"))
    lines.append("  }")

    interior = [nid for nid in rank if nid not in left and nid not in right]
    if interior:
        lines.append("  subgraph cluster_interior {")
        lines.append("    style=dashed; label=\"\";")
        for nid in interior:
            lines.append("    " + decl(nid, f"n{rank[nid]}", _dot_label(a, nid)))
        lines.append("  }")

    twice = {rank[nid] for nid in doubled}
    for code in edges:
        s, d = divmod(code, len(rank))
        lines.append(f"  n{s} -> n{d}r;" if d in twice else f"  n{s} -> n{d};")
    for k in sorted(twice):
        lines.append(f'  n{k} -> n{k}r [dir=none color="black:invis:black"];')

    lines.append("}")
    return "\n".join(lines) + "\n"


# -- PNML ----------------------------------------------------------------------

_ID_SAFE = re.compile(r"[^A-Za-z0-9_.\-]")


def _pnml_id(text: str) -> str:
    """The PNML id of the node id whose text is `text`."""
    digest = hashlib.sha1(text.encode()).hexdigest()[:8]
    return f"n-{_ID_SAFE.sub('-', text)[:40]}-{digest}"


# ElementTree's own escapes, the ones its `tostring` writes with; the public
# `xml.sax.saxutils.escape` gives the same strings, but importing it pulls in
# `urllib.request` and adds about a third to the package's import time
_escape_attrib = ET._escape_attrib
_escape_cdata = ET._escape_cdata


def _text_child(tag: str, text: str, indent: str) -> str:
    """A <tag><text>text</text></tag> holder opening at `indent`; text is never
    empty (labels are not, and names and markings are written only when set)."""
    return f"{indent}<{tag}>\n{indent}  <text>{_escape_cdata(text)}</text>\n{indent}</{tag}>"


def _element(start: str, children: list[str], end: str) -> list[str]:
    # ElementTree writes an element without children as one short empty tag
    return [start + ">", *children, end] if children else [start + " />"]


def to_pnml(a: Module) -> str:
    """Place/transition net XML.  Interfaces have no PNML counterpart and are
    dropped; the toolspecific block maps sanitized ids back to node ids.

    The text is what ElementTree's `indent` and `tostring` make of the
    document tree, written directly.  Places and transitions come in the
    net's numbering; each id's text is made once, for both its PNML id and
    its idmap entry.  Arcs come in sorted (source, target) order, sorted as
    one int per arc (`_ranked`)."""
    try:
        view = validate_net(a)
    except (AbstractNodePresent, NotBipartite) as e:
        raise NotANet(str(e)) from e

    places, transitions, _, _ = view._numbering
    ids: dict[NodeId, str] = {}
    idmap = []
    for nid in (*places, *transitions):
        text = str(nid)  # once per id
        ids[nid] = pid = _pnml_id(text)  # [A-Za-z0-9_.-]: nothing to escape
        idmap.append(f'        <pm:entry pnml="{pid}" node="{_escape_attrib(text)}" />')
    page = []
    for p in places:
        page += [f'      <place id="{ids[p]}">', _text_child("name", a.label_of(p), "        ")]
        if view.marking.get(p, 0):
            page.append(_text_child("initialMarking", str(view.marking[p]), "        "))
        page.append("      </place>")
    for t in transitions:
        page += [f'      <transition id="{ids[t]}">', _text_child("name", a.label_of(t), "        "),
                 "      </transition>"]
    rank, arcs = _ranked(ids, view.flow)
    pid, n = [ids[nid] for nid in rank], len(rank)
    page += [f'      <arc id="a{k}" source="{pid[code // n]}" target="{pid[code % n]}" />'
             for k, code in enumerate(arcs, 1)]

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<pnml xmlns="{PNML_NS}">',
           f'  <net id="{NET_ID}" type="{PTNET_TYPE}">']
    if a.name:
        out.append(_text_child("name", a.name, "    "))
    out += ['    <toolspecific tool="petrimod" version="1">',
            *_element(f'      <pm:idmap xmlns:pm="{IDMAP_NS}"', idmap, "      </pm:idmap>"),
            "    </toolspecific>",
            *_element('    <page id="page1"', page, "    </page>"),
            "  </net>",
            "</pnml>",
            ""]
    return "\n".join(out)


_schema: Schema | None = None
# Above this table size the schema is dropped after validating, and the next
# call compiles it afresh.  Fixture and random-net exports leave about 610;
# each level of a nesting deeper than any before adds about 7.
_SCHEMA_TABLE_BOUND = 10_000


def ptnet_schema() -> Schema:
    global _schema
    if _schema is None:
        text = resources.files("petrimod").joinpath("schema/ptnet.rng").read_text(encoding="utf-8")
        _schema = Schema.from_string(text)
    return _schema


def validate_pnml(text: str) -> None:
    """Schema check plus the two ID semantics RELAX NG leaves out:
    id uniqueness and arc endpoint resolution."""
    global _schema
    root = ET.fromstring(text)
    schema = ptnet_schema()
    try:
        schema.validate(root)
    finally:
        if schema.table_size() > _SCHEMA_TABLE_BOUND:
            _schema = None
    ids = [el.get("id") for el in root.iter() if el.get("id") is not None]
    dup = sorted(i for i, count in Counter(ids).items() if count > 1)
    if dup:
        raise ValidationError(f"duplicate id(s): {dup}")
    known = set(ids)
    for arc in root.iter(f"{{{PNML_NS}}}arc"):
        for attr in ("source", "target"):
            if arc.get(attr) not in known:
                raise ValidationError(f"arc {arc.get('id')!r}: {attr} {arc.get(attr)!r} is not a node id")
