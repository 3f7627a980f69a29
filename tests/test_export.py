import hashlib
import json
import random
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from petrimod import (Kind, Module, Node, NodeId, dumps, empty_module, evaluate, fixture_path, loads,
                      parse, structural_equal, to_dot, to_pnml, validate_pnml)
from petrimod import export
from petrimod.errors import NotANet, ParseError
from petrimod.export import DUMP_FORMAT, IDMAP_NS, NET_ID, PNML_NS, PTNET_TYPE, to_dict
from petrimod.generate import random_module, random_net
from petrimod.nets import net_to_module, validate_net
from petrimod.relaxng import ValidationError

from conftest import module, node

# Labels and names the writers must escape or pass through untouched.
HOSTILE = ["&", "<", ">", '"', "'", "a & b < c > d \" e ' f", "\t", "\n", "\r", "\r\n",
           "é – 漢字 \U0001f600", " ", " \t\n\r ", "&amp; &#10; <![CDATA[x]]>"]
# Atom fields admit no whitespace, ':' or '+'; everything else may reach an id.
HOSTILE_ATOM = "&<>\"'é漢"


def _hostile_module(k: int, text: str, name) -> Module:
    place = NodeId.single(HOSTILE_ATOM, f"p{k}")
    transition = NodeId.single(HOSTILE_ATOM, f"t{k}")
    nodes = [Node(place, text, Kind.PLACE), Node(transition, text + "!", Kind.TRANSITION)]
    return Module(nodes, [(place, transition), (transition, place)], [place], [transition], {place: 2}, name)


def _hostile_modules() -> list[Module]:
    return [_hostile_module(k, text, name)
            for k, text in enumerate(HOSTILE) for name in (None, "", text)]


def _dump_cases(phil_env) -> list[Module]:
    rng = random.Random(5)
    return ([evaluate(phil_env, "fork"), empty_module()]
            + [random_module(rng, f"r{k}", name=rng.choice([None, "", "M"])) for k in range(200)]
            + _hostile_modules())


def test_dump_is_canonical(phil_env):
    for m in _dump_cases(phil_env):
        text = dumps(m)
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["format"] == DUMP_FORMAT
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert text == json.dumps(to_dict(m), indent=2, sort_keys=True) + "\n"
        node_ids = [n["id"] for n in data["nodes"]]
        assert node_ids == sorted(node_ids)


def test_hostile_labels_and_names_round_trip():
    for m in _hostile_modules():
        text = dumps(m)
        back = loads(text)
        assert structural_equal(m, back) and back.name == m.name
        assert dumps(back) == text


def test_dump_round_trip(phil_env):
    for name in phil_env.names():
        m = evaluate(phil_env, name)
        text = dumps(m)
        back = loads(text)
        assert structural_equal(m, back)
        assert dumps(back) == text


def test_interface_entries_carry_derived_indices(prod_env):
    data = to_dict(evaluate(prod_env, "line_grouped"))
    assert [(s["label"], s["index"]) for s in data["right"]] == [
        ("parcel", 1),
        ("parcel", 2),
        ("product", 1),
    ]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: "not json at all",
        lambda d: json.dumps({**d, "format": "petrimod-dump/999"}),
        lambda d: json.dumps({k: v for k, v in d.items() if k != "nodes"}),
        lambda d: json.dumps({**d, "edges": [["oops"]]}),
        lambda d: json.dumps({**d, "nodes": d["nodes"] + [{"id": "bad id format"}]}),
    ],
)
def test_loads_rejects_malformed_input(phil_env, mangle):
    data = to_dict(evaluate(phil_env, "fork"))
    with pytest.raises(ParseError):
        loads(mangle(data))


def test_loads_rejects_nesting_too_deep_for_the_json_parser():
    with pytest.raises(ParseError, match="not valid JSON"):
        loads("[" * 100_000)


def _fork_dump_with(phil_env, change):
    data = to_dict(evaluate(phil_env, "fork"))
    change(data, next(n for n in data["nodes"] if n["kind"] == "place"))
    return json.dumps(data)


@pytest.mark.parametrize("tokens", [True, 1.0, -1, "1", None])
def test_loads_rejects_token_count_not_a_natural(phil_env, tokens):
    with pytest.raises(ParseError, match="tokens"):
        loads(_fork_dump_with(phil_env, lambda data, place: place.update(tokens=tokens)))


def test_loads_rejects_token_count_past_the_int_string_limit(phil_env):
    text = _fork_dump_with(phil_env, lambda data, place: place.update(tokens=0)).replace(
        '"tokens": 0', '"tokens": ' + "9" * 5000, 1)
    with pytest.raises(ParseError, match="not valid JSON"):
        loads(text)


@pytest.mark.parametrize("label", [7, None, ["available"]])
def test_loads_rejects_non_string_label(phil_env, label):
    with pytest.raises(ParseError, match="label"):
        loads(_fork_dump_with(phil_env, lambda data, place: place.update(label=label)))


@pytest.mark.parametrize("name", [7, True, ["fork"]])
def test_loads_rejects_non_string_name(phil_env, name):
    with pytest.raises(ParseError, match="name"):
        loads(_fork_dump_with(phil_env, lambda data, place: data.update(name=name)))


def test_loads_rejects_lying_interface_index(phil_env):
    data = to_dict(evaluate(phil_env, "think"))
    data["left"][0]["index"] = 7
    with pytest.raises(ParseError):
        loads(json.dumps(data))


def test_loads_rejects_lying_interface_label(phil_env):
    data = to_dict(evaluate(phil_env, "think"))
    data["right"][0]["label"] = "eating"
    with pytest.raises(ParseError):
        loads(json.dumps(data))


def test_dot_shape(phil_env):
    dot = to_dot(evaluate(phil_env, "think"))
    assert dot.startswith("digraph")
    assert dot.count("rank=min") == 1 and dot.count("rank=max") == 1
    assert dot.count("black:invis:black") == 2  # both transitions sit on both sides
    assert "cluster_interior" in dot
    assert "take:1" in dot and "return:1" in dot


def test_dot_empty_module():
    from petrimod import empty_module

    dot = to_dot(empty_module())
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_dot_orders_edges_and_doubled_slots_as_sorted_ids():
    # the writer sorts ints made from node ranks; the oracle sorts the id pairs themselves
    rng = random.Random(13)
    doubled_seen = 0
    for k in range(300):
        m = random_module(rng, f"r{k}")
        dot_id = {nid: f"n{i}" for i, nid in enumerate(sorted(m.nodes))}
        doubled = set(m.left) & set(m.right)
        doubled_seen += bool(doubled)
        want = [f"  {dot_id[s]} -> {dot_id[d]}{'r' if d in doubled else ''};" for s, d in sorted(m.edges)]
        want += [f'  {dot_id[nid]} -> {dot_id[nid]}r [dir=none color="black:invis:black"];' for nid in sorted(doubled)]
        assert [line for line in to_dot(m).splitlines() if re.match(r"  n\d", line)] == want
    assert doubled_seen > 50


# a DOT line whose quoted strings all close, holding only the escapes to_dot writes
_DOT_LINE = re.compile(r'(?:[^"\\\r]|"(?:[^"\\\r]|\\[\\"n])*")*')


def _unquoted(dot: str) -> list[str]:
    return [re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], s)
            for s in re.findall(r'"((?:[^"\\]|\\.)*)"', dot)]


def test_dot_quotes_hostile_labels_and_names():
    assert to_dot(Module([Node(NodeId.single("a", "x"), 'a"b', Kind.PLACE)], name='M"')).splitlines()[0] == (
        'digraph "M\\"" {')
    for m in _hostile_modules():
        # the same nodes without interfaces: interior labels with token dots
        for variant in (m, Module(m.nodes.values(), m.edges, marking=m.marking, name=m.name)):
            dot = to_dot(variant)
            for line in dot.split("\n"):
                assert _DOT_LINE.fullmatch(line), line
            texts = _unquoted(dot)
            place, transition = (re.sub(r"\r\n?", "\n", n.label) for n in m.nodes.values())
            assert texts[0] == re.sub(r"\r\n?", "\n", m.name or "module")
            if variant is m:
                assert {place + ":1", transition + ":1"} <= set(texts)
            else:
                assert {place + "\n" + "&#9679;" * 2, transition} <= set(texts)


def test_pnml_exports_validate(phil_env, prod_env):
    for env in (phil_env, prod_env):
        for name in env.names():
            doc = to_pnml(evaluate(env, name))
            validate_pnml(doc)


def test_pnml_structure(phil_env):
    doc = to_pnml(evaluate(phil_env, "phils_in_a_cycle"))
    root = ET.fromstring(doc)
    assert root.tag == f"{{{PNML_NS}}}pnml"
    page = root.find(f"{{{PNML_NS}}}net/{{{PNML_NS}}}page")
    assert len(page.findall(f"{{{PNML_NS}}}place")) == 15
    assert len(page.findall(f"{{{PNML_NS}}}transition")) == 10
    assert len(page.findall(f"{{{PNML_NS}}}arc")) == 40
    markings = [
        int(m.text)
        for m in page.findall(f"{{{PNML_NS}}}place/{{{PNML_NS}}}initialMarking/{{{PNML_NS}}}text")
    ]
    assert sum(markings) == 10


def test_pnml_rejects_abstract_nodes():
    with pytest.raises(NotANet):
        to_pnml(module([node("a", "x", "alpha")]))


def test_validate_pnml_catches_duplicate_ids(phil_env):
    doc = to_pnml(evaluate(phil_env, "fork"))
    root = ET.fromstring(doc)
    page = root.find(f"{{{PNML_NS}}}net/{{{PNML_NS}}}page")
    transitions = page.findall(f"{{{PNML_NS}}}transition")
    transitions[1].set("id", transitions[0].get("id"))
    # the arcs now dangle too, so drop them and keep only the id clash
    for arc in page.findall(f"{{{PNML_NS}}}arc"):
        page.remove(arc)
    with pytest.raises(ValidationError, match="duplicate"):
        validate_pnml(ET.tostring(root, encoding="unicode"))


def test_validate_pnml_catches_dangling_arc(phil_env):
    doc = to_pnml(evaluate(phil_env, "fork"))
    root = ET.fromstring(doc)
    page = root.find(f"{{{PNML_NS}}}net/{{{PNML_NS}}}page")
    page.find(f"{{{PNML_NS}}}arc").set("source", "nowhere")
    with pytest.raises(ValidationError):
        validate_pnml(ET.tostring(root, encoding="unicode"))


# -- the PNML writer against ElementTree ------------------------------------------

def _reference_pnml(a: Module) -> str:
    """to_pnml as it was written before it emitted its text directly: an
    ElementTree document, indented and serialised by the standard library."""
    view = validate_net(a)
    places = sorted(view.places)
    transitions = sorted(view.transitions)
    ids = {nid: export._pnml_id(str(nid)) for nid in places + transitions}

    def text_child(parent, tag, text):
        ET.SubElement(ET.SubElement(parent, tag), "text").text = text

    root = ET.Element("pnml", {"xmlns": PNML_NS})
    net = ET.SubElement(root, "net", {"id": NET_ID, "type": PTNET_TYPE})
    if a.name:
        text_child(net, "name", a.name)
    tool = ET.SubElement(net, "toolspecific", {"tool": "petrimod", "version": "1"})
    idmap = ET.SubElement(tool, "pm:idmap", {"xmlns:pm": IDMAP_NS})
    for nid in places + transitions:
        ET.SubElement(idmap, "pm:entry", {"pnml": ids[nid], "node": str(nid)})
    page = ET.SubElement(net, "page", {"id": "page1"})
    for p in places:
        el = ET.SubElement(page, "place", {"id": ids[p]})
        text_child(el, "name", a.label_of(p))
        if view.marking.get(p, 0):
            text_child(el, "initialMarking", str(view.marking[p]))
    for t in transitions:
        text_child(ET.SubElement(page, "transition", {"id": ids[t]}), "name", a.label_of(t))
    for k, (s, d) in enumerate(sorted(view.flow), 1):
        ET.SubElement(page, "arc", {"id": f"a{k}", "source": ids[s], "target": ids[d]})
    ET.indent(root)
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode") + "\n"


def test_pnml_bytes_match_the_elementtree_writer(phil_env, prod_env):
    rng = random.Random(9)
    nets = [net_to_module(random_net(rng, f"r{k}", max_transitions=6, max_places=8)) for k in range(300)]
    nets += [m.with_name(rng.choice([None, "", "N"])) for m in nets[:50]]
    nets += [empty_module(), empty_module().with_name("empty")] + _hostile_modules()
    for env in (phil_env, prod_env):
        nets += [evaluate(env, name) for name in env.names()]
    checked = 0
    for m in nets:
        try:
            doc = to_pnml(m)
        except NotANet:
            continue
        assert doc == _reference_pnml(m), m.name
        validate_pnml(doc)
        checked += 1
    assert checked >= 350 + 3 * len(HOSTILE)


@pytest.mark.parametrize("text", HOSTILE + [HOSTILE_ATOM, "", "plain"])
def test_escapes_are_elementtrees(text):
    # the writer's escapes are ElementTree's: no id or label reaches every
    # character, so they are compared here directly, and with the public
    # saxutils escapes, so a change of ElementTree's shows here
    assert export._escape_attrib(text) == ET._escape_attrib(text)
    assert export._escape_cdata(text) == ET._escape_cdata(text)
    assert export._escape_attrib(text) == escape(text, {'"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})
    assert export._escape_cdata(text) == escape(text)


# -- bytes pinned across Python versions ------------------------------------------

def test_fixture_exports_are_pinned():
    # The digest was taken with the writers that went through json.dumps and
    # ElementTree; CI checks it on every supported Python.
    h = hashlib.sha256()
    for fixture in ("philosophers.hkl", "production.hkl"):
        env = parse(fixture_path(fixture).read_text(encoding="utf-8"))
        for name in env.names():
            m = evaluate(env, name)
            h.update(f"{fixture} {name}\n".encode())
            h.update(dumps(m).encode())
            h.update(to_dot(m).encode())
            try:
                h.update(to_pnml(m).encode())
            except NotANet:
                h.update(b"not a net\n")
    assert h.hexdigest() == "6f155d649d1e585e1ce3e01d01705a1d95f537de67f1c0a71ff52cb8bfd6ef9f"
