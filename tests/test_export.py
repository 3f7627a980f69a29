import json
import xml.etree.ElementTree as ET

import pytest

from petrimod import dumps, evaluate, loads, structural_equal, to_dot, to_pnml, validate_pnml
from petrimod.errors import NotANet, ParseError
from petrimod.export import DUMP_FORMAT, PNML_NS, to_dict
from petrimod.relaxng import ValidationError

from conftest import module, node


def test_dump_is_canonical(phil_env):
    m = evaluate(phil_env, "fork")
    text = dumps(m)
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["format"] == DUMP_FORMAT
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
    node_ids = [n["id"] for n in data["nodes"]]
    assert node_ids == sorted(node_ids)


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
