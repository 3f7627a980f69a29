import copy
import hashlib
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import petrimod
from petrimod import evaluate, fixture_path, parse, to_pnml, validate_pnml
from petrimod.errors import NotANet
from petrimod.export import PNML_NS, ptnet_schema
from petrimod.generate import random_net
from petrimod.nets import net_to_module
from petrimod.relaxng import Schema, SchemaError, ValidationError

RNG_NS = "http://relaxng.org/ns/structure/1.0"


def schema(body: str) -> Schema:
    return Schema.from_string(
        f'<grammar xmlns="{RNG_NS}" datatypeLibrary="http://www.w3.org/2001/XMLSchema-datatypes">'
        f"<start>{body}</start></grammar>"
    )


SEQ = schema(
    "<element name='pair'>"
    "<element name='a'><text/></element>"
    "<element name='b'><text/></element>"
    "</element>"
)


def test_sequence_in_order_accepted():
    SEQ.validate_string("<pair><a/><b/></pair>")


@pytest.mark.parametrize(
    "doc",
    [
        "<pair><b/><a/></pair>",  # wrong order
        "<pair><a/></pair>",  # missing element
        "<pair><a/><b/><b/></pair>",  # extra element
        "<pair><a/><c/></pair>",  # unknown element
        "<other/>",
    ],
)
def test_sequence_violations_rejected(doc):
    with pytest.raises(ValidationError):
        SEQ.validate_string(doc)


def test_error_message_names_the_path():
    with pytest.raises(ValidationError, match="/pair"):
        SEQ.validate_string("<pair><b/></pair>")


ATTRS = schema(
    "<element name='e'>"
    "<attribute name='must'><text/></attribute>"
    "<optional><attribute name='may'><value>yes</value></attribute></optional>"
    "</element>"
)


def test_attribute_rules():
    ATTRS.validate_string("<e must='x'/>")
    ATTRS.validate_string("<e must='x' may='yes'/>")
    with pytest.raises(ValidationError, match="required attribute"):
        ATTRS.validate_string("<e/>")
    with pytest.raises(ValidationError):
        ATTRS.validate_string("<e must='x' extra='no'/>")
    with pytest.raises(ValidationError):
        ATTRS.validate_string("<e must='x' may='no'/>")


COUNT = schema(
    "<element name='n'><data type='nonNegativeInteger'/></element>"
)


def test_datatype_checks():
    COUNT.validate_string("<n>0</n>")
    COUNT.validate_string("<n> 42 </n>")
    for bad in ("-1", "abc", "1.5", ""):
        with pytest.raises(ValidationError):
            COUNT.validate_string(f"<n>{bad}</n>")


def test_id_is_checked_lexically():
    s = schema("<element name='e'><attribute name='id'><data type='ID'/></attribute></element>")
    s.validate_string("<e id='fine.name-1'/>")
    with pytest.raises(ValidationError):
        s.validate_string("<e id='has space'/>")
    with pytest.raises(ValidationError):
        s.validate_string("<e id='1starts-with-digit'/>")


def test_choice_and_repetition():
    s = schema(
        "<element name='bag'><zeroOrMore><choice>"
        "<element name='x'><empty/></element>"
        "<element name='y'><empty/></element>"
        "</choice></zeroOrMore></element>"
    )
    s.validate_string("<bag/>")
    s.validate_string("<bag><y/><x/><y/></bag>")
    with pytest.raises(ValidationError):
        s.validate_string("<bag><z/></bag>")


def test_wildcard_subtree():
    s = Schema.from_string(
        f"<grammar xmlns='{RNG_NS}'>"
        "<start><element name='wrap'><ref name='any'/></element></start>"
        "<define name='any'><zeroOrMore><choice>"
        "<element><anyName/><zeroOrMore><attribute><anyName/><text/></attribute></zeroOrMore>"
        "<ref name='any'/></element>"
        "<text/>"
        "</choice></zeroOrMore></define>"
        "</grammar>"
    )
    s.validate_string("<wrap/>")
    s.validate_string("<wrap>free text<odd a='1'><deep b='2'>x</deep></odd></wrap>")


def test_text_forbidden_where_not_allowed():
    s = schema("<element name='e'><element name='i'><empty/></element></element>")
    with pytest.raises(ValidationError, match="text"):
        s.validate_string("<e>words<i/></e>")


def test_unsupported_construct_raises_schema_error():
    with pytest.raises(SchemaError):
        schema(
            "<element name='e'><interleave>"
            "<element name='a'><empty/></element>"
            "<element name='b'><empty/></element>"
            "</interleave></element>"
        )


def test_bundled_schema_loads_and_validates():
    s = ptnet_schema()
    minimal = (
        '<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">'
        '<net id="n1" type="http://www.pnml.org/version-2009/grammar/ptnet">'
        '<page id="p1"/></net></pnml>'
    )
    s.validate_string(minimal)
    with pytest.raises(ValidationError):
        s.validate_string(minimal.replace(' type="http://www.pnml.org/version-2009/grammar/ptnet"', ""))
    with pytest.raises(ValidationError):
        s.validate_string(minimal.replace("/version-2009/grammar/ptnet", "/wrong-type"))


# -- document depth and recursive grammars ----------------------------------------

def test_deep_toolspecific_block_validates_without_recursion(phil_env):
    depth = 5000
    # built as text: ElementTree's serializer recurses once per level
    block = '<toolspecific tool="deep" version="1">' + "<d k='v'>" * depth + "leaf" + "</d>" * depth
    doc = to_pnml(evaluate(phil_env, "phils_in_a_cycle")).replace("<page ", block + "</toolspecific><page ", 1)
    assert sys.getrecursionlimit() <= 1000
    validate_pnml(doc)


def test_bad_leaf_below_deep_nesting_reports_its_full_path():
    s = Schema.from_string(
        f"<grammar xmlns='{RNG_NS}'><start><ref name='d'/></start>"
        "<define name='d'><element name='d'><optional><ref name='d'/></optional></element></define>"
        "</grammar>"
    )
    depth = 5000
    s.validate_string("<d>" * depth + "</d>" * depth)
    with pytest.raises(ValidationError) as err:
        s.validate_string("<d>" * depth + "<bad/>" + "</d>" * depth)
    assert str(err.value) == "/d" * depth + ": element 'bad' not allowed here"


_LOAD_RECURSIVE = """
import sys
from petrimod.relaxng import Schema, SchemaError
try:
    Schema.from_string(sys.argv[1])
except SchemaError as e:
    print("SchemaError:", e)
"""


@pytest.mark.parametrize("body", ["<ref name='a'/>", "<choice><ref name='a'/><empty/></choice>"])
def test_recursion_outside_an_element_is_refused(body):
    grammar = (f"<grammar xmlns='{RNG_NS}'><start><element name='e'><ref name='a'/></element></start>"
               f"<define name='a'>{body}</define></grammar>")
    src = str(Path(petrimod.__file__).resolve().parents[1])
    # a subprocess with a timeout, so a regression that loops fails instead of hanging
    proc = subprocess.run([sys.executable, "-c", _LOAD_RECURSIVE, grammar], capture_output=True, text=True,
                          timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "SchemaError: pattern 'a' refers to itself outside an element\n", proc.stderr


@pytest.mark.parametrize("body, message", [
    ("<element name='e'><choice/></element>", "choice without a pattern"),
    ("<element><name/><empty/></element>", "element pattern with an empty name"),
    ("<element name='e'><attribute><name/></attribute></element>", "attribute pattern with an empty name"),
], ids=["empty-choice", "element-empty-name", "attribute-empty-name"])
def test_malformed_schema_raises_schema_error(body, message):
    with pytest.raises(SchemaError, match=f"^{message}$"):
        schema(body)


def test_unused_define_is_still_compiled():
    with pytest.raises(SchemaError, match="interleave"):
        Schema.from_string(
            f"<grammar xmlns='{RNG_NS}'><start><element name='e'><empty/></element></start>"
            "<define name='unused'><element name='u'><interleave><text/></interleave></element></define>"
            "</grammar>"
        )


def test_ref_is_checked_as_the_pattern_it_names():
    inline = schema("<element name='e'><notAllowed/></element>")
    via_ref = Schema.from_string(
        f"<grammar xmlns='{RNG_NS}'><start><element name='e'><ref name='no'/></element></start>"
        "<define name='no'><notAllowed/></define></grammar>"
    )
    for s in (inline, via_ref):
        with pytest.raises(ValidationError, match=r"^/: element 'e' not allowed here$"):
            s.validate_string("<e x='1'/>")


def test_define_given_twice_is_refused():
    with pytest.raises(SchemaError, match="defined twice"):
        Schema.from_string(
            f"<grammar xmlns='{RNG_NS}'><start><ref name='a'/></start>"
            "<define name='a'><element name='e'><empty/></element></define>"
            "<define name='a'><element name='f'><empty/></element></define>"
            "</grammar>"
        )


# -- seeded mutations of exported PNML ------------------------------------------------

_PNML_TAGS = ["pnml", "net", "page", "place", "transition", "arc", "name", "text",
              "initialMarking", "inscription", "toolspecific", "graphics"]
_ATTRS = ["id", "type", "source", "target", "tool", "version", "extra"]
_VALUES = ["", "x", "1bad", "has space", "n-1", "a1", "0", "-3",
           "http://www.pnml.org/version-2009/grammar/ptnet"]
_TEXTS = ["", "  ", "\n", "0", "7", "-1", "abc", "x y", "007"]


def _mutate(rng: random.Random, root: ET.Element) -> None:
    parent = {child: el for el in root.iter() for child in el}
    elems = list(root.iter())
    el = rng.choice(elems)
    op = rng.randrange(11)
    if op == 0 and el in parent:
        parent[el].remove(el)
    elif op == 1 and el in parent:
        holder = parent[el]
        holder.insert(list(holder).index(el), copy.deepcopy(el))
    elif op == 2 and len(el) > 1:
        k = rng.randrange(len(el) - 1)
        el[k], el[k + 1] = el[k + 1], el[k]
    elif op == 3:
        tag = rng.choice(_PNML_TAGS)
        el.tag = tag if rng.random() < 0.2 else f"{{{PNML_NS}}}{tag}"
    elif op == 4 and el.attrib:
        del el.attrib[rng.choice(sorted(el.attrib))]
    elif op == 5:
        ids = [e.get("id") for e in elems if e.get("id")]
        el.set(rng.choice(_ATTRS), rng.choice(_VALUES + ids[:3]))
    elif op == 6 and el.attrib:
        el.set(rng.choice(sorted(el.attrib)), rng.choice(_VALUES))
    elif op == 7:
        el.text = rng.choice(_TEXTS)
    elif op == 8 and el in parent:
        el.tail = rng.choice(_TEXTS)
    elif op == 9 and el in parent:
        target = rng.choice(elems)
        if target is not el and el not in target.iter():
            parent[el].remove(el)
            target.append(el)
    elif op == 10:
        ET.SubElement(el, f"{{{PNML_NS}}}{rng.choice(_PNML_TAGS)}", {"id": f"x{rng.randrange(9)}"})


def _mutation_verdicts(count: int) -> list[str]:
    """validate_pnml's verdict on `count` seeded mutations of exported nets."""
    docs = []
    for fixture in ("philosophers.hkl", "production.hkl"):
        env = parse(fixture_path(fixture).read_text(encoding="utf-8"))
        for name in env.names():
            try:
                docs.append(to_pnml(evaluate(env, name)))
            except NotANet:
                pass
    rng = random.Random(7)
    docs += [to_pnml(net_to_module(random_net(rng, f"r{k}", max_transitions=5, max_places=6)))
             for k in range(30)]
    verdicts = []
    for seed in range(count):
        rng = random.Random(seed)
        root = ET.fromstring(docs[rng.randrange(len(docs))])
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, root)
        try:
            validate_pnml(ET.tostring(root, encoding="unicode"))
            verdicts.append("valid")
        except ValidationError as e:
            verdicts.append(f"invalid: {e}")
    return verdicts


def test_mutated_exports_get_the_reference_verdicts():
    # The digest was taken by running this body against the validator that
    # recursed once per document level and looked every ref up through an
    # indirection node: every verdict and message must stay the same.
    verdicts = _mutation_verdicts(2000)
    assert verdicts.count("valid") == 483
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert digest == "4bc2d1f95850907224573a5215c7dfe6b74f68c4dfb0a21068dad72361950425"
