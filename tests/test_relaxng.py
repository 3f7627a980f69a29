import copy
import dataclasses
import gc
import hashlib
import os
import random
import re
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import petrimod
from petrimod import evaluate, fixture_path, parse, to_pnml, validate_pnml
from petrimod.errors import NotANet
from petrimod.export import PNML_NS, ptnet_schema
from petrimod.generate import random_net
from petrimod import export, relaxng as rng
from petrimod.nets import net_to_module
from petrimod.relaxng import Schema, SchemaError, ValidationError

from conftest import line_events

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


def test_positive_integer_longer_than_the_int_string_limit():
    s = schema("<element name='n'><data type='positiveInteger'/></element>")
    s.validate_string(f"<n> {'0' * 4999}1 </n>")
    for bad in ("0" * 5000, "0", "-1", "1.0"):
        with pytest.raises(ValidationError, match="^/n: text"):
            s.validate_string(f"<n>{bad}</n>")


def test_id_is_checked_lexically():
    s = schema("<element name='e'><attribute name='id'><data type='ID'/></attribute></element>")
    s.validate_string("<e id='fine.name-1'/>")
    with pytest.raises(ValidationError):
        s.validate_string("<e id='has space'/>")
    with pytest.raises(ValidationError):
        s.validate_string("<e id='1starts-with-digit'/>")


# Unicode spaces that `str.strip()` and `str.split()` would take for whitespace
_OTHER_SPACES = pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u0085"], ids=["no-break", "em", "next-line"])


@_OTHER_SPACES
def test_only_xml_whitespace_surrounds_a_datatype_or_value(space):
    ids = schema("<element name='e'><attribute name='id'><data type='ID'/></attribute></element>")
    COUNT.validate_string("<n>&#9;42&#13;&#10; </n>")
    ATTRS.validate_string("<e must='x' may='&#9; yes&#10;'/>")
    ids.validate_string("<e id='&#13;a&#9;'/>")
    for s, doc in [(COUNT, f"<n>42{space}</n>"), (ATTRS, f"<e must='x' may='yes{space}'/>"),
                   (ids, f"<e id='{space}a'/>")]:
        with pytest.raises(ValidationError):
            s.validate_string(doc)


@_OTHER_SPACES
def test_only_xml_whitespace_is_insignificant_in_an_export(phil_env, space):
    doc = to_pnml(evaluate(phil_env, "phils_in_a_cycle"))
    between = "</name>\n        <initialMarking>"
    marking = "<initialMarking>\n          <text>1</text>"
    assert between in doc and marking in doc

    def verdict(old, new):
        changed = doc.replace(old, new, 1)
        got = _verdict(validate_pnml, changed)
        assert got == _verdict(reference_validate, ptnet_schema(), ET.fromstring(changed))
        return got

    for ws in (" \t", "&#13;"):
        assert verdict(between, f"</name>{ws}<initialMarking>") == "valid"
        assert verdict(marking, f"<initialMarking><text>{ws}1{ws}</text>") == "valid"
    assert verdict(between, f"</name>{space}<initialMarking>") == (
        f"invalid: /pnml/net/page/place: text {space!r} not allowed")
    assert verdict(between, "</name>x<initialMarking>") == "invalid: /pnml/net/page/place: text 'x' not allowed"
    assert verdict(marking, f"<initialMarking><text>1{space}</text>") == (
        f"invalid: /pnml/net/page/place/initialMarking/text: text {'1' + space!r} not allowed")


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


def _bundled_schema() -> Schema:
    return Schema.from_string(resources.files("petrimod").joinpath("schema/ptnet.rng").read_text(encoding="utf-8"))


def _table_sizes(s: Schema) -> dict:
    return {"interned": len(s._interned), **{name: len(table) for name, table in s._memo.items()}}


@pytest.mark.parametrize("after", ["", "<bogus/>"])
def test_deep_document_leaves_no_states_in_the_shared_schema(phil_env, after):
    doc = to_pnml(evaluate(phil_env, "phils_in_a_cycle"))
    depth = 5000
    block = '<toolspecific tool="deep" version="1">' + "<d k='v'>" * depth + "leaf" + "</d>" * depth
    deep = doc.replace("<page ", block + "</toolspecific>" + after + "<page ", 1)
    if after:  # the walk fails only once the deep block is through
        with pytest.raises(ValidationError, match="element 'bogus' not allowed here"):
            validate_pnml(deep)
    else:
        validate_pnml(deep)
    assert export._schema is None  # past the bound, so dropped
    validate_pnml(doc)
    fresh = _bundled_schema()
    fresh.validate_string(doc)
    assert _table_sizes(ptnet_schema()) == _table_sizes(fresh)
    assert fresh.table_size() < export._SCHEMA_TABLE_BOUND // 10


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


# -- reference engine ---------------------------------------------------------------
# The derivative functions as they were before patterns were hash-consed and
# derivatives memoised, kept as the oracle for the memoised ones.  They build
# patterns without interning, so `choice` compares them by their fields (an
# ElementP by identity), as the patterns' dataclass equality once did.

# XML whitespace and the datatypes' lexical spaces, kept apart from the
# validator's own: XML whitespace is space, tab, CR and LF, nothing else.
_REF_WS = "[ \t\r\n]"
_REF_LEXICAL = {"NCName": r"[A-Za-z_][A-Za-z0-9._\-]*", "nonNegativeInteger": "[0-9]+",
                "positiveInteger": "0*[1-9][0-9]*"}
_REF_LEXICAL["ID"] = _REF_LEXICAL["IDREF"] = _REF_LEXICAL["NCName"]


def ref_is_ws(s: str) -> bool:
    return re.fullmatch(f"{_REF_WS}*", s) is not None


def ref_collapse(s: str) -> str:
    return " ".join(word for word in re.split(_REF_WS, s) if word)


def ref_datatype_accepts(type_name: str, s: str) -> bool:
    lexical = _REF_LEXICAL.get(type_name)  # string, token and anyURI take any text
    return lexical is None or re.fullmatch(f"{_REF_WS}*(?:{lexical}){_REF_WS}*", s) is not None


def _same(p, q) -> bool:
    if p is q or not isinstance(p, rng.Pattern):
        return p == q
    return type(p) is type(q) and not isinstance(p, rng.ElementP) and all(
        _same(getattr(p, f.name), getattr(q, f.name)) for f in dataclasses.fields(p))


def ref_choice(p1, p2):
    if isinstance(p1, rng.NotAllowed):
        return p2
    if isinstance(p2, rng.NotAllowed):
        return p1
    if _same(p1, p2):
        return p1
    return rng.Choice(p1, p2)


def ref_group(p1, p2):
    if isinstance(p1, rng.NotAllowed) or isinstance(p2, rng.NotAllowed):
        return rng._NOT_ALLOWED
    if isinstance(p1, rng.Empty):
        return p2
    if isinstance(p2, rng.Empty):
        return p1
    return rng.Group(p1, p2)


def ref_after(p1, p2):
    if isinstance(p1, rng.NotAllowed) or isinstance(p2, rng.NotAllowed):
        return rng._NOT_ALLOWED
    return rng.After(p1, p2)


def ref_one_or_more(p):
    if isinstance(p, rng.NotAllowed):
        return rng._NOT_ALLOWED
    return rng.OneOrMore(p)


def ref_nullable(p) -> bool:
    if isinstance(p, (rng.Empty, rng.Text)):
        return True
    if isinstance(p, rng.Group):
        return ref_nullable(p.p1) and ref_nullable(p.p2)
    if isinstance(p, rng.Choice):
        return ref_nullable(p.p1) or ref_nullable(p.p2)
    if isinstance(p, rng.OneOrMore):
        return ref_nullable(p.p)
    return False


def ref_apply_after(f, p):
    if isinstance(p, rng.After):
        return ref_after(p.p1, f(p.p2))
    if isinstance(p, rng.Choice):
        return ref_choice(ref_apply_after(f, p.p1), ref_apply_after(f, p.p2))
    if isinstance(p, rng.NotAllowed):
        return rng._NOT_ALLOWED
    raise AssertionError(f"apply_after on {type(p).__name__}")


def ref_start_tag_open_deriv(p, qn):
    if isinstance(p, rng.Choice):
        return ref_choice(ref_start_tag_open_deriv(p.p1, qn), ref_start_tag_open_deriv(p.p2, qn))
    if isinstance(p, rng.ElementP):
        return ref_after(p.p, rng._EMPTY) if p.nc.contains(qn) else rng._NOT_ALLOWED
    if isinstance(p, rng.After):
        return ref_apply_after(lambda x: ref_after(x, p.p2), ref_start_tag_open_deriv(p.p1, qn))
    if isinstance(p, rng.Group):
        x = ref_apply_after(lambda q: ref_group(q, p.p2), ref_start_tag_open_deriv(p.p1, qn))
        return ref_choice(x, ref_start_tag_open_deriv(p.p2, qn)) if ref_nullable(p.p1) else x
    if isinstance(p, rng.OneOrMore):
        rest = ref_choice(rng.OneOrMore(p.p), rng._EMPTY)
        return ref_apply_after(lambda q: ref_group(q, rest), ref_start_tag_open_deriv(p.p, qn))
    return rng._NOT_ALLOWED


def ref_att_deriv(p, qn, value):
    if isinstance(p, rng.After):
        return ref_after(ref_att_deriv(p.p1, qn, value), p.p2)
    if isinstance(p, rng.Choice):
        return ref_choice(ref_att_deriv(p.p1, qn, value), ref_att_deriv(p.p2, qn, value))
    if isinstance(p, rng.Group):
        return ref_choice(
            ref_group(ref_att_deriv(p.p1, qn, value), p.p2),
            ref_group(p.p1, ref_att_deriv(p.p2, qn, value)),
        )
    if isinstance(p, rng.OneOrMore):
        return ref_group(ref_att_deriv(p.p, qn, value), ref_choice(rng.OneOrMore(p.p), rng._EMPTY))
    if isinstance(p, rng.AttributeP):
        if p.nc.contains(qn) and ref_value_match(p.p, value):
            return rng._EMPTY
        return rng._NOT_ALLOWED
    return rng._NOT_ALLOWED


def ref_value_match(p, s):
    return (ref_nullable(p) and ref_is_ws(s)) or ref_nullable(ref_text_deriv(p, s))


def ref_start_tag_close_deriv(p):
    if isinstance(p, rng.After):
        return ref_after(ref_start_tag_close_deriv(p.p1), p.p2)
    if isinstance(p, rng.Choice):
        return ref_choice(ref_start_tag_close_deriv(p.p1), ref_start_tag_close_deriv(p.p2))
    if isinstance(p, rng.Group):
        return ref_group(ref_start_tag_close_deriv(p.p1), ref_start_tag_close_deriv(p.p2))
    if isinstance(p, rng.OneOrMore):
        return ref_one_or_more(ref_start_tag_close_deriv(p.p))
    if isinstance(p, rng.AttributeP):
        return rng._NOT_ALLOWED
    return p


def ref_text_deriv(p, s):
    if isinstance(p, rng.Choice):
        return ref_choice(ref_text_deriv(p.p1, s), ref_text_deriv(p.p2, s))
    if isinstance(p, rng.After):
        return ref_after(ref_text_deriv(p.p1, s), p.p2)
    if isinstance(p, rng.Group):
        x = ref_group(ref_text_deriv(p.p1, s), p.p2)
        return ref_choice(x, ref_text_deriv(p.p2, s)) if ref_nullable(p.p1) else x
    if isinstance(p, rng.OneOrMore):
        return ref_group(ref_text_deriv(p.p, s), ref_choice(rng.OneOrMore(p.p), rng._EMPTY))
    if isinstance(p, rng.Text):
        return p
    if isinstance(p, rng.Data):
        return rng._EMPTY if ref_datatype_accepts(p.type, s) else rng._NOT_ALLOWED
    if isinstance(p, rng.Value):
        return rng._EMPTY if ref_collapse(s) == ref_collapse(p.value) else rng._NOT_ALLOWED
    return rng._NOT_ALLOWED


def ref_end_tag_deriv(p):
    if isinstance(p, rng.Choice):
        return ref_choice(ref_end_tag_deriv(p.p1), ref_end_tag_deriv(p.p2))
    if isinstance(p, rng.After):
        return p.p2 if ref_nullable(p.p1) else rng._NOT_ALLOWED
    return rng._NOT_ALLOWED


def _ref_check(p, what, names):
    if isinstance(p, rng.NotAllowed):
        raise ValidationError(f"/{'/'.join(names)}: {what}")
    return p


def ref_walk(p, root):
    names = []
    stack = [root]
    while stack:
        item = stack.pop()
        if item is None:
            p = _ref_check(ref_end_tag_deriv(p), "content incomplete", names)
            names.pop()
        elif isinstance(item, str):
            p = _ref_check(ref_text_deriv(p, item), f"text {item!r} not allowed", names)
        else:
            qn = rng._qname(item.tag)
            p = _ref_check(ref_start_tag_open_deriv(p, qn), f"element {qn[1]!r} not allowed here", names)
            names.append(qn[1])
            for key, value in item.items():
                p = _ref_check(ref_att_deriv(p, rng._qname(key), value), f"attribute {key}={value!r} not allowed", names)
            p = _ref_check(ref_start_tag_close_deriv(p), "required attribute missing", names)
            stack.append(None)
            if len(item):
                seq = [item.text]
                for child in item:
                    seq += (child, child.tail)
                stack += [x for x in reversed(seq) if isinstance(x, ET.Element) or (x and not ref_is_ws(x))]
            else:
                s = item.text or ""
                d = ref_text_deriv(p, s)
                p = ref_choice(d, p) if ref_is_ws(s) else _ref_check(d, f"text {s!r} not allowed", names)
    return p


def reference_validate(schema: Schema, root: ET.Element) -> None:
    if not ref_nullable(ref_walk(schema.start, root)):
        raise ValidationError("/: document incomplete")


def _verdict(check, *args) -> str:
    try:
        check(*args)
        return "valid"
    except ValidationError as e:
        return f"invalid: {e}"


# -- seeded random grammars and documents ---------------------------------------------
# A grammar is a tree of tuples, (kind, *fields), that both serialises to RELAX NG
# and samples documents; defines are elements, so recursion passes through one.

_NAMES = ["a", "b", "c"]
_TYPES = ["string", "token", "NCName", "ID", "nonNegativeInteger", "positiveInteger"]
_WORDS = ["", " ", "x", "a b", "1bad", "0", "7", "-1", "007", " 3 ", "yes"]


def _random_attribute_content(r: random.Random):
    return r.choice([("text",), ("empty",), ("data", r.choice(_TYPES)), ("value", r.choice(_WORDS)),
                     ("choice", ("value", r.choice(_WORDS)), ("value", r.choice(_WORDS)))])


def _random_pattern(r: random.Random, depth: int, defines: int):
    leaves = ["text", "empty", "data", "value", "attribute", "notAllowed"] + ["ref"] * bool(defines)
    kind = r.choice(leaves) if depth == 0 or r.random() < 0.15 else r.choice(
        ["element"] * 3 + ["group"] * 2 + ["choice", "optional", "zeroOrMore", "oneOrMore", "attribute"])
    name = r.choice(_NAMES + [None] * (r.random() < 0.1))
    if kind == "element":
        return (kind, name, _random_pattern(r, depth - 1, defines))
    if kind == "attribute":
        return (kind, name, _random_attribute_content(r))
    if kind in ("group", "choice"):
        return (kind, _random_pattern(r, depth - 1, defines), _random_pattern(r, depth - 1, defines))
    if kind in ("optional", "zeroOrMore", "oneOrMore"):
        return (kind, _random_pattern(r, depth - 1, defines))
    if kind == "data":
        return (kind, r.choice(_TYPES))
    if kind == "value":
        return (kind, r.choice(_WORDS))
    if kind == "ref":
        return (kind, r.randrange(defines))
    return (kind,)


def _grammar_xml(p) -> str:
    kind = p[0]
    if kind in ("element", "attribute"):
        name = f' name="{p[1]}"' if p[1] else ""
        return f"<{kind}{name}>{'' if p[1] else '<anyName/>'}{_grammar_xml(p[2])}</{kind}>"
    if kind in ("group", "choice", "optional", "zeroOrMore", "oneOrMore"):
        return f"<{kind}>{''.join(_grammar_xml(c) for c in p[1:])}</{kind}>"
    if kind == "data":
        return f'<data type="{p[1]}"/>'
    if kind == "value":
        return f"<value>{p[1]}</value>"
    if kind == "ref":
        return f'<ref name="d{p[1]}"/>'
    return f"<{kind}/>"


def _sample_value(r: random.Random, p) -> str:
    if p[0] == "value" or (p[0] == "choice" and r.random() < 0.8):
        return (p if p[0] == "value" else r.choice(p[1:]))[1]
    if p[0] == "data" and p[1] in ("NCName", "ID"):
        return r.choice(["a1", "n-2", "1bad", "x y"])
    return r.choice(_WORDS)


def _sample(r: random.Random, p, defines: list, depth: int, attrs: dict, content: list) -> None:
    """Add to attrs and content what a document matching p might hold."""
    kind = p[0]
    if kind == "element":
        el = ET.Element(p[1] or r.choice(_NAMES + ["z"]))
        inner: list = []
        if depth < 5:
            _sample(r, p[2], defines, depth + 1, el.attrib, inner)
        last = None
        for item in inner:
            if isinstance(item, str):
                if last is None:
                    el.text = (el.text or "") + item
                else:
                    last.tail = (last.tail or "") + item
            else:
                el.append(item)
                last = item
        content.append(el)
    elif kind == "attribute":
        attrs[p[1] or r.choice(_NAMES)] = _sample_value(r, p[2])
    elif kind == "group":
        _sample(r, p[1], defines, depth, attrs, content)
        _sample(r, p[2], defines, depth, attrs, content)
    elif kind == "choice":
        _sample(r, r.choice(p[1:]), defines, depth, attrs, content)
    elif kind in ("optional", "zeroOrMore", "oneOrMore"):
        low = 1 if kind == "oneOrMore" else 0
        for _ in range(r.randint(low, 1 if kind == "optional" or depth > 3 else 3)):
            _sample(r, p[1], defines, depth, attrs, content)
    elif kind in ("text", "value", "data"):
        content.append(p[1] if kind == "value" else _sample_value(r, p))
    elif kind == "ref":
        _sample(r, defines[p[1]], defines, depth, attrs, content)


def _random_document(r: random.Random, start, defines: list) -> ET.Element:
    content: list = []
    _sample(r, start, defines, 0, {}, content)
    elements = [c for c in content if isinstance(c, ET.Element)]
    root = elements[0] if elements else ET.Element(r.choice(_NAMES))
    for _ in range(r.choice([0, 0, 1, 2])):  # some light damage
        el = r.choice(list(root.iter()))
        op = r.randrange(4)
        if op == 0 and len(el):
            el.remove(r.choice(list(el)))
        elif op == 1:
            el.set(r.choice(_NAMES), r.choice(_WORDS))
        elif op == 2:
            el.text = r.choice(_WORDS)
        else:
            el.tag = r.choice(_NAMES + ["z"])
    return root


def test_memoised_validator_matches_the_reference_on_random_grammars():
    seen: Counter = Counter()
    for seed in range(3000):
        r = random.Random(seed)
        defines = [("element", r.choice(_NAMES), None) for _ in range(r.randint(0, 2))]
        defines = [(kind, name, _random_pattern(r, 5, len(defines))) for kind, name, _ in defines]
        start = ("element", r.choice(_NAMES), _random_pattern(r, 5, len(defines)))
        s = Schema.from_string(
            f"<grammar xmlns='{RNG_NS}'><start>{_grammar_xml(start)}</start>"
            + "".join(f"<define name='d{k}'>{_grammar_xml(d)}</define>" for k, d in enumerate(defines))
            + "</grammar>")
        for _ in range(20):  # one schema, so later documents meet a warm memo
            root = _random_document(r, start, defines)
            want = _verdict(reference_validate, s, root)
            assert _verdict(s.validate, root) == want, (seed, ET.tostring(root))
            seen[want.split(":")[0] if want == "valid" else want.rsplit(": ", 1)[1].split(" ")[0]] += 1
    assert seen["valid"] >= 10_000, seen
    for message in ("element", "attribute", "text", "content", "required"):
        assert seen[message] >= 500, seen


def test_memoised_validator_matches_the_reference_on_random_nets():
    s = ptnet_schema()
    r = random.Random(11)
    for k in range(150):
        root = ET.fromstring(to_pnml(net_to_module(random_net(r, f"r{k}", max_transitions=6, max_places=8))))
        assert _verdict(s.validate, root) == "valid" == _verdict(reference_validate, s, root)
        for _ in range(r.randint(1, 3)):
            _mutate(r, root)
        assert _verdict(s.validate, root) == _verdict(reference_validate, s, root)


# -- work per element -------------------------------------------------------------------

def _ring_root(n: int) -> ET.Element:
    """The parsed export of the n-philosopher ring, 5n nodes."""
    src = fixture_path("philosophers.hkl").read_text(encoding="utf-8")
    env = parse(src + "\nring := (" + " . ".join(["phil_with_forks"] * n) + ")^c\n")
    return ET.fromstring(to_pnml(evaluate(env, "ring")))


def _relaxng_work_validating_ring(n: int) -> tuple[int, int]:
    """Line events inside relaxng.py while a fresh copy of the bundled schema
    validates the n-philosopher ring's export, and the memo entries it made."""
    root = _ring_root(n)
    s = _bundled_schema()
    count, _ = line_events(rng.__file__, lambda: s.validate(root))
    return count, sum(len(table) for table in s._memo.values())


def test_validating_ring_exports_is_flat_work_per_element():
    short, short_misses = _relaxng_work_validating_ring(100)
    long, long_misses = _relaxng_work_validating_ring(200)
    # every memo miss is a schema state, so twice the elements meet no new one
    assert short_misses == long_misses, (short_misses, long_misses)
    assert long / short <= 2.2, (short, long)


def test_a_warm_schema_derives_nothing(monkeypatch):
    roots = [_ring_root(100), _ring_root(200)]
    s = _bundled_schema()
    loaded = s.table_size()  # the patterns interned while compiling
    derived = []
    derive = rng._Table.__missing__
    monkeypatch.setattr(rng._Table, "__missing__", lambda table, key: derived.append(key) or derive(table, key))
    s.validate(roots[0])
    assert len(derived) == s.table_size() - loaded  # each new entry is derived once, here
    derived.clear()
    for root in roots:  # the same ring again, then one twice its size
        s.validate(root)
    assert derived == []


def test_table_sizes_after_the_thousand_node_ring_are_pinned():
    s = _bundled_schema()
    s.validate(_ring_root(200))
    assert _table_sizes(s) == {"interned": 130, "nullable": 35, "open": 102, "value_tests": 139, "att": 108,
                               "close": 57, "text": 20, "end": 18}
    assert s.table_size() == 609


def test_a_dropped_schema_is_freed_at_once():
    s = _bundled_schema()
    s.validate(_ring_root(10))
    freed = weakref.ref(s)
    was_on = gc.isenabled()
    gc.disable()
    try:
        del s
        assert freed() is None  # by reference counting alone: no cycle runs through the tables
    finally:
        if was_on:
            gc.enable()
