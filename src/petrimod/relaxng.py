"""A small RELAX NG validator built on Brzozowski-style derivatives.

Covers the constructs the bundled net schema needs: grammar/start/define/ref,
element, attribute, group, choice, optional, zeroOrMore, oneOrMore, text,
empty, notAllowed, data, value, and the anyName name class.  Interleave,
name-class except, list, and mixed are out of scope and rejected at load
time, so a schema that parses here means exactly what this validator checks.

References are compiled away at load, so recursion must pass through an
element, as RELAX NG's simplification requires; documents are walked with an
explicit stack, never by recursion on their depth.

Datatypes are the xsd library subset used by the schema: string, token,
NCName, ID, IDREF, anyURI, nonNegativeInteger, positiveInteger.  ID/IDREF
get only their lexical check, as plain RELAX NG prescribes.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

__all__ = ["Schema", "ValidationError", "RELAXNG_NS"]

RELAXNG_NS = "http://relaxng.org/ns/structure/1.0"


class ValidationError(Exception):
    """Document does not match the schema; message names the spot."""


class SchemaError(Exception):
    """The schema itself uses something this validator does not support."""


# -- name classes --------------------------------------------------------------

@dataclass(frozen=True)
class AnyName:
    def contains(self, qn: tuple[str, str]) -> bool:
        return True


@dataclass(frozen=True)
class Name:
    ns: str
    local: str

    def contains(self, qn: tuple[str, str]) -> bool:
        return qn == (self.ns, self.local)


# -- patterns -------------------------------------------------------------------

class Pattern:
    __slots__ = ()


@dataclass(frozen=True)
class Empty(Pattern):
    pass


@dataclass(frozen=True)
class NotAllowed(Pattern):
    pass


@dataclass(frozen=True)
class Text(Pattern):
    pass


@dataclass(frozen=True)
class Choice(Pattern):
    p1: Pattern
    p2: Pattern


@dataclass(frozen=True)
class Group(Pattern):
    p1: Pattern
    p2: Pattern


@dataclass(frozen=True)
class OneOrMore(Pattern):
    p: Pattern


@dataclass(eq=False)
class ElementP(Pattern):
    # one object per element pattern, compared by identity, so equality never
    # follows a recursive grammar's cycle; p is set once the grammar is read
    nc: AnyName | Name
    p: Pattern


@dataclass(frozen=True)
class AttributeP(Pattern):
    nc: AnyName | Name
    p: Pattern


@dataclass(frozen=True)
class Data(Pattern):
    type: str


@dataclass(frozen=True)
class Value(Pattern):
    value: str


@dataclass(frozen=True)
class After(Pattern):
    p1: Pattern
    p2: Pattern


_EMPTY = Empty()
_NOT_ALLOWED = NotAllowed()
_TEXT = Text()


# smart constructors keep the derivative small

def choice(p1: Pattern, p2: Pattern) -> Pattern:
    if isinstance(p1, NotAllowed):
        return p2
    if isinstance(p2, NotAllowed):
        return p1
    if p1 == p2:
        return p1
    return Choice(p1, p2)


def group(p1: Pattern, p2: Pattern) -> Pattern:
    if isinstance(p1, NotAllowed) or isinstance(p2, NotAllowed):
        return _NOT_ALLOWED
    if isinstance(p1, Empty):
        return p2
    if isinstance(p2, Empty):
        return p1
    return Group(p1, p2)


def after(p1: Pattern, p2: Pattern) -> Pattern:
    if isinstance(p1, NotAllowed) or isinstance(p2, NotAllowed):
        return _NOT_ALLOWED
    return After(p1, p2)


def one_or_more(p: Pattern) -> Pattern:
    if isinstance(p, NotAllowed):
        return _NOT_ALLOWED
    return OneOrMore(p)


# -- derivative core ------------------------------------------------------------

def nullable(p: Pattern) -> bool:
    if isinstance(p, (Empty, Text)):
        return True
    if isinstance(p, Group):
        return nullable(p.p1) and nullable(p.p2)
    if isinstance(p, Choice):
        return nullable(p.p1) or nullable(p.p2)
    if isinstance(p, OneOrMore):
        return nullable(p.p)
    return False


def apply_after(f, p: Pattern) -> Pattern:
    if isinstance(p, After):
        return after(p.p1, f(p.p2))
    if isinstance(p, Choice):
        return choice(apply_after(f, p.p1), apply_after(f, p.p2))
    if isinstance(p, NotAllowed):
        return _NOT_ALLOWED
    raise AssertionError(f"apply_after on {type(p).__name__}")


def start_tag_open_deriv(p: Pattern, qn: tuple[str, str]) -> Pattern:
    if isinstance(p, Choice):
        return choice(start_tag_open_deriv(p.p1, qn), start_tag_open_deriv(p.p2, qn))
    if isinstance(p, ElementP):
        return after(p.p, _EMPTY) if p.nc.contains(qn) else _NOT_ALLOWED
    if isinstance(p, After):
        return apply_after(lambda x: after(x, p.p2), start_tag_open_deriv(p.p1, qn))
    if isinstance(p, Group):
        x = apply_after(lambda q: group(q, p.p2), start_tag_open_deriv(p.p1, qn))
        return choice(x, start_tag_open_deriv(p.p2, qn)) if nullable(p.p1) else x
    if isinstance(p, OneOrMore):
        rest = choice(OneOrMore(p.p), _EMPTY)
        return apply_after(lambda q: group(q, rest), start_tag_open_deriv(p.p, qn))
    return _NOT_ALLOWED


def att_deriv(p: Pattern, qn: tuple[str, str], value: str) -> Pattern:
    if isinstance(p, After):
        return after(att_deriv(p.p1, qn, value), p.p2)
    if isinstance(p, Choice):
        return choice(att_deriv(p.p1, qn, value), att_deriv(p.p2, qn, value))
    if isinstance(p, Group):
        return choice(
            group(att_deriv(p.p1, qn, value), p.p2),
            group(p.p1, att_deriv(p.p2, qn, value)),
        )
    if isinstance(p, OneOrMore):
        return group(att_deriv(p.p, qn, value), choice(OneOrMore(p.p), _EMPTY))
    if isinstance(p, AttributeP):
        if p.nc.contains(qn) and _value_match(p.p, value):
            return _EMPTY
        return _NOT_ALLOWED
    return _NOT_ALLOWED


def _value_match(p: Pattern, s: str) -> bool:
    return (nullable(p) and _is_ws(s)) or nullable(text_deriv(p, s))


def start_tag_close_deriv(p: Pattern) -> Pattern:
    if isinstance(p, After):
        return after(start_tag_close_deriv(p.p1), p.p2)
    if isinstance(p, Choice):
        return choice(start_tag_close_deriv(p.p1), start_tag_close_deriv(p.p2))
    if isinstance(p, Group):
        return group(start_tag_close_deriv(p.p1), start_tag_close_deriv(p.p2))
    if isinstance(p, OneOrMore):
        return one_or_more(start_tag_close_deriv(p.p))
    if isinstance(p, AttributeP):
        return _NOT_ALLOWED
    return p


def text_deriv(p: Pattern, s: str) -> Pattern:
    if isinstance(p, Choice):
        return choice(text_deriv(p.p1, s), text_deriv(p.p2, s))
    if isinstance(p, After):
        return after(text_deriv(p.p1, s), p.p2)
    if isinstance(p, Group):
        x = group(text_deriv(p.p1, s), p.p2)
        return choice(x, text_deriv(p.p2, s)) if nullable(p.p1) else x
    if isinstance(p, OneOrMore):
        return group(text_deriv(p.p, s), choice(OneOrMore(p.p), _EMPTY))
    if isinstance(p, Text):
        return p
    if isinstance(p, Data):
        return _EMPTY if _DATATYPES[p.type](s) else _NOT_ALLOWED
    if isinstance(p, Value):
        return _EMPTY if _collapse(s) == _collapse(p.value) else _NOT_ALLOWED
    return _NOT_ALLOWED


def end_tag_deriv(p: Pattern) -> Pattern:
    if isinstance(p, Choice):
        return choice(end_tag_deriv(p.p1), end_tag_deriv(p.p2))
    if isinstance(p, After):
        return p.p2 if nullable(p.p1) else _NOT_ALLOWED
    return _NOT_ALLOWED


# -- datatypes -------------------------------------------------------------------

_NCNAME = re.compile(r"[A-Za-z_][A-Za-z0-9._\-]*\Z")
_DIGITS = re.compile(r"[0-9]+\Z")

_DATATYPES = {
    "string": lambda s: True,
    "token": lambda s: True,
    "anyURI": lambda s: True,
    "NCName": lambda s: bool(_NCNAME.match(s.strip())),
    "ID": lambda s: bool(_NCNAME.match(s.strip())),
    "IDREF": lambda s: bool(_NCNAME.match(s.strip())),
    "nonNegativeInteger": lambda s: bool(_DIGITS.match(s.strip())),
    "positiveInteger": lambda s: bool(_DIGITS.match(s.strip())) and int(s) > 0,
}


def _is_ws(s: str) -> bool:
    return s.strip() == ""


def _collapse(s: str) -> str:
    return " ".join(s.split())


# -- document walk ----------------------------------------------------------------

def _qname(tag: str) -> tuple[str, str]:
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        return ns, local
    return "", tag


def _check(p: Pattern, what: str, names: list[str]) -> Pattern:
    if isinstance(p, NotAllowed):
        raise ValidationError(f"/{'/'.join(names)}: {what}")
    return p


def _walk(p: Pattern, root: ET.Element) -> Pattern:
    """Derive p by a whole document, one start tag, text or end tag at a time.

    The stack holds what is left to visit, next item last: an element,
    non-whitespace text, or an element's end (None).  The After patterns hold
    what follows each open element, so nothing recurses on document depth.
    """
    names: list[str] = []  # the open elements, outermost first
    stack: list[ET.Element | str | None] = [root]
    while stack:
        item = stack.pop()
        if item is None:
            p = _check(end_tag_deriv(p), "content incomplete", names)
            names.pop()
        elif isinstance(item, str):
            p = _check(text_deriv(p, item), f"text {item!r} not allowed", names)
        else:
            qn = _qname(item.tag)
            p = _check(start_tag_open_deriv(p, qn), f"element {qn[1]!r} not allowed here", names)
            names.append(qn[1])
            for key, value in item.items():
                p = _check(att_deriv(p, _qname(key), value), f"attribute {key}={value!r} not allowed", names)
            p = _check(start_tag_close_deriv(p), "required attribute missing", names)
            stack.append(None)
            if len(item):
                # mixed content: whitespace between child elements is insignificant
                seq: list = [item.text]
                for child in item:
                    seq += (child, child.tail)
                stack += [x for x in reversed(seq) if isinstance(x, ET.Element) or (x and not _is_ws(x))]
            else:
                s = item.text or ""
                d = text_deriv(p, s)
                p = choice(d, p) if _is_ws(s) else _check(d, f"text {s!r} not allowed", names)
    return p


# -- schema loading ----------------------------------------------------------------

_SUPPORTED = {
    "element", "attribute", "group", "choice", "optional", "zeroOrMore",
    "oneOrMore", "text", "empty", "notAllowed", "data", "value", "ref",
    "anyName", "name",
}


class Schema:
    """Compiled grammar; validate() raises ValidationError on the first defect."""

    def __init__(self, start: Pattern):
        self.start = start

    @classmethod
    def from_string(cls, text: str) -> "Schema":
        root = ET.fromstring(text)
        if _qname(root.tag) != (RELAXNG_NS, "grammar"):
            raise SchemaError("top element must be a RELAX NG grammar")
        default_ns = root.get("ns", "")
        start_el = None
        defines: dict[str, ET.Element] = {}
        for child in root:
            ns, local = _qname(child.tag)
            if ns != RELAXNG_NS:
                continue
            if local == "start":
                start_el = child
            elif local == "define":
                if child.get("name") in defines:
                    raise SchemaError(f"pattern {child.get('name')!r} defined twice")
                defines[child.get("name")] = child
            else:
                raise SchemaError(f"unsupported grammar child {local!r}")
        if start_el is None:
            raise SchemaError("grammar has no start")
        # define elements, compiled defines (None while compiling), and
        # element patterns whose content is still to compile
        ctx = (defines, {}, [], default_ns)
        start = _compile_seq(list(start_el), ctx, default_ns)
        for name in defines:
            _ref(name, ctx)
        pending = ctx[2]
        while pending:
            elem, children, ns = pending.pop()
            elem.p = _compile_seq(children, ctx, ns)
        return cls(start)

    def validate(self, root: ET.Element) -> None:
        if not nullable(_walk(self.start, root)):
            raise ValidationError("/: document incomplete")

    def validate_string(self, text: str) -> None:
        self.validate(ET.fromstring(text))


def _ref(name: str, ctx: tuple) -> Pattern:
    defines, compiled, _, default_ns = ctx
    if name not in defines:
        raise SchemaError(f"ref to undefined pattern {name!r}")
    if name not in compiled:
        compiled[name] = None  # reached again before this returns: recursion outside an element
        compiled[name] = _compile_seq(list(defines[name]), ctx, default_ns)
    elif compiled[name] is None:
        raise SchemaError(f"pattern {name!r} refers to itself outside an element")
    return compiled[name]


def _compile_seq(elems: list[ET.Element], ctx: tuple, ns: str) -> Pattern:
    out: Pattern = _EMPTY
    for e in elems:
        if _qname(e.tag)[0] == RELAXNG_NS:
            out = group(out, _compile(e, ctx, ns))
    return out


def _name_class(el: ET.Element, ns: str):
    """Pull the name class out of an element/attribute pattern definition.

    Returns (name class, remaining child patterns).
    """
    children = [c for c in el if _qname(c.tag)[0] == RELAXNG_NS]
    explicit = el.get("name")
    if explicit is not None:
        return Name(el.get("ns", ns), explicit), children
    if children and _qname(children[0].tag)[1] == "anyName":
        if len(children[0]):
            raise SchemaError("anyName with except is unsupported")
        return AnyName(), children[1:]
    if children and _qname(children[0].tag)[1] == "name":
        name = (children[0].text or "").strip()
        if not name:
            raise SchemaError(f"{_qname(el.tag)[1]} pattern with an empty name")
        return Name(children[0].get("ns", ns), name), children[1:]
    raise SchemaError(f"{_qname(el.tag)[1]} pattern without a name class")


def _compile(el: ET.Element, ctx: tuple, ns: str) -> Pattern:
    local = _qname(el.tag)[1]
    if local not in _SUPPORTED:
        raise SchemaError(f"unsupported RELAX NG construct {local!r}")
    if local == "element":
        ns = el.get("ns", ns)
        nc, children = _name_class(el, ns)
        elem = ElementP(nc, _NOT_ALLOWED)
        ctx[2].append((elem, children, ns))  # content compiled after the whole grammar
        return elem
    if local == "attribute":
        # RELAX NG: the inherited ns does not apply to attribute names
        nc, children = _name_class(el, "")
        content = _compile_seq(children, ctx, ns)
        return AttributeP(nc, _TEXT if isinstance(content, Empty) else content)
    if local == "group":
        return _compile_seq(list(el), ctx, ns)
    if local == "choice":
        parts = [_compile(c, ctx, ns) for c in el if _qname(c.tag)[0] == RELAXNG_NS]
        if not parts:
            raise SchemaError("choice without a pattern")
        out = parts[0]
        for part in parts[1:]:
            out = choice(out, part)
        return out
    if local == "optional":
        return choice(_compile_seq(list(el), ctx, ns), _EMPTY)
    if local == "zeroOrMore":
        return choice(OneOrMore(_compile_seq(list(el), ctx, ns)), _EMPTY)
    if local == "oneOrMore":
        return OneOrMore(_compile_seq(list(el), ctx, ns))
    if local == "text":
        return _TEXT
    if local == "empty":
        return _EMPTY
    if local == "notAllowed":
        return _NOT_ALLOWED
    if local == "data":
        if list(el):
            raise SchemaError("data with param/except is unsupported")
        type_name = el.get("type")
        if type_name not in _DATATYPES:
            raise SchemaError(f"unsupported datatype {type_name!r}")
        return Data(type_name)
    if local == "value":
        return Value(el.text or "")
    if local == "ref":
        return _ref(el.get("name"), ctx)
    if local in ("anyName", "name"):
        raise SchemaError(f"{local} outside element/attribute")
    raise AssertionError(local)
