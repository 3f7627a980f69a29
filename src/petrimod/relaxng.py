"""A small RELAX NG validator built on Brzozowski-style derivatives.

Covers the constructs the bundled net schema needs: grammar/start/define/ref,
element, attribute, group, choice, optional, zeroOrMore, oneOrMore, text,
empty, notAllowed, data, value, and the anyName name class.  Interleave,
name-class except, list, and mixed are out of scope and rejected at load
time, so a schema that parses here means exactly what this validator checks.

References are compiled away at load, so recursion must pass through an
element, as RELAX NG's simplification requires; documents are walked with an
explicit stack, never by recursion on their depth.

Patterns are hash-consed and derivatives memoised, after Clark, "An algorithm
for RELAX NG validation" (2002): equal patterns are one object, and each
derivative is taken once per schema state.  The intern table and each
derivative are one `_Table`, a dict that derives, stores and returns a key it
lacks, and every derivative and the document walk read them by subscript.
An attribute value or a text enters a key only as the set of data, value and
attribute leaves that accept it, so the tables grow with the states a schema
meets, not with the number of documents or of elements it validates.

Datatypes are the xsd library subset used by the schema: string, token,
NCName, ID, IDREF, anyURI, nonNegativeInteger, positiveInteger.  ID/IDREF
get only their lexical check, as plain RELAX NG prescribes.  Whitespace, in
text between elements and around a datatype's value, is XML's: space, tab,
CR and LF, never another Unicode space.
"""

from __future__ import annotations

import re
import weakref
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


# Every pattern compares by identity.  An ElementP is the one object for its
# element pattern, so equality never follows a recursive grammar's cycle; all
# others are hash-consed by their schema (Schema._make): equal means identical.

@dataclass(frozen=True, eq=False)
class Empty(Pattern):
    pass


@dataclass(frozen=True, eq=False)
class NotAllowed(Pattern):
    pass


@dataclass(frozen=True, eq=False)
class Text(Pattern):
    pass


@dataclass(frozen=True, eq=False)
class Choice(Pattern):
    p1: Pattern
    p2: Pattern


@dataclass(frozen=True, eq=False)
class Group(Pattern):
    p1: Pattern
    p2: Pattern


@dataclass(frozen=True, eq=False)
class OneOrMore(Pattern):
    p: Pattern


@dataclass(eq=False)
class ElementP(Pattern):
    # p is set once the grammar is read
    nc: AnyName | Name
    p: Pattern


@dataclass(frozen=True, eq=False)
class AttributeP(Pattern):
    nc: AnyName | Name
    p: Pattern


@dataclass(frozen=True, eq=False)
class Data(Pattern):
    type: str


@dataclass(frozen=True, eq=False)
class Value(Pattern):
    value: str


@dataclass(frozen=True, eq=False)
class After(Pattern):
    p1: Pattern
    p2: Pattern


_EMPTY = Empty()
_NOT_ALLOWED = NotAllowed()
_TEXT = Text()


class _Table(dict):
    """A memo: reading a key it lacks derives the value as `derive(schema,
    key)`, stores it and returns it.  `derive` is a plain function and the
    schema is held weakly, so a schema and its tables form no reference
    cycle, and a schema that is dropped is freed at once."""

    __slots__ = ("_derive", "_schema")

    def __init__(self, schema: "Schema", derive):
        self._derive, self._schema = derive, weakref.ref(schema)

    def __missing__(self, key):
        out = self[key] = self._derive(self._schema(), key)
        return out


# -- datatypes -------------------------------------------------------------------

# XML whitespace is these four characters only; other Unicode spaces are text
_WS = " \t\r\n"
_WS_RUN = re.compile(f"[{_WS}]+")
_NCNAME = re.compile(r"[A-Za-z_][A-Za-z0-9._\-]*\Z")
_DIGITS = re.compile(r"[0-9]+\Z")
_POSITIVE = re.compile(r"0*[1-9][0-9]*\Z")  # no int(): its digit limit would raise

_DATATYPES = {
    "string": lambda s: True,
    "token": lambda s: True,
    "anyURI": lambda s: True,
    "NCName": lambda s: bool(_NCNAME.match(s.strip(_WS))),
    "ID": lambda s: bool(_NCNAME.match(s.strip(_WS))),
    "IDREF": lambda s: bool(_NCNAME.match(s.strip(_WS))),
    "nonNegativeInteger": lambda s: bool(_DIGITS.match(s.strip(_WS))),
    "positiveInteger": lambda s: bool(_POSITIVE.match(s.strip(_WS))),
}


def _is_ws(s: str) -> bool:
    return not s.strip(_WS)


def _collapse(s: str) -> str:
    return _WS_RUN.sub(" ", s).strip(" ")


def _accept(s: str) -> bool:
    return True


def _equals(value: str):
    want = _collapse(value)
    return lambda s: _collapse(s) == want


# -- document walk ----------------------------------------------------------------

def _qname(tag: str) -> tuple[str, str]:
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        return ns, local
    return "", tag


def _failure(tags: list[str], what: str) -> ValidationError:
    # tags: the open elements' raw tags, outermost first; the path names their local parts
    return ValidationError(f"/{'/'.join(_qname(t)[1] for t in tags)}: {what}")


# -- schema loading ----------------------------------------------------------------

_SUPPORTED = {
    "element", "attribute", "group", "choice", "optional", "zeroOrMore",
    "oneOrMore", "text", "empty", "notAllowed", "data", "value", "ref",
    "anyName", "name",
}


class Schema:
    """Compiled grammar; validate() raises ValidationError on the first defect.

    The schema owns the intern table its patterns are built through and the
    memo tables of their derivatives, so both are freed with it.  Each table
    in `_memo` is filled by the method named after it with a leading `_`.
    """

    def __init__(self):
        self.start: Pattern = _NOT_ALLOWED
        self._interned = _Table(self, lambda _, key: key[0](*key[1:]))
        self._memo = {name: _Table(self, getattr(Schema, f"_{name}"))
                      for name in ("nullable", "open", "value_tests", "att", "close", "text", "end")}

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
        schema = cls()
        # define elements, compiled defines (None while compiling), element
        # patterns whose content is still to compile, and the schema they intern in
        ctx = (defines, {}, [], default_ns, schema)
        schema.start = _compile_seq(list(start_el), ctx, default_ns)
        for name in defines:
            _ref(name, ctx)
        pending = ctx[2]
        while pending:
            elem, children, ns = pending.pop()
            elem.p = _compile_seq(children, ctx, ns)
        return schema

    def validate(self, root: ET.Element) -> None:
        if not self._memo["nullable"][self._walk(root)]:
            raise ValidationError("/: document incomplete")

    def validate_string(self, text: str) -> None:
        self.validate(ET.fromstring(text))

    def table_size(self) -> int:
        """Interned patterns plus memo entries: the states the schema has met."""
        return len(self._interned) + sum(map(len, self._memo.values()))

    # -- hash-consing constructors; they also keep the derivative small

    def _make(self, cls: type, *fields) -> Pattern:
        return self._interned[(cls, *fields)]

    def choice(self, p1: Pattern, p2: Pattern) -> Pattern:
        if p1 is _NOT_ALLOWED:
            return p2
        if p2 is _NOT_ALLOWED or p1 is p2:
            return p1
        return self._make(Choice, p1, p2)

    def group(self, p1: Pattern, p2: Pattern) -> Pattern:
        if p1 is _NOT_ALLOWED or p2 is _NOT_ALLOWED:
            return _NOT_ALLOWED
        if p1 is _EMPTY:
            return p2
        if p2 is _EMPTY:
            return p1
        return self._make(Group, p1, p2)

    def after(self, p1: Pattern, p2: Pattern) -> Pattern:
        if p1 is _NOT_ALLOWED or p2 is _NOT_ALLOWED:
            return _NOT_ALLOWED
        return self._make(After, p1, p2)

    # -- derivative core: each method fills its table in `_memo` and reads
    #    every derivative, its own included, from the tables

    def _nullable(self, p: Pattern) -> bool:
        nullable = self._memo["nullable"]
        if isinstance(p, (Empty, Text)):
            return True
        if isinstance(p, Group):
            return nullable[p.p1] and nullable[p.p2]
        if isinstance(p, Choice):
            return nullable[p.p1] or nullable[p.p2]
        if isinstance(p, OneOrMore):
            return nullable[p.p]
        return False

    def apply_after(self, f, p: Pattern) -> Pattern:
        if isinstance(p, After):
            return self.after(p.p1, f(p.p2))
        if isinstance(p, Choice):
            return self.choice(self.apply_after(f, p.p1), self.apply_after(f, p.p2))
        if p is _NOT_ALLOWED:
            return _NOT_ALLOWED
        raise AssertionError(f"apply_after on {type(p).__name__}")

    def _open(self, key: tuple[Pattern, str]) -> Pattern:
        """The derivative of p by the start of an element with the raw tag `tag`."""
        p, tag = key
        opens = self._memo["open"]
        if isinstance(p, Choice):
            return self.choice(opens[p.p1, tag], opens[p.p2, tag])
        if isinstance(p, ElementP):
            return self.after(p.p, _EMPTY) if p.nc.contains(_qname(tag)) else _NOT_ALLOWED
        if isinstance(p, After):
            return self.apply_after(lambda x: self.after(x, p.p2), opens[p.p1, tag])
        if isinstance(p, Group):
            x = self.apply_after(lambda q: self.group(q, p.p2), opens[p.p1, tag])
            return self.choice(x, opens[p.p2, tag]) if self._memo["nullable"][p.p1] else x
        if isinstance(p, OneOrMore):
            rest = self.choice(p, _EMPTY)
            return self.apply_after(lambda q: self.group(q, rest), opens[p.p, tag])
        return _NOT_ALLOWED

    def _value_tests(self, key: tuple[Pattern, str | None]) -> tuple:
        """(leaf, test) for each leaf of p that the attribute derivative by the raw
        attribute `att` reads, or for att None the text derivative (data, values):
        test(value) says whether the leaf accepts the value.  An attribute whose
        content is neither text nor data gets None, and the walk asks `_value_match`."""
        p, att = key
        tests = self._memo["value_tests"]
        if isinstance(p, (Choice, Group)):
            return tests[p.p1, att] + tests[p.p2, att]
        if isinstance(p, (After, OneOrMore)):
            return tests[p.p1 if isinstance(p, After) else p.p, att]
        if att is None:
            if isinstance(p, Data):
                return ((p, _DATATYPES[p.type]),)
            return ((p, _equals(p.value)),) if isinstance(p, Value) else ()
        if isinstance(p, AttributeP) and p.nc.contains(_qname(att)):
            return ((p, _accept if p.p is _TEXT else _DATATYPES[p.p.type] if isinstance(p.p, Data) else None),)
        return ()

    def _att(self, key: tuple[Pattern, frozenset]) -> Pattern:
        """The attribute derivative of p, given the attribute leaves `ok` that accept it."""
        p, ok = key
        atts = self._memo["att"]
        if isinstance(p, After):
            return self.after(atts[p.p1, ok], p.p2)
        if isinstance(p, Choice):
            return self.choice(atts[p.p1, ok], atts[p.p2, ok])
        if isinstance(p, Group):
            return self.choice(self.group(atts[p.p1, ok], p.p2), self.group(p.p1, atts[p.p2, ok]))
        if isinstance(p, OneOrMore):
            return self.group(atts[p.p, ok], self.choice(p, _EMPTY))
        return _EMPTY if p in ok else _NOT_ALLOWED

    def _value_match(self, p: Pattern, s: str) -> bool:
        nullable = self._memo["nullable"]
        return (nullable[p] and _is_ws(s)) or nullable[self.text_deriv(p, s)]

    def _close(self, p: Pattern) -> Pattern:
        """The start-tag close derivative of p."""
        closes = self._memo["close"]
        if isinstance(p, After):
            return self.after(closes[p.p1], p.p2)
        if isinstance(p, Choice):
            return self.choice(closes[p.p1], closes[p.p2])
        if isinstance(p, Group):
            return self.group(closes[p.p1], closes[p.p2])
        if isinstance(p, OneOrMore):
            q = closes[p.p]
            return _NOT_ALLOWED if q is _NOT_ALLOWED else self._make(OneOrMore, q)
        if isinstance(p, AttributeP):
            return _NOT_ALLOWED
        return p

    def text_deriv(self, p: Pattern, s: str) -> Pattern:
        """The text derivative of p by s: the table entry for the leaves that accept s."""
        memo = self._memo
        return memo["text"][p, frozenset([x for x, test in memo["value_tests"][p, None] if test(s)])]

    def _text(self, key: tuple[Pattern, frozenset]) -> Pattern:
        """The text derivative of p, given the data and value leaves `ok` that accept the text."""
        p, ok = key
        texts = self._memo["text"]
        if isinstance(p, Choice):
            return self.choice(texts[p.p1, ok], texts[p.p2, ok])
        if isinstance(p, After):
            return self.after(texts[p.p1, ok], p.p2)
        if isinstance(p, Group):
            x = self.group(texts[p.p1, ok], p.p2)
            return self.choice(x, texts[p.p2, ok]) if self._memo["nullable"][p.p1] else x
        if isinstance(p, OneOrMore):
            return self.group(texts[p.p, ok], self.choice(p, _EMPTY))
        if isinstance(p, Text):
            return p
        return _EMPTY if p in ok else _NOT_ALLOWED

    def _end(self, p: Pattern) -> Pattern:
        """The end-tag derivative of p."""
        if isinstance(p, Choice):
            ends = self._memo["end"]
            return self.choice(ends[p.p1], ends[p.p2])
        if isinstance(p, After):
            return p.p2 if self._memo["nullable"][p.p1] else _NOT_ALLOWED
        return _NOT_ALLOWED

    def _walk(self, root: ET.Element) -> Pattern:
        """Derive the start pattern by a whole document, one tag or text at a time.

        The stack holds what is left to visit, next item last: an element,
        non-whitespace text, or an element's end (None).  The After patterns hold
        what follows each open element, so nothing recurses on document depth.

        Each step reads one table in `_memo`, which derives only what it lacks.
        Start tags are keyed by the pattern and the raw tag, close and end tags
        by the pattern.  An attribute reads the value tests by the pattern and
        the raw key, for the leaves that could accept it, and the leaves that
        accept its value pick the attribute derivative.
        """
        memo = self._memo
        opens, tests, atts, closes, ends = (memo[name] for name in ("open", "value_tests", "att", "close", "end"))
        p = self.start
        tags: list[str] = []  # the open elements, outermost first
        stack: list[ET.Element | str | None] = [root]
        while stack:
            item = stack.pop()
            if item is None:
                p = ends[p]
                if p is _NOT_ALLOWED:
                    raise _failure(tags, "content incomplete")
                tags.pop()
            elif isinstance(item, str):
                p = self.text_deriv(p, item)
                if p is _NOT_ALLOWED:
                    raise _failure(tags, f"text {item!r} not allowed")
            else:
                tag = item.tag
                p = opens[p, tag]
                if p is _NOT_ALLOWED:
                    raise _failure(tags, f"element {_qname(tag)[1]!r} not allowed here")
                tags.append(tag)
                for key, value in item.items():
                    ok = frozenset([a for a, test in tests[p, key] if (test(value) if test else self._value_match(a.p, value))])
                    p = atts[p, ok]
                    if p is _NOT_ALLOWED:
                        raise _failure(tags, f"attribute {key}={value!r} not allowed")
                p = closes[p]
                if p is _NOT_ALLOWED:
                    raise _failure(tags, "required attribute missing")
                stack.append(None)
                if len(item):
                    # mixed content: whitespace between child elements is insignificant
                    for child in reversed(item):
                        if child.tail and not _is_ws(child.tail):
                            stack.append(child.tail)
                        stack.append(child)
                    if item.text and not _is_ws(item.text):
                        stack.append(item.text)
                else:
                    s = item.text or ""
                    q = self.text_deriv(p, s)
                    if _is_ws(s):
                        p = self.choice(q, p)
                    elif q is _NOT_ALLOWED:
                        raise _failure(tags, f"text {s!r} not allowed")
                    else:
                        p = q
        return p


def _ref(name: str, ctx: tuple) -> Pattern:
    defines, compiled, _, default_ns, _ = ctx
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
            out = ctx[4].group(out, _compile(e, ctx, ns))
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
        name = (children[0].text or "").strip(_WS)
        if not name:
            raise SchemaError(f"{_qname(el.tag)[1]} pattern with an empty name")
        return Name(children[0].get("ns", ns), name), children[1:]
    raise SchemaError(f"{_qname(el.tag)[1]} pattern without a name class")


def _compile(el: ET.Element, ctx: tuple, ns: str) -> Pattern:
    local = _qname(el.tag)[1]
    schema = ctx[4]
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
        return schema._make(AttributeP, nc, _TEXT if content is _EMPTY else content)
    if local == "group":
        return _compile_seq(list(el), ctx, ns)
    if local == "choice":
        parts = [_compile(c, ctx, ns) for c in el if _qname(c.tag)[0] == RELAXNG_NS]
        if not parts:
            raise SchemaError("choice without a pattern")
        out = parts[0]
        for part in parts[1:]:
            out = schema.choice(out, part)
        return out
    if local == "optional":
        return schema.choice(_compile_seq(list(el), ctx, ns), _EMPTY)
    if local == "zeroOrMore":
        return schema.choice(schema._make(OneOrMore, _compile_seq(list(el), ctx, ns)), _EMPTY)
    if local == "oneOrMore":
        return schema._make(OneOrMore, _compile_seq(list(el), ctx, ns))
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
        return schema._make(Data, type_name)
    if local == "value":
        return schema._make(Value, el.text or "")
    if local == "ref":
        return _ref(el.get("name"), ctx)
    if local in ("anyName", "name"):
        raise SchemaError(f"{local} outside element/attribute")
    raise AssertionError(local)
