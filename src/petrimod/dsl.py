"""The .hkl snippet language: declared net snippets plus module expressions.

A file declares one alphabet, any number of snippet modules, and named
definitions built from references with the composition operator `.` (or the
synonym `•`), the postfix closure `^c`, `abstr(...)`, and the neutral
element `E`.  Parsing is side-effect free; evaluation instantiates a fresh
copy per snippet reference, so one definition never shares atoms with itself,
and expands each definition once, re-minting its later references.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .core import Alphabet, Kind, Module, Node, NodeId, abstract_of, closure, compose, empty_module
from .errors import (
    DslSyntaxError,
    DuplicateName,
    RecursiveDefinition,
    UnboundName,
    UnknownLabel,
)

__all__ = [
    "ModuleExpr",
    "Ref",
    "Compose",
    "Closure",
    "Abstr",
    "Empty",
    "NodeDecl",
    "SnippetDecl",
    "Environment",
    "parse",
    "instantiate",
    "evaluate",
]

RESERVED = {
    "alphabet", "module", "place", "transition", "node", "arc", "label",
    "marking", "left", "right", "places", "transitions", "other", "abstr", "E",
}


# -- expression AST ----------------------------------------------------------

class ModuleExpr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Ref(ModuleExpr):
    name: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Compose(ModuleExpr):
    left: ModuleExpr
    right: ModuleExpr


@dataclass(frozen=True)
class Closure(ModuleExpr):
    inner: ModuleExpr


@dataclass(frozen=True)
class Abstr(ModuleExpr):
    inner: ModuleExpr


@dataclass(frozen=True)
class Empty(ModuleExpr):
    pass


# -- declarations ------------------------------------------------------------

@dataclass(frozen=True)
class NodeDecl:
    kind: Kind
    name: str
    label: str
    marking: int = 0
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SnippetDecl:
    name: str
    nodes: tuple[NodeDecl, ...]
    arcs: tuple[tuple[str, str], ...]
    left: tuple[str, ...]
    right: tuple[str, ...]
    line: int = field(default=0, compare=False)


@dataclass
class Environment:
    """Everything a parsed file binds; immutable by convention after parse."""

    alphabet: Alphabet
    snippets: dict[str, SnippetDecl]
    definitions: dict[str, ModuleExpr]
    order: tuple[str, ...]

    def __contains__(self, name: str) -> bool:
        return name in self.snippets or name in self.definitions

    def names(self) -> tuple[str, ...]:
        return self.order


# -- lexer -------------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<skip>[ \t\r]+|//[^\n]*)
      | (?P<nl>\n)
      | (?P<arrow>->)
      | (?P<assign>:=)
      | (?P<closure>\^c)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>[0-9]+)
      | (?P<punct>[{}():;,.]|•)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "number", or the literal symbol
    text: str
    line: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        if m.lastgroup == "skip":
            continue
        if m.lastgroup == "nl":
            line += 1
            continue
        value = m.group()
        if m.lastgroup in ("ident", "number"):
            tokens.append(_Token(m.lastgroup, value, line))
        elif m.lastgroup == "punct" and value == "•":
            tokens.append(_Token(".", ".", line))
        else:
            tokens.append(_Token(value, value, line))
    tokens.append(_Token("eof", "", line))
    return tokens


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise DslSyntaxError(f"expected {what or kind!r}, got {tok.text or 'end of file'!r}", tok.line)
        return tok

    def expect_ident(self, what: str = "a name") -> _Token:
        tok = self.next()
        if tok.kind != "ident":
            raise DslSyntaxError(f"expected {what}, got {tok.text or 'end of file'!r}", tok.line)
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            raise DslSyntaxError(f"expected {word!r}, got {tok.text or 'end of file'!r}", tok.line)
        return tok

    def fresh_name(self, what: str = "a name") -> _Token:
        tok = self.expect_ident(what)
        if tok.text in RESERVED:
            raise DslSyntaxError(f"{tok.text!r} is a reserved word", tok.line)
        return tok

    def skip_separator(self):
        if self.peek().kind == ";":
            self.next()

    # ---- top level ----

    def parse_file(self) -> Environment:
        alphabet: Alphabet | None = None
        alphabet_line = 0
        snippets: dict[str, SnippetDecl] = {}
        definitions: dict[str, ModuleExpr] = {}
        order: list[str] = []
        lines: dict[str, int] = {}  # binding name -> line

        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "alphabet":
                if alphabet is not None:
                    raise DuplicateName("alphabet declared twice", tok.line)
                self.next()
                alphabet = self.parse_alphabet()
                alphabet_line = tok.line
            elif tok.kind == "ident" and tok.text == "module":
                self.next()
                decl = self.parse_module()
                if decl.name in snippets or decl.name in definitions:
                    raise DuplicateName(f"{decl.name!r} is already bound", decl.line)
                snippets[decl.name] = decl
                order.append(decl.name)
                lines[decl.name] = decl.line
            elif tok.kind == "ident":
                name_tok = self.fresh_name("a definition name")
                self.expect(":=")
                expr = self.parse_expr()
                if name_tok.text in snippets or name_tok.text in definitions:
                    raise DuplicateName(f"{name_tok.text!r} is already bound", name_tok.line)
                definitions[name_tok.text] = expr
                order.append(name_tok.text)
                lines[name_tok.text] = name_tok.line
                self.skip_separator()
            else:
                raise DslSyntaxError(f"unexpected {tok.text!r} at top level", tok.line)

        env = Environment(alphabet or Alphabet(), snippets, definitions, tuple(order))
        _validate(env, alphabet_line)
        for name, line in lines.items():
            # abstraction labels a module's core with its name, as an abstract node
            if name in env.alphabet.places or name in env.alphabet.transitions:
                kind = env.alphabet.kind_of(name).value
                raise DuplicateName(f"{name!r} is bound and is also a {kind} label", line)
        return env

    def parse_alphabet(self) -> Alphabet:
        self.expect("{")
        groups: dict[str, list[str]] = {}
        while self.peek().kind != "}":
            tok = self.expect_ident("'places', 'transitions' or 'other'")
            if tok.text not in ("places", "transitions", "other"):
                raise DslSyntaxError(f"unknown alphabet group {tok.text!r}", tok.line)
            if tok.text in groups:
                raise DuplicateName(f"alphabet group {tok.text!r} declared twice", tok.line)
            self.expect(":")
            groups[tok.text] = [t.text for t in self.ident_list()]
            self.skip_separator()
        self.expect("}")
        flat = [label for g in groups.values() for label in g]
        dupes = {label for label, n in Counter(flat).items() if n > 1}
        if dupes:
            raise DuplicateName(f"label(s) declared twice: {sorted(dupes)}", self.peek().line)
        return Alphabet(
            places=frozenset(groups.get("places", ())),
            transitions=frozenset(groups.get("transitions", ())),
            other=frozenset(groups.get("other", ())),
        )

    def ident_list(self) -> list[_Token]:
        names = [self.fresh_name("a label or node name")]
        while self.peek().kind == ",":
            self.next()
            names.append(self.fresh_name("a label or node name"))
        return names

    def parse_module(self) -> SnippetDecl:
        name_tok = self.fresh_name("a module name")
        self.expect("{")
        nodes: list[NodeDecl] = []
        arcs: list[tuple[str, str]] = []
        sides: dict[str, tuple[str, ...] | None] = {"left": None, "right": None}
        kw_kind = {"place": Kind.PLACE, "transition": Kind.TRANSITION, "node": Kind.ABSTRACT}

        while self.peek().kind != "}":
            tok = self.expect_ident("a module body entry")
            if tok.text in kw_kind:
                node_name = self.fresh_name("a node name")
                self.expect_keyword("label")
                label = self.fresh_name("a label")
                marking = 0
                if self.peek().kind == "ident" and self.peek().text == "marking":
                    self.next()
                    count = self.expect("number", "a token count")
                    try:
                        marking = int(count.text)
                    except ValueError:  # longer than the interpreter's int-string limit
                        raise DslSyntaxError(f"token count too long ({len(count.text)} digits)", count.line) from None
                    if tok.text != "place":
                        raise DslSyntaxError("only places can carry a marking", tok.line)
                nodes.append(NodeDecl(kw_kind[tok.text], node_name.text, label.text, marking, tok.line))
            elif tok.text == "arc":
                src = self.fresh_name("a node name")
                self.expect("->")
                dst = self.fresh_name("a node name")
                arcs.append((src.text, dst.text))
            elif tok.text in ("left", "right"):
                if sides[tok.text] is not None:
                    raise DuplicateName(f"{tok.text} interface declared twice", tok.line)
                self.expect(":")
                if self.peek().kind in (";", "}"):
                    sides[tok.text] = ()
                else:
                    sides[tok.text] = tuple(t.text for t in self.ident_list())
            else:
                raise DslSyntaxError(f"unexpected {tok.text!r} in module body", tok.line)
            self.skip_separator()
        self.expect("}")
        return SnippetDecl(
            name_tok.text,
            tuple(nodes),
            tuple(arcs),
            sides["left"] or (),
            sides["right"] or (),
            name_tok.line,
        )

    # ---- expressions ----

    def parse_expr(self) -> ModuleExpr:
        """expr := term ('.' term)*; term := atom '^c'*;
        atom := '(' expr ')' | 'abstr' '(' expr ')' | 'E' | name.

        Iterative, so nesting depth is not bounded by the recursion limit.
        `groups` has one entry per open '(' or 'abstr(': whether it is an
        abstr, and the composition chain to its left.
        """
        groups: list[tuple[bool, ModuleExpr | None]] = []
        left: ModuleExpr | None = None
        while True:
            tok = self.next()
            is_abstr = tok.kind == "ident" and tok.text == "abstr"
            if is_abstr:
                self.expect("(")
            if is_abstr or tok.kind == "(":
                groups.append((is_abstr, left))
                left = None
                continue
            if tok.kind == "ident" and tok.text == "E":
                operand: ModuleExpr = Empty()
            elif tok.kind == "ident":
                if tok.text in RESERVED:
                    raise DslSyntaxError(f"{tok.text!r} is a reserved word", tok.line)
                operand = Ref(tok.text, tok.line)
            else:
                raise DslSyntaxError(f"expected an expression, got {tok.text or 'end of file'!r}", tok.line)
            while True:
                while self.peek().kind == "^c":
                    self.next()
                    operand = Closure(operand)
                left = operand if left is None else Compose(left, operand)
                if self.peek().kind == ".":
                    self.next()
                    break
                if not groups:
                    return left
                self.expect(")")
                is_abstr, outer = groups.pop()
                operand = Abstr(left) if is_abstr else left
                left = outer


def _validate(env: Environment, alphabet_line: int):
    kind_group = {Kind.PLACE: "places", Kind.TRANSITION: "transitions", Kind.ABSTRACT: "other"}
    for decl in env.snippets.values():
        seen: dict[str, int] = {}
        for nd in decl.nodes:
            if nd.name in seen:
                raise DuplicateName(f"node {nd.name!r} declared twice in module {decl.name!r}", nd.line)
            seen[nd.name] = nd.line
            if env.alphabet.kind_of(nd.label) is not nd.kind or nd.label not in env.alphabet:
                group = kind_group[nd.kind]
                raise UnknownLabel(
                    f"label {nd.label!r} is not declared under {group!r} in the alphabet", nd.line
                )
        for src, dst in decl.arcs:
            for end in (src, dst):
                if end not in seen:
                    raise DslSyntaxError(f"arc references undeclared node {end!r} in {decl.name!r}", decl.line)
        for side_name, side in (("left", decl.left), ("right", decl.right)):
            for node_name in side:
                if node_name not in seen:
                    raise DslSyntaxError(
                        f"{side_name} interface references undeclared node {node_name!r} in {decl.name!r}",
                        decl.line,
                    )
            if len(set(side)) != len(side):
                raise DslSyntaxError(f"{side_name} interface of {decl.name!r} repeats a node", decl.line)

    # reference cycles among definitions make evaluation diverge; reject them.
    # Depth-first with an explicit stack, so long reference chains do not
    # hit the interpreter's recursion limit.
    state: dict[str, int] = {}
    for start in env.definitions:
        if state.get(start) == 2:
            continue
        state[start] = 1
        stack = [(start, _refs(env.definitions[start]))]
        while stack:
            name, pending = stack[-1]
            ref = next(pending, None)
            if ref is None:
                state[name] = 2
                stack.pop()
            elif state.get(ref) == 1:
                raise RecursiveDefinition(f"definition of {ref!r} refers back to itself")
            elif state.get(ref) is None and ref in env.definitions:
                state[ref] = 1
                stack.append((ref, _refs(env.definitions[ref])))


def _refs(expr: ModuleExpr):
    """Referenced names, left to right."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Ref):
            yield e.name
        elif isinstance(e, Compose):
            stack += (e.right, e.left)
        elif isinstance(e, (Closure, Abstr)):
            stack.append(e.inner)


def parse(text: str) -> Environment:
    """Parse a complete .hkl source text into an environment."""
    return _Parser(text).parse_file()


def instantiate(decl: SnippetDecl, alphabet: Alphabet, tag: str) -> Module:
    """Mint a fresh module from a snippet declaration under the given instance tag."""
    ids = {nd.name: NodeId.single(tag, f"{decl.name}.{nd.name}") for nd in decl.nodes}
    nodes = [Node(ids[nd.name], nd.label, alphabet.kind_of(nd.label)) for nd in decl.nodes]
    edges = [(ids[s], ids[d]) for s, d in decl.arcs]
    marking = {ids[nd.name]: nd.marking for nd in decl.nodes if nd.marking}
    return Module(nodes, edges, [ids[x] for x in decl.left], [ids[x] for x in decl.right], marking, decl.name)


def evaluate(env: Environment, target: str | ModuleExpr) -> Module:
    """Evaluate a bound name or a free expression to a module.

    Every snippet reference instantiates a fresh copy; the instance counter
    restarts per call, so evaluating the same definition twice yields
    identical modules (compose the results only after retagging one of them).
    Each definition is expanded once per call; its later references are
    re-minted copies (see `_Evaluator`).
    """
    return _Evaluator(env)(target)


class _Evaluator:
    """One evaluation context: the instance counter and the definitions
    evaluated so far.

    A definition that another definition refers to, and whose expansion
    minted the instance tags `i{c+1}` to `i{c+m}`, is kept as (module, c,
    m).  A later reference at counter c' re-mints that module with every
    `i{k}` shifted to `i{k+c'-c}` and advances the counter by m, which is
    exactly what expanding it again would give: evaluation order, merges
    and node order depend on no tag.
    An abstract core is the one exception, since `abstract_of` takes its
    atom from a digest of the tags, so a definition whose expansion ran an
    `abstr` is not kept and is expanded at every reference.  A failed
    expansion keeps nothing, so it fails again in the same way.

    Calling the evaluator restarts the counter and keeps what was evaluated
    before: `evaluate` makes one per call, `check` one for all bindings.
    """

    def __init__(self, env: Environment):
        self.env = env
        # a definition no other refers to recurs only as a target or in a free expression,
        # which expand it in full: keeping it would only hold its memory for `check`
        self.referenced = {name for expr in env.definitions.values() for name in _refs(expr)}
        self.kept: dict[str, tuple[Module, int, int]] = {}
        self.count = 0  # instance tags minted so far
        self.abstractions = 0  # `abstr` operations run so far

    def __call__(self, target: str | ModuleExpr) -> Module:
        self.count = 0
        return self._eval(Ref(target) if isinstance(target, str) else target)

    def _keep(self, name: str, first: int, abstractions: int, module: Module) -> Module:
        """A definition's value; kept for re-minting if another definition
        refers to it and its expansion ran no `abstr`."""
        module = module.with_name(name)
        if name in self.referenced and abstractions == self.abstractions:
            self.kept[name] = module, first, self.count - first
        return module

    def _eval(self, expr: ModuleExpr) -> Module:
        """Post-order evaluation with explicit stacks, left operand first.

        `work` holds expressions still to evaluate and pending operations as
        (function, arity) pairs; `values` holds finished operands.
        """
        env = self.env
        work: list = [expr]
        values: list[Module] = []
        while work:
            item = work.pop()
            if isinstance(item, tuple):
                fn, arity = item
                args = values[-arity:]
                del values[-arity:]
                values.append(fn(*args))
            elif isinstance(item, Ref):
                if item.name in env.snippets:
                    self.count += 1
                    values.append(instantiate(env.snippets[item.name], env.alphabet, f"i{self.count}"))
                elif item.name in self.kept:
                    module, first, used = self.kept[item.name]
                    shift = self.count - first
                    values.append(module._reminted(lambda tag: f"i{int(tag[1:]) + shift}") if shift else module)
                    self.count += used
                elif item.name in env.definitions:
                    keep = partial(self._keep, item.name, self.count, self.abstractions)
                    work += ((keep, 1), env.definitions[item.name])
                else:
                    raise UnboundName(f"{item.name!r} is not bound", item.line or None)
            elif isinstance(item, Compose):
                # a left-associated spine a . b . c is one n-ary composition
                operands = []
                while isinstance(item, Compose):
                    operands.append(item.right)
                    item = item.left
                work += ((compose, len(operands) + 1), *operands, item)
            elif isinstance(item, Closure):
                work += ((closure, 1), item.inner)
            elif isinstance(item, Abstr):
                self.abstractions += 1
                work += ((abstract_of, 1), item.inner)
            elif isinstance(item, Empty):
                values.append(empty_module())
            else:
                raise TypeError(f"not a module expression: {item!r}")
        return values[0]
