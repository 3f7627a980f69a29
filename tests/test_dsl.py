import functools
import itertools
import random
import re
from collections import Counter

import pytest

from petrimod import (Kind, Module, abstract_of, cli, closure, compose, dsl, dumps, empty_module, evaluate,
                      fixture_path, isomorphic, parse, structural_equal)
from petrimod.dsl import Abstr, Closure, Compose, Ref, _Evaluator, instantiate
from petrimod.errors import (
    DslSyntaxError,
    DuplicateName,
    PetrimodError,
    RecursiveDefinition,
    UnboundName,
    UnknownLabel,
    UnnamedModule,
)

HEADER = "alphabet { places: a, b; transitions: s; }\n"
SNIPPET = HEADER + "module m { place n label a; transition v label s; arc n -> v; left: n; right: v; }\n"


def test_philosophers_parse_shape(phil_env):
    assert len(phil_env.snippets) == 4
    assert len(phil_env.definitions) == 8
    assert len(phil_env.names()) == 12
    assert "phil_with_forks" in phil_env
    assert "no_such_thing" not in phil_env


def test_alphabet_only_file():
    env = parse("alphabet { places: a; other: glue; }")
    assert env.names() == ()
    assert env.alphabet.kind_of("a") is Kind.PLACE
    assert env.alphabet.kind_of("glue") is Kind.ABSTRACT


def test_instances_are_tagged_per_reference(phil_env):
    fork = evaluate(phil_env, "fork")
    tags = {atom.instance for nid in fork.nodes for atom in nid.atoms}
    assert tags == {"i1", "i2"}
    names = {atom.name for nid in fork.nodes for atom in nid.atoms}
    assert "left_use.p_avail" in names and "right_use.p_avail" in names


def test_think_is_open_on_both_sides(phil_env):
    think = evaluate(phil_env, "think")
    assert think.left.slots == think.right.slots
    assert all(think.kind_of(n) is Kind.TRANSITION for n in think.left)


def test_fork_merges_the_shared_place(phil_env):
    fork = evaluate(phil_env, "fork")
    avail = [n for n in fork.nodes if fork.label_of(n) == "available"]
    assert len(avail) == 1
    assert fork.marking.get(avail[0]) == 1
    assert avail[0] in fork.interior()


def test_evaluation_is_deterministic(phil_env):
    a = evaluate(phil_env, "phils_in_a_row")
    b = evaluate(phil_env, "phils_in_a_row")
    assert structural_equal(a, b)
    assert dumps(a) == dumps(b)


def test_dot_and_bullet_are_synonyms():
    env_dot = parse(SNIPPET + "x := m . m\n")
    env_bullet = parse(SNIPPET + "x := m • m\n")
    assert structural_equal(evaluate(env_dot, "x"), evaluate(env_bullet, "x"))


def test_empty_and_abstr_expressions():
    env = parse(SNIPPET + "e := E\nw := abstr(m)\nbad := abstr(m . m)\n")
    assert len(evaluate(env, "e").nodes) == 0
    w = evaluate(env, "w")
    assert sum(1 for n in w.nodes.values() if n.kind is Kind.ABSTRACT) == 1
    # composition drops names, and only named modules can be abstracted;
    # composite shapes must be bound to a name first
    with pytest.raises(UnnamedModule):
        evaluate(env, "bad")


def test_forward_references_resolve():
    env = parse(SNIPPET + "first := second . m\nsecond := m\n")
    m = evaluate(env, "first")
    assert m.name == "first"
    # m's right label never matches m's left label, so the copies stay apart
    assert len(m.nodes) == 4
    assert len(m.left) == 2 and len(m.right) == 2


def test_free_expression_target(phil_env):
    row = evaluate(phil_env, Compose(Ref("left_use"), Ref("right_use")))
    assert structural_equal(row, evaluate(phil_env, "fork").with_name(None))


def test_self_reference_rejected():
    with pytest.raises(RecursiveDefinition):
        parse(SNIPPET + "x := x . m\n")


def test_mutual_recursion_rejected():
    with pytest.raises(RecursiveDefinition):
        parse(SNIPPET + "x := y\ny := x\n")


def test_long_composition_chain_parses_and_evaluates():
    env = parse(HEADER + "long := " + " . ".join(["E"] * 2000) + "\n")
    m = evaluate(env, "long")
    assert m.is_empty() and m.name == "long"


@pytest.mark.parametrize("depth, opener", [(5000, "("), (1000, "abstr(")])
def test_deep_nesting_parses_and_evaluates(depth, opener):
    env = parse(SNIPPET + f"d := {opener * depth}m{')' * depth}\n")
    m = evaluate(env, "d")
    assert m.name == "d" and len(m.nodes) == (2 if opener == "(" else 3)


def test_long_reference_chain_parses_and_evaluates():
    defs = "".join(f"d{i} := d{i - 1}\n" for i in range(1, 2000))
    env = parse(SNIPPET + "d0 := m\n" + defs)
    assert len(evaluate(env, "d1999").nodes) == 2
    with pytest.raises(RecursiveDefinition):
        parse(SNIPPET + "d0 := d1999 . m\n" + defs)


def test_instances_numbered_left_to_right():
    for expr in ("m . m . m", "m . (m . m)", "(m . m^c) . abstr(m)"):
        m = evaluate(parse(SNIPPET + f"x := {expr}\n"), "x")
        tags = [atom.instance for nid in m.left for atom in sorted(nid.atoms)]
        assert tags == ["i1", "i2", "i3"], expr


def test_unbound_name_at_evaluation():
    env = parse(SNIPPET + "x := ghost . m\n")
    with pytest.raises(UnboundName):
        evaluate(env, "x")
    with pytest.raises(UnboundName):
        evaluate(env, "ghost")


@pytest.mark.parametrize(
    "source",
    [
        SNIPPET + "m := E\n",  # rebinding a module name
        SNIPPET + "x := E\nx := E\n",  # rebinding a definition
        HEADER + "module d { place n label a; place n label b; }",
        "alphabet { places: a; places: b; }",
        "alphabet { places: a; transitions: a; }",
        "alphabet { places: a; }\nalphabet { places: b; }",
        HEADER + "module d { place n label a; left: n; left: n; }",
    ],
)
def test_duplicate_names_rejected(source):
    with pytest.raises(DuplicateName):
        parse(source)


BINDING_IS_LABEL = (
    "alphabet { places: a; transitions: t; }\n"
    "module m { place n label a; transition v label t; arc n -> v; left: v; right: v; }\n"
    "a := m\n"
    "x := abstr(a) . m\n"
)


@pytest.mark.parametrize(
    "source, line",
    [
        (BINDING_IS_LABEL, 3),
        (HEADER + "s := E\n", 2),  # a transition label
        ("module a { }\nalphabet { places: a; }\n", 1),  # a snippet name, alphabet declared later
    ],
)
def test_binding_name_that_is_a_place_or_transition_label_rejected(source, line):
    # abstr() labels the core node with the binding's name, as an abstract node
    with pytest.raises(DuplicateName) as exc:
        parse(source)
    assert exc.value.line == line


def test_binding_name_may_be_an_other_label():
    env = parse("alphabet { places: a; other: box; }\nmodule box { place n label a; left: n; }\ny := abstr(box)\n")
    y = evaluate(env, "y")
    assert [y.label_of(nid) for nid in y.interior()] == ["box"]


@pytest.mark.parametrize(
    "source",
    [
        HEADER + "module d { place n label s; }",  # s is a transition label
        HEADER + "module d { transition v label a; }",
        HEADER + "module d { place n label nowhere; }",
        HEADER + "module d { node n label a; }",  # a is a place label
    ],
)
def test_label_kind_mismatches_rejected(source):
    with pytest.raises(UnknownLabel):
        parse(source)


@pytest.mark.parametrize(
    "source",
    [
        HEADER + "module d { place n label a; arc n -> ghost; }",
        HEADER + "module d { place n label a; left: ghost; }",
        HEADER + "module d { place n label a; left: n, n; }",
        HEADER + "module d { transition v label s marking 2; }",
        HEADER + "label := E\n",  # reserved word as a binding name
        HEADER + "module d { place left label a; }",
        HEADER + "x ~ E\n",  # no such character in the grammar
        "alphabet { colours: red; }",
        HEADER + "module d { place n a; }",  # missing 'label' keyword
        HEADER + "x := (m . m\n",
    ],
)
def test_syntax_errors(source):
    with pytest.raises(DslSyntaxError):
        parse(source)


def test_token_count_past_the_int_string_limit_is_a_syntax_error():
    source = HEADER + "module d {\n  place n label a marking " + "9" * 5000 + ";\n}\n"
    with pytest.raises(DslSyntaxError, match=r"token count too long \(5000 digits\) \(line 3\)"):
        parse(source)


def test_empty_interface_side_is_allowed():
    env = parse(HEADER + "module d { place n label a; left: ; right: n; }")
    m = evaluate(env, "d")
    assert len(m.left) == 0 and len(m.right) == 1


def test_misordered_philosopher_assembly_stays_open(phil_env):
    # Swapping the fork halves around the philosopher leaves take/return
    # transitions facing outward: they pair with the neighbours' transitions
    # instead of sharing fork places, so the ring never closes.
    unit = Compose(Compose(Ref("left_use"), Ref("phil")), Ref("right_use"))
    bad_unit = evaluate(phil_env, unit)
    for side in (bad_unit.left, bad_unit.right):
        labels = [bad_unit.label_of(n) for n in side]
        assert labels == ["take", "return", "take", "return"]

    row = unit
    for _ in range(4):
        row = Compose(row, unit)
    bad_cycle = evaluate(phil_env, Closure(row))
    kinds = [n.kind for n in bad_cycle.nodes.values()]
    assert kinds.count(Kind.PLACE) == 15
    assert kinds.count(Kind.TRANSITION) == 12
    assert len(bad_cycle.left) == 2 and len(bad_cycle.right) == 2

    good_cycle = evaluate(phil_env, "phils_in_a_cycle")
    assert isomorphic(bad_cycle, good_cycle) is None


# -- one expansion per definition, against the plain expander ---------------------

def reference_evaluate(env, target):
    """The plain expander: every reference to a definition expands it again.

    Kept as the reference engine for `evaluate`, which expands a definition
    once and re-mints its later references.
    """
    counter = itertools.count(1)
    work = [Ref(target) if isinstance(target, str) else target]
    values = []
    while work:
        item = work.pop()
        if isinstance(item, tuple):
            fn, arity = item
            args = values[-arity:]
            del values[-arity:]
            values.append(fn(*args))
        elif isinstance(item, Ref):
            if item.name in env.snippets:
                values.append(instantiate(env.snippets[item.name], env.alphabet, f"i{next(counter)}"))
            elif item.name in env.definitions:
                work += ((functools.partial(Module.with_name, name=item.name), 1), env.definitions[item.name])
            else:
                raise UnboundName(f"{item.name!r} is not bound", item.line or None)
        elif isinstance(item, Compose):
            operands = []
            while isinstance(item, Compose):
                operands.append(item.right)
                item = item.left
            work += ((compose, len(operands) + 1), *operands, item)
        elif isinstance(item, Closure):
            work += ((closure, 1), item.inner)
        elif isinstance(item, Abstr):
            work += ((abstract_of, 1), item.inner)
        else:
            values.append(empty_module())
    return values[0]


RANDOM_ALPHABET = "alphabet { places: a, b; transitions: s, t; other: g; }\n"
_RANDOM_LABELS = ("a", "b", "s", "t", "g")


def _random_snippet(rng, name):
    kinds = {"a": "place", "b": "place", "s": "transition", "t": "transition", "g": "node"}
    nodes = [f"n{i}" for i in range(rng.randint(1, 4))]
    lines = []
    for n in nodes:
        label = rng.choice(_RANDOM_LABELS)
        marking = f" marking {rng.randint(1, 2)}" if kinds[label] == "place" and rng.random() < 0.3 else ""
        lines.append(f"{kinds[label]} {n} label {label}{marking};")
    lines += [f"arc {rng.choice(nodes)} -> {rng.choice(nodes)};" for _ in range(rng.randint(0, len(nodes)))]
    lines.append("left: " + ", ".join(rng.sample(nodes, rng.randint(0, len(nodes)))) + ";")
    lines.append("right: " + ", ".join(rng.sample(nodes, rng.randint(0, len(nodes)))) + ";")
    return f"module {name} {{ " + " ".join(lines) + " }\n"


def _random_expr(rng, names, depth):
    """A random expression over `names`: repeated references, `^c`, `abstr`, `E`
    and, now and then, an unbound name or an unnamed operand of `abstr`."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return "E"
        if roll < 0.07:
            return "ghost"
        return rng.choice(names)
    if roll < 0.55:
        if rng.random() < 0.5:  # the same operand again and again
            return " . ".join([rng.choice(names)] * rng.randint(2, 4))
        return " . ".join(_random_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 3)))
    if roll < 0.7:
        return f"({_random_expr(rng, names, depth - 1)})^c"
    if roll < 0.85:
        inner = rng.choice(names) if rng.random() < 0.85 else _random_expr(rng, names, depth - 1)
        return f"abstr({inner})"
    return f"({_random_expr(rng, names, depth - 1)})"


def random_program(rng):
    """A seeded .hkl source: 1-3 snippets and 2-7 definitions, each referring
    to snippets and earlier definitions, declared in shuffled order so that
    forward references occur."""
    snippets = [f"m{i}" for i in range(rng.randint(1, 3))]
    blocks = [_random_snippet(rng, name) for name in snippets]
    names = list(snippets)
    for i in range(rng.randint(2, 7)):
        # an empty definition abstracts to the same core at every reference
        body = "E" if i == 0 and rng.random() < 0.2 else _random_expr(rng, names, 3)
        blocks.append(f"d{i} := {body}\n")
        names += [f"d{i}"] * 2  # definitions are referenced more often than snippets
    rng.shuffle(blocks)
    return RANDOM_ALPHABET + "".join(blocks), sorted(set(names))


def _outcome(fn, *args):
    try:
        m = fn(*args)
    except PetrimodError as e:
        return type(e).__name__, str(e)
    return dumps(m), [str(n) for n in m.nodes], [str(n) for n in m.marking], m.name


def test_evaluation_matches_the_plain_expander_on_random_programs(monkeypatch):
    rng = random.Random(1901)
    seen = Counter()
    remint = Module._reminted

    def counting(self, instance_of):
        seen["re-minted"] += 1
        return remint(self, instance_of)

    monkeypatch.setattr(Module, "_reminted", counting)
    for _ in range(600):
        source, names = random_program(rng)
        env = parse(source)
        shared = _Evaluator(env)  # one context over all bindings, as `check` uses
        targets = list(env.names())
        targets += [parse(f"{source}free__ := {_random_expr(rng, names, 3)}\n").definitions["free__"]
                    for _ in range(2)]
        for target in targets:
            want = _outcome(reference_evaluate, env, target)
            assert _outcome(evaluate, env, target) == want, (source, target)
            assert _outcome(shared, target) == want, (source, target)
            if len(want) == 2:
                seen[want[0]] += 1
            else:
                seen["ok"] += 1
                seen["abstr"] += '"abstr.' in want[0]  # an abstract core's id
    assert all(seen[k] >= 100 for k in ("ok", "abstr", "re-minted", "UnnamedModule", "UnboundName")), seen
    assert seen["NonDisjointOperands"] >= 10, seen


def _count_instantiations(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2])
        return instantiate(*args)

    monkeypatch.setattr(dsl, "instantiate", counting)
    return calls


def test_a_ring_expands_its_seat_once(monkeypatch):
    source = fixture_path("philosophers.hkl").read_text(encoding="utf-8")
    env = parse(source + "ring := (" + " . ".join(["phil_with_forks"] * 200) + ")^c\n")
    calls = _count_instantiations(monkeypatch)
    ring = evaluate(env, "ring")
    assert calls == ["i1", "i2", "i3", "i4"]  # right_use, think, eat, left_use; 800 without re-minting
    same = dumps(ring) == dumps(reference_evaluate(env, "ring"))  # not compared by pytest: a diff this size is slow
    assert same


def test_check_expands_a_chain_of_definitions_once(monkeypatch, tmp_path, capsys):
    source = fixture_path("philosophers.hkl").read_text(encoding="utf-8")
    snippet = re.search(r"alphabet \{[^}]*\}", source).group() + re.search(r"module think \{[^}]*\}", source).group()
    path = tmp_path / "chain.hkl"
    path.write_text(snippet + "\nd0 := think\n" + "".join(f"d{i} := d{i - 1}\n" for i in range(1, 1000)))
    calls = _count_instantiations(monkeypatch)
    assert cli.main(["check", str(path)]) == 0
    # one call for the snippet binding `think`, one for the whole chain
    assert len(calls) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["think: ok"] + [f"d{i}: ok" for i in range(1000)]


def test_only_referenced_definitions_are_kept(phil_env):
    # `check` shares one evaluator over a file: a binding that nothing refers
    # to is never met again, so keeping it would only hold its memory
    evaluate_binding = _Evaluator(phil_env)
    for name in phil_env.names():
        evaluate_binding(name)
    assert set(evaluate_binding.kept) == {
        "fork", "fork_with_users", "forks_in_a_row", "phil", "phil_with_forks", "phils_in_a_row"}
