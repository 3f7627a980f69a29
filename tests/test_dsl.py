import pytest

from petrimod import Kind, dumps, evaluate, isomorphic, parse, structural_equal
from petrimod.dsl import Closure, Compose, Ref
from petrimod.errors import (
    DslSyntaxError,
    DuplicateName,
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
