"""Properties of randomly generated modules, driven by hypothesis: the
calculus laws of `petrimod.laws`, plus facts about single operations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from petrimod import (
    abstract_of,
    closure,
    compose,
    dumps,
    harmonic_pairs,
    isomorphic,
    loads,
    structural_equal,
    verify_well_formed,
)
from petrimod.generate import random_module
from petrimod.laws import LAWS

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def mod(seed, tag, **kw):
    return random_module(random.Random(f"{seed}:{tag}"), tag, **kw)


@pytest.mark.parametrize("name", LAWS)
@settings(deadline=None)
@given(seeds)
def test_law_holds(name, seed):
    assert LAWS[name].holds(random.Random(seed))


@settings(deadline=None)
@given(seeds)
def test_results_stay_well_formed(seed):
    a, b = mod(seed, "a", name="A"), mod(seed, "b")
    for m in (compose(a, b), closure(a), abstract_of(a)):
        assert verify_well_formed(m) == []


@settings(deadline=None)
@given(seeds)
def test_composition_conserves_tokens(seed):
    a, b = mod(seed, "a"), mod(seed, "b")
    total = sum(compose(a, b).marking.values())
    assert total == sum(a.marking.values()) + sum(b.marking.values())


@settings(deadline=None)
@given(seeds)
def test_interface_arithmetic(seed):
    a, b = mod(seed, "a"), mod(seed, "b")
    pairs = harmonic_pairs(a.right, b.left, lambda n: (a.nodes.get(n) or b.nodes[n]).label)
    c = compose(a, b)
    assert len(c.left) == len(a.left) + len(b.left) - len(pairs)
    assert len(c.right) == len(b.right) + len(a.right) - len(pairs)
    assert len(c.nodes) == len(a.nodes) + len(b.nodes) - len(pairs)


@settings(deadline=None)
@given(seeds)
def test_interiors_survive_composition(seed):
    a, b = mod(seed, "a"), mod(seed, "b")
    c = compose(a, b)
    assert a.interior() <= c.interior()
    assert b.interior() <= c.interior()


@settings(deadline=None)
@given(seeds)
def test_dump_round_trips(seed):
    m = mod(seed, "a", name="A")
    assert structural_equal(loads(dumps(m)), m)


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_isomorphism_is_reflexive_under_retagging(seed):
    a = mod(seed, "a")
    assert isomorphic(a, a.retagged("zz")) is not None
