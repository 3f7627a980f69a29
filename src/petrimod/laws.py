"""The laws of the module calculus, each written once.

A law is a one-trial predicate `holds(rng) -> bool`: it draws its random
modules or nets from `rng` and says whether the law held on them.  Three
runners use this registry: `petrimod selftest`, the acceptance gate and the
hypothesis suite.  They choose the random streams and trial counts; the law
bodies live only here.  `import petrimod` does not import this module.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .core import abstract_of, closure, compose, empty_module
from .generate import random_module, random_net
from .iso import IsoOptions, isomorphic, structural_equal
from .nets import factorize, net_to_module

__all__ = ["Law", "LAWS"]

_RENAME = IsoOptions(rename_abstract_cores=True)


def associativity(rng: random.Random) -> bool:
    a, b, c = (random_module(rng, t) for t in ("a", "b", "c"))
    abc = compose(a, b, c)
    return structural_equal(compose(compose(a, b), c), abc) and structural_equal(compose(a, compose(b, c)), abc)


def identity(rng: random.Random) -> bool:
    a = random_module(rng, "a")
    e = empty_module()
    return structural_equal(compose(e, a), a) and structural_equal(compose(a, e), a)


def closure_idempotence(rng: random.Random) -> bool:
    c = closure(random_module(rng, "a"))
    return structural_equal(closure(c), c)


def closure_label_split(rng: random.Random) -> bool:
    # on modules whose two interfaces share no node, a label never survives
    # on both sides of the closure
    c = closure(random_module(rng, "a", shared_interfaces=False))
    return not set(c.left.labels(c.label_of)) & set(c.right.labels(c.label_of))


def abstraction(rng: random.Random) -> bool:
    # abstraction is idempotent and commutes with composition, up to the
    # label of the abstract core
    a = random_module(rng, "a", name="A")
    b = random_module(rng, "b", name="B")
    once = abstract_of(a)
    if isomorphic(abstract_of(once), once, _RENAME) is None:
        return False
    lhs = abstract_of(compose(a, b).with_name("AB"))
    rhs = abstract_of(compose(abstract_of(a), abstract_of(b)).with_name("AB"))
    return isomorphic(lhs, rhs, _RENAME) is not None


def factorization(rng: random.Random) -> bool:
    # a net is the composition of its transition atoms, checked again here
    # against the net's own module rather than trusting `matches` alone
    net = random_net(rng, "n", max_transitions=15, max_places=20)
    result = factorize(net)
    return result.matches and isomorphic(result.recomposed, net_to_module(net)) is not None


class Law(NamedTuple):
    holds: Callable[[random.Random], bool]
    cost: int  # relative cost of one trial; selftest runs max(1, trials // cost) of them


LAWS: dict[str, Law] = {
    "associativity": Law(associativity, 1),
    "identity": Law(identity, 1),
    "closure idempotence": Law(closure_idempotence, 1),
    "closure label split": Law(closure_label_split, 1),
    "abstraction laws": Law(abstraction, 4),
    "factorization": Law(factorization, 10),
}
