"""Composable net modules: an interface calculus with a snippet language.

A module is a directed labeled graph with an ordered left and right
interface.  Composition merges equally labeled, equally indexed interface
nodes of adjacent modules; closure does the same between a module's own two
sides; abstraction collapses the interior to a single named node.  On top of
the calculus sit a small text format (.hkl), isomorphism checking, exporters
(canonical JSON, DOT, PNML), and a token-game simulator.
"""

from importlib import resources
from pathlib import Path

from .core import (
    Alphabet,
    AtomicNodeId,
    HarmonicPair,
    Interface,
    Kind,
    Module,
    Node,
    NodeId,
    abstract_of,
    closure,
    compose,
    empty_module,
    harmonic_pairs,
    is_monolithic,
    seam,
    verify_well_formed,
)
from .dsl import Environment, evaluate, instantiate, parse
from .export import dumps, loads, to_dot, to_pnml, validate_pnml
from .iso import IsoOptions, IsoWitness, isomorphic, structural_equal, verify_witness
from .nets import Factorization, NetView, factorize, net_to_module, transition_atom, validate_net
from .sim import Clause, Invariant, ReachGraph, check_invariant, enabled, fire, reachability
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "AtomicNodeId", "HarmonicPair", "Interface",
    "Kind", "Module", "Node", "NodeId",
    "abstract_of", "closure", "compose", "empty_module", "harmonic_pairs",
    "is_monolithic", "seam", "verify_well_formed",
    "Environment", "evaluate", "instantiate", "parse",
    "dumps", "loads", "to_dot", "to_pnml", "validate_pnml",
    "IsoOptions", "IsoWitness", "isomorphic", "structural_equal", "verify_witness",
    "Factorization", "NetView", "factorize", "net_to_module", "transition_atom", "validate_net",
    "Clause", "Invariant", "ReachGraph", "check_invariant", "enabled", "fire", "reachability",
    "errors", "fixture_path",
]


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled .hkl fixture, e.g. 'philosophers.hkl'."""
    path = resources.files("petrimod").joinpath("fixtures", name)
    with resources.as_file(path) as concrete:
        return Path(concrete)
