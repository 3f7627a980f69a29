"""Exception types raised across the package."""

from __future__ import annotations


class PetrimodError(Exception):
    """Base class for every error this package raises deliberately."""


# -- module calculus ---------------------------------------------------------

class NonDisjointInterfaces(PetrimodError):
    """Two interfaces handed to harmonic_pairs share a node."""

    def __init__(self, shared):
        self.shared = frozenset(shared)
        super().__init__(f"interfaces share {len(self.shared)} node(s)")


class NonDisjointOperands(PetrimodError):
    """Operands of a composition share atomic node ids."""

    def __init__(self, shared):
        self.shared = frozenset(shared)
        ex = ", ".join(str(a) for a in sorted(self.shared)[:3])
        super().__init__(f"operands share atoms ({ex}{', ...' if len(self.shared) > 3 else ''})")


class KindMismatch(PetrimodError):
    """A harmonic pair would merge nodes of different kinds."""


class UnnamedModule(PetrimodError):
    """An operation that needs a module name got an anonymous module."""


class MalformedModule(PetrimodError):
    """Module construction arguments violate a structural invariant."""


# -- net view ----------------------------------------------------------------

class NotBipartite(PetrimodError):
    """Some arc connects two places or two transitions."""

    def __init__(self, bad_edges):
        self.bad_edges = tuple(bad_edges)
        super().__init__(f"{len(self.bad_edges)} arc(s) connect nodes of equal kind")


class AbstractNodePresent(PetrimodError):
    """A module viewed as a net contains non-place, non-transition nodes."""

    def __init__(self, nodes):
        self.nodes = tuple(nodes)
        super().__init__(f"{len(self.nodes)} node(s) are neither places nor transitions")


class UnknownTransition(PetrimodError):
    """Transition id not present in the net."""


class IsolatedElement(PetrimodError):
    """A net element without any arc, where the operation forbids one."""

    def __init__(self, nodes, msg=None):
        self.nodes = tuple(nodes)
        super().__init__(msg or f"{len(self.nodes)} isolated element(s)")


# -- isomorphism -------------------------------------------------------------

class SearchBudgetExceeded(PetrimodError):
    """The witness search gave up before deciding; the answer is unknown."""


# -- snippet language --------------------------------------------------------

class DslError(PetrimodError):
    """Base for parser/evaluator errors; carries a source position."""

    def __init__(self, msg, line=None):
        self.line = line
        at = f" (line {line})" if line is not None else ""
        super().__init__(msg + at)


class DslSyntaxError(DslError):
    pass


class DuplicateName(DslError):
    pass


class UnknownLabel(DslError):
    pass


class RecursiveDefinition(DslError):
    pass


class UnboundName(DslError):
    pass


# -- export ------------------------------------------------------------------

class NotANet(PetrimodError):
    """PNML export asked for a module that is not a net."""


class ParseError(PetrimodError):
    """A canonical dump could not be read back."""


# -- simulation --------------------------------------------------------------

class NotEnabled(PetrimodError):
    """fire() called with a transition the marking does not enable."""
