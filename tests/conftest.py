import sys

import pytest

from petrimod import Alphabet, Module, Node, NodeId, fixture_path, parse

# Greek-ish label universe for hand-built modules; alpha/beta/gamma/delta are
# deliberately outside the place/transition partition.
ALPHABET = Alphabet(
    places={"p", "q"},
    transitions={"t", "u"},
    other={"alpha", "beta", "gamma", "delta"},
)


def node(tag: str, name: str, label: str) -> Node:
    return Node(NodeId.single(tag, name), label, ALPHABET.kind_of(label))


def module(nodes, edges=(), left=(), right=(), marking=None, name=None) -> Module:
    ids = {n.id for n in nodes}
    assert set(left) <= ids and set(right) <= ids
    return Module(nodes, edges, left, right, marking, name)


def line_events(path: str, fn):
    """`fn()` and the number of line events it runs inside the source file
    `path`: a work count that does not depend on the machine."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != path:
            return None
        count += event == "line"
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(outer)
    return count, result


@pytest.fixture(scope="session")
def phil_env():
    return parse(fixture_path("philosophers.hkl").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def prod_env():
    return parse(fixture_path("production.hkl").read_text(encoding="utf-8"))
