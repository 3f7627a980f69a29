"""Seeded benchmark inputs, built in memory from the bundled fixture snippets.

Nothing here is timed.  The seed only permutes the order of top-level
declarations in the generated .hkl text, which changes no answer: every
verdict the benchmark checks follows from the size alone.
"""

from __future__ import annotations

import random
import re

# A top-level `alphabet { ... }` or `module name { ... }` block of a fixture;
# blocks hold no nested braces.
_BLOCK = re.compile(r"^(?:alphabet|module\s+\w+)\s*\{[^{}]*\}", re.MULTILINE)


def fixture_blocks(text: str) -> list[str]:
    """The alphabet and snippet declarations of a fixture, without its definitions."""
    return _BLOCK.findall(text)


def _assemble(blocks: list[str], definitions: list[str], seed: int) -> str:
    decls = blocks + definitions
    random.Random(seed).shuffle(decls)
    return "\n\n".join(decls) + "\n"


def philosopher_ring(fixture_text: str, n: int, seed: int = 0) -> str:
    """.hkl source of the philosopher-centric ring of n philosophers.

    Defines `phils_in_a_cycle` exactly as philosophers.hkl does for five,
    with the row lengthened to n.  The ring has 5n nodes and 8n arcs.
    """
    row = " . ".join(["phil_with_forks"] * n)
    definitions = [
        "phil := think . eat",
        "phil_with_forks := right_use . phil . left_use",
        f"phils_in_a_row := {row}",
        "phils_in_a_cycle := (phils_in_a_row)^c",
    ]
    return _assemble(fixture_blocks(fixture_text), definitions, seed)


def production_chain(fixture_text: str, n: int, assoc: str, seed: int = 0) -> str:
    """.hkl source of `chain`, n `production . pack` links grouped to one side.

    No link's right interface (parcel) matches the next link's left interface
    (material), so both interfaces widen to n slots.  Both groupings
    instantiate the snippets in the same order, so associativity makes the
    two results structurally equal.
    """
    if assoc == "left":
        chain = " . ".join(["link"] * n)
    elif assoc == "right":
        chain = " . (".join(["link"] * n) + ")" * (n - 1)
    else:
        raise ValueError(f"assoc must be 'left' or 'right', not {assoc!r}")
    definitions = ["link := production . pack", f"chain := {chain}"]
    return _assemble(fixture_blocks(fixture_text), definitions, seed)


def lucas(n: int) -> int:
    """L_n, the number of reachable markings of the ring of n philosophers
    (the independent sets of an n-cycle: who is eating)."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a
