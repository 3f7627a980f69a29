"""Command line front end.

Exit codes: 0 success, 1 a checked property does not hold (not isomorphic,
invariant violated, recomposition mismatch, well-formedness issues, not a
net), 2 usage or input errors (unreadable file or output path, syntax error,
unbound name).
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from pathlib import Path

from .core import Module, _ID_KEY, verify_well_formed
from .dsl import Environment, _Evaluator, evaluate, parse
from .errors import (
    AbstractNodePresent,
    DslError,
    IsolatedElement,
    NotANet,
    NotBipartite,
    PetrimodError,
    SearchBudgetExceeded,
)
from .export import dumps, to_dot, to_pnml
from .iso import IsoOptions, isomorphic
from .laws import LAWS
from .nets import NetView, factorize, validate_net
from .sim import MAX_MARKINGS, MAX_TOKENS_PER_PLACE, Clause, Invariant, check_invariant, reachability

DEFAULT_SEED = 1105


class _Failure(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code


def _load(path: str) -> Environment:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _Failure(2, f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None
    try:
        return parse(text)
    except DslError as e:
        raise _Failure(2, f"{path}: {e}") from None


def _evaluate(env: Environment, name: str) -> Module:
    try:
        return evaluate(env, name)
    except DslError as e:
        raise _Failure(2, str(e)) from None
    except PetrimodError as e:
        raise _Failure(2, f"evaluation failed: {e}") from None


def _as_net(module: Module, what: str) -> NetView:
    try:
        return validate_net(module)
    except (AbstractNodePresent, NotBipartite) as e:
        raise _Failure(1, f"{what} is not a net: {e}") from None


def _write(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as e:
            raise _Failure(2, f"cannot write {out}: {e.strerror or e}") from None


# -- commands -------------------------------------------------------------------

def _cmd_dump(args) -> int:
    module = _evaluate(_load(args.file), args.name)
    _write(dumps(module), args.output)
    return 0


def _cmd_render(args) -> int:
    module = _evaluate(_load(args.file), args.name)
    _write(to_dot(module, title=args.name), args.dot)
    return 0


def _cmd_export_pnml(args) -> int:
    module = _evaluate(_load(args.file), args.name)
    try:
        text = to_pnml(module)
    except NotANet as e:
        raise _Failure(1, f"{args.name}: {e}") from None
    _write(text, args.output)
    return 0


def _cmd_iso(args) -> int:
    env = _load(args.file)
    a = _evaluate(env, args.name_a)
    b = _evaluate(env, args.name_b)
    opts = IsoOptions(rename_abstract_cores=args.rename_cores)
    try:
        witness = isomorphic(a, b, opts, budget=args.budget)
    except SearchBudgetExceeded:
        raise _Failure(1, "UNDECIDED: search budget exceeded") from None
    if witness is None:
        print("NOT-ISOMORPHIC")
        return 1
    print("ISOMORPHIC")
    for u, v in witness.mapping:
        print(f"  {u} -> {v}")
    for old, new in witness.label_renaming:
        print(f"  label {old} -> {new}")
    return 0


def _cmd_factorize(args) -> int:
    module = _evaluate(_load(args.file), args.name)
    view = _as_net(module, args.name)
    try:
        result = factorize(view)
    except IsolatedElement as e:
        raise _Failure(1, f"{args.name}: {e}") from None
    except SearchBudgetExceeded:
        raise _Failure(1, "UNDECIDED: search budget exceeded") from None
    print(f"atoms: {len(result.atoms)}")
    # one atom per transition, in sorted order: its arcs are the transition's
    _, transitions, pre, post = view._numbering
    for t, ps, qs in zip(transitions, pre, post):
        print(f"  [{module.label_of(t)}] {len(ps)} in, {len(qs)} out")
    verdict = "yes" if result.matches else "NO"
    print(f"recomposition isomorphic to original: {verdict}")
    return 0 if result.matches else 1


_CLAUSE = re.compile(r"(sum|max)\(([A-Za-z_][A-Za-z0-9_]*)\)\s*(<=|>=|==|!=|<|>)\s*([0-9]+)\Z")


def _parse_invariant(text: str, module: Module, view: NetView) -> Invariant:
    """`sum(label) <= k and max(label) < k ...`, each label standing for its places.

    Only an `and` outside parentheses separates clauses, so `and` is a label too.
    """
    by_label: dict[str, list] = {}
    for p in view.places:
        by_label.setdefault(module.label_of(p), []).append(p)
    clauses = []
    for part in re.split(r"\band\b(?![^()]*\))", text):
        m = _CLAUSE.match(part.strip())
        if not m:
            raise _Failure(2, f"bad invariant clause: {part.strip()!r}")
        agg, label, op, num = m.groups()
        try:
            num = int(num)
        except ValueError:  # longer than the interpreter's int-string limit
            raise _Failure(2, f"invariant bound too long ({len(num)} digits)") from None
        if label not in by_label:
            raise _Failure(2, f"invariant names unknown place label {label!r}")
        clauses.append(Clause(agg, by_label[label], op, num))
    return Invariant(clauses)


def _cmd_reach(args) -> int:
    module = _evaluate(_load(args.file), args.name)
    view = _as_net(module, args.name)
    # parsed first: a usage error costs no sweep and prints nothing on stdout
    invariant = None if args.invariant is None else _parse_invariant(args.invariant, module, view)
    graph = reachability(view, max_markings=args.max_markings,
                         max_tokens_per_place=args.max_tokens)
    print(f"markings: {len(graph)}")
    print(f"arcs: {len(graph.arcs)}")
    print(f"truncated: {'yes' if graph.truncated else 'no'}")
    if invariant is None:
        return 0
    hit = check_invariant(graph, invariant)
    if hit is None:
        note = " (truncated sweep, result is partial)" if graph.truncated else ""
        print(f"invariant holds over {len(graph)} markings{note}")
        return 0
    print("invariant violated at marking:")
    for p in sorted(hit.marking, key=_ID_KEY):
        print(f"  {module.label_of(p)} ({p}) = {hit.marking[p]}")
    labels = " ".join(module.label_of(t) for t in hit.path)
    print(f"path from initial marking: {labels or '(empty)'}")
    return 1


def _cmd_check(args) -> int:
    env = _load(args.file)
    evaluate_binding = _Evaluator(env)  # one context, so each definition is expanded once for the file
    bad = 0
    for name in env.names():
        try:
            module = evaluate_binding(name)
        except PetrimodError as e:
            print(f"{name}: ERROR {e}")
            bad += 1
            continue
        issues = verify_well_formed(module)
        if issues:
            bad += 1
            print(f"{name}: {len(issues)} issue(s)")
            for issue in issues:
                print(f"  - {issue}")
        else:
            print(f"{name}: ok")
    if not env.names():
        print("no bindings")
    return 1 if bad else 0


# -- selftest --------------------------------------------------------------------

def _cmd_selftest(args) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("HERAKLIT_SEED", str(DEFAULT_SEED))
        try:
            seed = int(text)
        except ValueError:
            raise _Failure(2, f"HERAKLIT_SEED must be an integer, got {text!r}") from None
    print(f"seed: {seed}")
    failed = 0
    for name, law in LAWS.items():
        n = max(1, args.trials // law.cost)
        rng = random.Random(f"{seed}:{name}")
        ok = all(law.holds(rng) for _ in range(n))
        print(f"{name:<22} {'ok' if ok else 'FAIL'}  ({n} trials)")
        failed += not ok
    return 1 if failed else 0


# -- wiring ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrimod",
        description="Compose, compare, export, and simulate net modules written in .hkl files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a definition and print its canonical dump")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(func=_cmd_dump, output=None)

    p = sub.add_parser("dump", help="write the canonical dump of a definition")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_dump)

    p = sub.add_parser("render", help="write Graphviz DOT for a definition")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--dot", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("export-pnml", help="write PNML for a definition that is a net")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("output", nargs="?", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_export_pnml)

    p = sub.add_parser("iso", help="search a structure-preserving bijection between two definitions")
    p.add_argument("file")
    p.add_argument("name_a")
    p.add_argument("name_b")
    p.add_argument("--rename-cores", action="store_true",
                   help="allow consistent renaming of abstract node labels")
    p.add_argument("--budget", type=int, default=1_000_000,
                   help="accepted candidate expansions before giving up as undecided")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("factorize", help="split a net into transition atoms and recompose")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("reach", help="breadth-first reachability over the token game")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--max-markings", type=int, default=MAX_MARKINGS)
    p.add_argument("--max-tokens", type=int, default=MAX_TOKENS_PER_PLACE,
                   help="per-place token cap before truncating")
    p.add_argument("--invariant", default=None,
                   help="e.g. \"sum(eating) <= 2 and max(available) <= 1\"")
    p.set_defaults(func=_cmd_reach)

    p = sub.add_parser("check", help="evaluate every binding in a file and verify well-formedness")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("selftest", help="run the embedded property suite on generated modules")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: HERAKLIT_SEED env var, else {DEFAULT_SEED})")
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as f:
        print(str(f), file=sys.stderr)
        return f.code


if __name__ == "__main__":
    sys.exit(main())
