import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import petrimod
from petrimod import cli, dumps, evaluate, fixture_path, loads, validate_pnml
from petrimod.cli import main
from petrimod.errors import SearchBudgetExceeded

PHIL = str(fixture_path("philosophers.hkl"))
PROD = str(fixture_path("production.hkl"))

ABSTRACT_SRC = """\
alphabet { places: a; transitions: s; other: box; }
module m { place n label a; transition v label s; arc n -> v; left: n; right: v; }
lump := abstr(m)
broken := abstr(m . m)
"""


@pytest.fixture()
def abstract_file(tmp_path):
    f = tmp_path / "boxes.hkl"
    f.write_text(ABSTRACT_SRC, encoding="utf-8")
    return str(f)


def test_eval_prints_canonical_dump(capsys, phil_env):
    assert main(["eval", PHIL, "fork"]) == 0
    out = capsys.readouterr().out
    assert out == dumps(evaluate(phil_env, "fork"))


def test_eval_unknown_name_is_usage_error(capsys):
    assert main(["eval", PHIL, "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_unreadable_file_is_usage_error(capsys, tmp_path):
    assert main(["eval", str(tmp_path / "missing.hkl"), "x"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    f = tmp_path / "latin1.hkl"
    f.write_bytes("alphabet { places: caf\u00e9; }".encode("latin-1"))
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["dump", PHIL, "fork", "-o", "{tmp}/missing/fork.json"],
    ["render", PHIL, "fork", "--dot", "{tmp}/missing/fork.dot"],
    ["export-pnml", PHIL, "phils_in_a_cycle", "{tmp}"],
], ids=["dump-missing-dir", "render-missing-dir", "pnml-to-directory"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write") and err.count("\n") == 1


def test_syntax_error_is_usage_error(capsys, tmp_path):
    f = tmp_path / "bad.hkl"
    f.write_text("alphabet { colours: red; }", encoding="utf-8")
    assert main(["eval", str(f), "x"]) == 2


def test_dump_to_file(tmp_path, phil_env):
    out = tmp_path / "fork.json"
    assert main(["dump", PHIL, "fork", "-o", str(out)]) == 0
    from petrimod import structural_equal

    assert structural_equal(loads(out.read_text()), evaluate(phil_env, "fork"))


def test_render_dot(tmp_path):
    out = tmp_path / "think.dot"
    assert main(["render", PHIL, "think", "--dot", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_export_pnml(tmp_path, capsys):
    out = tmp_path / "net.pnml"
    assert main(["export-pnml", PHIL, "phils_in_a_cycle", str(out)]) == 0
    validate_pnml(out.read_text())
    # default output is stdout
    assert main(["export-pnml", PROD, "two_steps"]) == 0
    assert capsys.readouterr().out.lstrip().startswith("<?xml")


def test_export_pnml_rejects_non_net(abstract_file, capsys):
    assert main(["export-pnml", abstract_file, "lump"]) == 1
    assert "lump" in capsys.readouterr().err


def test_iso_positive(capsys):
    assert main(["iso", PHIL, "phils_in_a_cycle", "forks_in_a_cycle"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ISOMORPHIC"
    assert sum(1 for line in out.splitlines() if " -> " in line) == 25


def test_iso_negative(capsys):
    assert main(["iso", PHIL, "think", "eat"]) == 1
    assert "NOT-ISOMORPHIC" in capsys.readouterr().out


def test_iso_budget_undecided(capsys):
    assert main(["iso", PHIL, "phils_in_a_cycle", "forks_in_a_cycle", "--budget", "2"]) == 1
    assert "UNDECIDED" in capsys.readouterr().err


def test_iso_rename_cores(tmp_path, capsys):
    # a module and its double abstraction differ only in the core label
    f = tmp_path / "boxes2.hkl"
    f.write_text(ABSTRACT_SRC + "lump2 := abstr(lump)\n", encoding="utf-8")
    assert main(["iso", str(f), "lump", "lump2"]) == 1
    assert main(["iso", str(f), "lump", "lump2", "--rename-cores"]) == 0
    out = capsys.readouterr().out
    assert "label m -> lump" in out


def test_factorize(capsys):
    assert main(["factorize", PHIL, "phils_in_a_cycle"]) == 0
    out = capsys.readouterr().out
    assert "atoms: 10" in out
    assert "recomposition isomorphic to original: yes" in out
    assert out.count("[take]") == 5 and out.count("[return]") == 5


def test_factorize_refuses_abstract(abstract_file):
    assert main(["factorize", abstract_file, "lump"]) == 1


def test_factorize_refuses_isolated_place(tmp_path, capsys):
    f = tmp_path / "lone.hkl"
    f.write_text("alphabet { places: a; transitions: s; }\n"
                 "module m { place n label a; place lone label a; transition v label s; arc n -> v; }\n",
                 encoding="utf-8")
    assert main(["factorize", str(f), "m"]) == 1
    assert capsys.readouterr() == ("", "m: 1 isolated element(s)\n")


def test_factorize_budget_undecided(monkeypatch, capsys):
    def give_up(view):
        raise SearchBudgetExceeded("gave up")

    monkeypatch.setattr(cli, "factorize", give_up)
    assert main(["factorize", PHIL, "phils_in_a_cycle"]) == 1
    assert capsys.readouterr() == ("", "UNDECIDED: search budget exceeded\n")


def test_reach_summary(capsys):
    assert main(["reach", PHIL, "phils_in_a_cycle"]) == 0
    out = capsys.readouterr().out
    assert "markings: 11" in out
    assert "truncated: no" in out


def test_reach_invariant_holds(capsys):
    code = main(
        ["reach", PHIL, "phils_in_a_cycle", "--invariant", "sum(eating) <= 2 and max(available) <= 1"]
    )
    assert code == 0
    assert "invariant holds over 11 markings" in capsys.readouterr().out


def test_reach_invariant_violated(capsys):
    assert main(["reach", PHIL, "phils_in_a_cycle", "--invariant", "sum(eating) == 0"]) == 1
    out = capsys.readouterr().out
    assert "invariant violated" in out
    assert "path from initial marking: take" in out


def test_reach_invariant_usage_errors(capsys):
    assert main(["reach", PHIL, "phils_in_a_cycle", "--invariant", "count(eating) < 1"]) == 2
    assert main(["reach", PHIL, "phils_in_a_cycle", "--invariant", "sum(nowhere) < 1"]) == 2


def test_malformed_invariant_fails_before_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr(cli, "reachability", lambda *a, **k: pytest.fail("swept before the usage error"))
    assert main(["reach", PHIL, "phils_in_a_cycle", "--invariant", "count(eating) < 1"]) == 2
    assert capsys.readouterr() == ("", "bad invariant clause: 'count(eating) < 1'\n")


AND_SRC = """\
alphabet { places: and, done; transitions: go; }
module m { place p label and marking 1; transition t label go; place q label done; arc p -> t; arc t -> q; }
"""


def test_invariant_over_a_place_labelled_and(capsys, tmp_path):
    # `and` separates clauses only outside parentheses, where no label stands
    f = tmp_path / "and.hkl"
    f.write_text(AND_SRC, encoding="utf-8")
    assert main(["reach", str(f), "m", "--invariant", "sum(and) <= 1"]) == 0
    assert capsys.readouterr().out.endswith("invariant holds over 2 markings\n")
    assert main(["reach", str(f), "m", "--invariant", "max(and) <= 1 and sum(done) < 1"]) == 1
    assert capsys.readouterr().out.endswith("path from initial marking: go\n")
    assert main(["reach", str(f), "m", "--invariant", "sum(and) <= and max(done) < 1"]) == 2
    assert capsys.readouterr() == ("", "bad invariant clause: 'sum(and) <='\n")


def test_overlong_invariant_bound_is_usage_error(capsys):
    argv = ["reach", PHIL, "phils_in_a_cycle", "--invariant", "sum(eating) <= " + "9" * 5000]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "invariant bound too long (5000 digits)\n")


def test_reach_truncation_flag(capsys):
    assert main(["reach", PHIL, "phils_in_a_cycle", "--max-markings", "3"]) == 0
    assert "truncated: yes" in capsys.readouterr().out


REACH_VIOLATED = """\
markings: 11
arcs: 30
truncated: no
invariant violated at marking:
  eating (i11:eat.p_eat) = 1
  thinking (i14:think.p_think) = 1
  available (i16:left_use.p_avail+i17:right_use.p_avail) = 1
  thinking (i18:think.p_think) = 1
  eating (i3:eat.p_eat) = 1
  thinking (i6:think.p_think) = 1
path from initial marking: take take
"""


def test_reach_output_is_pinned(capsys):
    assert main(["reach", PHIL, "phils_in_a_cycle", "--invariant", "sum(eating) <= 1"]) == 1
    assert capsys.readouterr().out == REACH_VIOLATED
    assert main(["reach", PHIL, "forks_in_a_cycle", "--max-markings", "4"]) == 0
    assert capsys.readouterr().out == "markings: 4\narcs: 6\ntruncated: yes\n"


def test_check_fixtures_all_ok(capsys):
    for path in (PHIL, PROD):
        assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "phils_in_a_cycle: ok" in out


def test_check_long_composition_chain(tmp_path, capsys):
    f = tmp_path / "long.hkl"
    f.write_text("alphabet { places: a; }\nlong := " + " . ".join(["E"] * 2000) + "\n", encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert "long: ok" in capsys.readouterr().out


@pytest.mark.parametrize("depth, opener", [(5000, "("), (1000, "abstr(")])
def test_check_deep_nesting(tmp_path, capsys, depth, opener):
    f = tmp_path / "deep.hkl"
    source = ABSTRACT_SRC.split("lump")[0]  # the alphabet and module m
    f.write_text(source + f"deep := {opener * depth}m{')' * depth}\n", encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert "deep: ok" in capsys.readouterr().out
    f.write_text(source + f"deep := {opener * depth}m{')' * (depth - 1)}\n", encoding="utf-8")
    assert main(["check", str(f)]) == 2
    assert "expected ')'" in capsys.readouterr().err


def test_check_reports_broken_binding(abstract_file, capsys):
    assert main(["check", abstract_file]) == 1
    out = capsys.readouterr().out
    assert "broken: ERROR" in out
    assert "lump: ok" in out


def test_check_file_without_bindings(tmp_path, capsys):
    f = tmp_path / "alphabet_only.hkl"
    f.write_text("alphabet { places: a; }\n", encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr() == ("no bindings\n", "")


@pytest.mark.parametrize("argv", [["check"], ["eval", "m"]], ids=["check", "eval"])
def test_overlong_token_count_is_usage_error(tmp_path, capsys, argv):
    f = tmp_path / "huge.hkl"
    f.write_text("alphabet { places: a; }\nmodule m { place n label a marking " + "9" * 5000 + "; }\n",
                 encoding="utf-8")
    assert main([argv[0], str(f), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{f}: token count too long (5000 digits) (line 2)\n"


@pytest.mark.parametrize("argv", [["check"], ["eval", "x"]], ids=["check", "eval"])
def test_binding_named_like_a_label_is_usage_error(tmp_path, capsys, argv):
    f = tmp_path / "clash.hkl"
    f.write_text(
        "alphabet { places: a; transitions: t; }\n"
        "module m { place n label a; transition v label t; arc n -> v; left: v; right: v; }\n"
        "a := m\n"
        "x := abstr(a) . m\n",
        encoding="utf-8",
    )
    assert main([argv[0], str(f), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{f}: 'a' is bound and is also a place label (line 3)\n"


# Runs in a fresh interpreter: every binding of both fixtures through eval,
# factorize and a capped reach, and iso with and without --rename-cores for
# every ordered pair of bindings.
_EVERY_OUTPUT = """\
import contextlib, io
from petrimod import fixture_path, parse
from petrimod.cli import main

for fixture in ("philosophers.hkl", "production.hkl"):
    path = fixture_path(fixture)
    names = parse(path.read_text(encoding="utf-8")).names()
    runs = [[cmd, name, *extra] for name in names
            for cmd, *extra in (["eval"], ["factorize"], ["reach", "--max-markings", "500"])]
    runs += [["iso", a, b, *extra] for a in names for b in names for extra in ([], ["--rename-cores"])]
    for cmd, *rest in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main([cmd, str(path), *rest])
        print(fixture, cmd, *rest, "->", code)
        print(out.getvalue(), end="")
"""


# SHA-256 and size of _EVERY_OUTPUT's stdout; any change to a fixture output changes them
_EVERY_OUTPUT_SHA256 = "fe3cad03c5267c6b94812b6923c477f70f7f6588fc44f08f94db416e292e1f18"
_EVERY_OUTPUT_BYTES = 121_059


def test_outputs_do_not_depend_on_the_hash_seed():
    # string hashes, and so NodeId hashes and set order, are salted per process
    src = str(Path(petrimod.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _EVERY_OUTPUT], env=env, capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"ISOMORPHIC\n") > 10 and b"recomposition isomorphic to original: yes" in outs[0]
    assert (len(outs[0]), hashlib.sha256(outs[0]).hexdigest()) == (_EVERY_OUTPUT_BYTES, _EVERY_OUTPUT_SHA256)


def test_selftest_runs_all_laws(capsys):
    assert main(["selftest", "--trials", "4", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed: 7" in out
    for law in (
        "associativity",
        "identity",
        "closure idempotence",
        "closure label split",
        "abstraction laws",
        "factorization",
    ):
        assert law in out
    assert "FAIL" not in out


def test_selftest_seed_precedence(capsys, monkeypatch):
    monkeypatch.setenv("HERAKLIT_SEED", "901")
    assert main(["selftest", "--trials", "2"]) == 0
    assert "seed: 901" in capsys.readouterr().out
    assert main(["selftest", "--trials", "2", "--seed", "902"]) == 0
    assert "seed: 902" in capsys.readouterr().out


def test_selftest_default_seed(capsys, monkeypatch):
    monkeypatch.delenv("HERAKLIT_SEED", raising=False)
    assert main(["selftest", "--trials", "2"]) == 0
    assert "seed: 1105" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["abc", ""])
def test_selftest_bad_env_seed_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("HERAKLIT_SEED", value)
    assert main(["selftest", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"HERAKLIT_SEED must be an integer, got {value!r}\n"


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "petrimod.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "selftest" in proc.stdout
