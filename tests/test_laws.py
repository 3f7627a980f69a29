"""Every law of the registry reaches every runner, so a law added to
`petrimod.laws` cannot be missed by `selftest` or by the acceptance gate."""

import test_acceptance
from petrimod.cli import main
from petrimod.laws import LAWS


def test_every_law_reaches_selftest_and_the_gate(monkeypatch, capsys):
    ran = set()

    def spy(name):
        def holds(rng):
            ran.add(name)
            return True
        return holds

    for name, law in LAWS.items():
        monkeypatch.setitem(LAWS, name, law._replace(holds=spy(name)))

    criteria = [getattr(test_acceptance, f) for f in dir(test_acceptance) if f.startswith("test_criterion_")]
    assert len(criteria) == 10
    for criterion in criteria:
        criterion()
    assert ran == set(LAWS), "laws no acceptance criterion runs"

    ran.clear()
    capsys.readouterr()
    assert main(["selftest", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert ran == set(LAWS), "laws selftest does not run"
    assert len(lines) == len(LAWS)
    for name, line in zip(LAWS, lines):
        assert line.startswith(f"{name} ") and line.endswith("ok  (1 trials)")
