"""Smoke runs of the scripts under scripts/, through their main()."""

import csv
import runpy
from pathlib import Path

from laserspin import product_state, unitary_orbit_bound

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, tmp_path, capsys):
    """The CSV rows main() of scripts/name writes, with stdout captured."""
    out = tmp_path / "out.csv"
    runpy.run_path(str(SCRIPTS / name))["main"](out)
    assert f"wrote {out}" in capsys.readouterr().out
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_product_entanglement(tmp_path, capsys):
    rows = run_script("run_product_entanglement.py", tmp_path, capsys)
    assert len(rows) == 321
    peak = max(float(r["concurrence_numeric"]) for r in rows)
    # the unitary-orbit bound of the initial state is 0.25
    assert 0.0 < peak <= unitary_orbit_bound(product_state(0.0, 1.0))


def test_werner_stability(tmp_path, capsys):
    rows = run_script("run_werner_stability.py", tmp_path, capsys)
    assert len(rows) == 30
    for r in rows:
        assert float(r["max_abs_deviation"]) < float(r["bound_10_eta_sq"])

