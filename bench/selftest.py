"""Negative control for the benchmark's output gate.

Usage: python3 bench/selftest.py

Runs the real CLI and feeds the gate
  1. a correct simulate CSV, which must pass (positive control);
  2. the same CSV with one concurrence value moved by 10 tol;
  3. the output of `validate --filter lorentz --inject-mu-error 1e-3`
     (the modulus error only reaches the Lorentz oracle);
and checks that fail_frac counts each of the two bad runs as failed.
Exits 0 when the gate behaves, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace

from run import WORK, count_failed, gate, references, spawn
from workloads import cli_args, make_inputs, write_inputs


def main() -> int:
    # the simulate path of dense_trace on a 9-sample scenario, to keep it fast
    name = "dense_trace"
    inputs = make_inputs("validate_factorization", 1)
    refs = references(inputs)
    config = write_inputs(inputs, WORK / "selftest")
    out = WORK / "runs" / "selftest-simulate"
    run = spawn("plain", out, cli_args(name, inputs, config, out))
    correct = gate(name, inputs, refs, run)

    csv = out / "rows.csv"
    lines = csv.read_text().split("\n")
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 10.0 * inputs.scenario["tol"])
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines))
    moved = replace(run, problems=gate(name, inputs, refs, run))

    out = WORK / "runs" / "selftest-validate"
    injected = spawn("plain", out, ["validate", "--filter", "lorentz",
                                    "--inject-mu-error", "1e-3"])
    injected.problems = gate("validate_factorization", inputs, refs, injected)

    bad = [moved, injected]
    fail_frac = count_failed(bad) / len(bad)
    print(f"correct CSV: {correct or 'passes'}")
    print(f"one concurrence moved by 10 tol: {moved.problems}")
    print(f"validate --inject-mu-error 1e-3: {injected.problems}")
    print(f"fail_frac of the two bad runs: {fail_frac:g}")
    ok = not correct and fail_frac == 1.0
    shutil.rmtree(WORK / "runs", ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
