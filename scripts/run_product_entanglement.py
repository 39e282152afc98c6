#!/usr/bin/env python3
"""Laser-induced entanglement of an initially uncorrelated spin pair.

Runs the antiparallel boundary product state (alpha = 0, beta = 1) under
an elliptically polarized drive, where the exact evolution crosses the
separability boundary within a few periods, and writes the concurrence
trace.  The leading-order product formula `concurrence_product_analytic`
is not written beside it: on this drive it reaches 2.22 and reads above
1, an impossible concurrence, at 136 of the 321 samples, while the state's
unitary-orbit bound is 0.25 (ROADMAP item 4).  The scenario
goes through `run_scenario`, so the drive is integrated over a quarter
of a motion period, every later sample is composed from it by
periodicity, time reversal and the half-period shift, and the
propagated states get the same invariant checks as `laserspin
simulate`.

Usage: python scripts/run_product_entanglement.py [out.csv]
"""

import math
import sys

from laserspin import BoundStateParams, LaserParams
from laserspin.config import InitialState, ScenarioConfig
from laserspin.simulate import run_scenario

ALPHA, BETA = 0.0, 1.0
ETA, EPSILON = 0.5, 0.3
G_COUPLING = 0.5
GTILDES = (6.0, 2.0)   # Delta = 4
PERIODS = 8


def main(out_path="product_entanglement.csv"):
    trace = run_scenario(ScenarioConfig(
        laser=LaserParams(eta=ETA, epsilon=EPSILON),
        bound=BoundStateParams.from_gtildes(*GTILDES, g_coupling=G_COUPLING),
        gamma_z=1.0, initial_state=InitialState("product", alpha=ALPHA,
                                                beta=BETA),
        t_end=PERIODS, samples=PERIODS * 40 + 1, tol=1e-8))
    lines = ["t_over_period,concurrence_numeric"]
    for t, c in zip(trace.t.tolist(), trace.concurrence_numeric.tolist()):
        lines.append(f"{t / (2 * math.pi):.6g},{c:.6e}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out_path}; peak numeric concurrence "
          f"{trace.concurrence_numeric.max():.4f}")


if __name__ == "__main__":
    main(*sys.argv[1:])
