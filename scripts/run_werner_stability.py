#!/usr/bin/env python3
"""Werner-state concurrence stability versus laser intensity.

Runs Werner states over one drive period for a grid of intensities and
writes the worst concurrence deviation from the flat leading-order value
(3p - 1)/2 per (eta, p) point, ready for plotting deviation against
eta^2.  Each point goes through `run_scenario`, so the states get the
same invariant checks as `laserspin simulate`, and the leading-order
value is its analytic column.

Usage: python scripts/run_werner_stability.py [out.csv]
"""

import sys

import numpy as np

from laserspin import BoundStateParams, LaserParams
from laserspin.config import InitialState, ScenarioConfig
from laserspin.simulate import run_scenario

ETAS = [0.01, 0.02, 0.05, 0.1, 0.15, 0.2]
PS = [0.4, 0.5, 0.65, 0.8, 0.95]
G_COUPLING = 0.1
GTILDES = (4.0, 1.0)


def main(out_path="werner_stability.csv"):
    bound = BoundStateParams.from_gtildes(*GTILDES, g_coupling=G_COUPLING)
    lines = ["eta,p,max_abs_deviation,bound_10_eta_sq"]
    for eta in ETAS:
        for p in PS:
            trace = run_scenario(ScenarioConfig(
                laser=LaserParams(eta=eta, epsilon=0.0), bound=bound,
                gamma_z=1.0, initial_state=InitialState("werner", p=p),
                t_end=1.0, samples=81, tol=1e-8))
            dev = np.abs(trace.concurrence_numeric
                         - trace.concurrence_analytic).max()
            lines.append(f"{eta:.6g},{p:.6g},{dev:.6e},{10 * eta * eta:.6e}")
            print(lines[-1])
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main(*sys.argv[1:])
