#!/usr/bin/env python3
"""Werner-state concurrence stability versus laser intensity.

Evolves Werner states over one drive period for a grid of intensities and
writes the worst concurrence deviation from the flat leading-order value
(3p - 1)/2 per (eta, p) point, ready for plotting deviation against
eta^2.

Usage: python scripts/run_werner_stability.py [out.csv]
"""

import math
import sys

import numpy as np

from laserspin import (BoundStateParams, LaserParams,
                       concurrence_werner_analytic, modulus_from_params,
                       propagate, spin_hamiltonian, werner_state,
                       wootters_concurrence)

ETAS = [0.01, 0.02, 0.05, 0.1, 0.15, 0.2]
PS = [0.4, 0.5, 0.65, 0.8, 0.95]
G_COUPLING = 0.1
GTILDES = (4.0, 1.0)


def main(out_path="werner_stability.csv"):
    bound = BoundStateParams.from_gtildes(*GTILDES, g_coupling=G_COUPLING)
    lines = ["eta,p,max_abs_deviation,bound_10_eta_sq"]
    for eta in ETAS:
        laser = LaserParams(eta=eta, epsilon=0.0)
        kin = modulus_from_params(laser, 1.0)
        times = np.linspace(0.0, 2.0 * math.pi, 81)
        Us = propagate(
            lambda t: spin_hamiltonian(t, laser, kin, bound), times, 1e-8)
        Us_dag = Us.conj().swapaxes(-1, -2)
        for p in PS:
            cs = wootters_concurrence(Us @ werner_state(p) @ Us_dag)
            dev = np.abs(cs - concurrence_werner_analytic(p)).max()
            lines.append(f"{eta:.6g},{p:.6g},{dev:.6e},{10 * eta * eta:.6e}")
            print(lines[-1])
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main(*sys.argv[1:])
