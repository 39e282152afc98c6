#!/usr/bin/env python3
"""Laser-induced entanglement of an initially uncorrelated spin pair.

Runs the antiparallel boundary product state (alpha = 0, beta = 1) under
an elliptically polarized drive, where the exact evolution crosses the
separability boundary within a few periods, and writes the concurrence
trace together with the leading-order growth estimate.

Usage: python scripts/run_product_entanglement.py [out.csv]
"""

import math
import sys

import numpy as np

from laserspin import (BoundStateParams, LaserParams,
                       concurrence_product_analytic, modulus_from_params,
                       product_state, propagate, spin_hamiltonian,
                       wootters_concurrence)

ALPHA, BETA = 0.0, 1.0
ETA, EPSILON = 0.5, 0.3
G_COUPLING = 0.5
GTILDES = (6.0, 2.0)   # Delta = 4
PERIODS = 8


def main(out_path="product_entanglement.csv"):
    laser = LaserParams(eta=ETA, epsilon=EPSILON)
    kin = modulus_from_params(laser, 1.0)
    bound = BoundStateParams.from_gtildes(*GTILDES, g_coupling=G_COUPLING)
    times = np.linspace(0.0, PERIODS * 2.0 * math.pi, PERIODS * 40 + 1)
    Us = propagate(lambda t: spin_hamiltonian(t, laser, kin, bound),
                   times, 1e-8)
    rho0 = product_state(ALPHA, BETA)
    lines = ["t_over_period,concurrence_numeric,concurrence_leading_order"]
    for t, U in zip(times, Us):
        c = wootters_concurrence(U @ rho0 @ U.conj().T)
        ca = concurrence_product_analytic(float(t), ALPHA, BETA, ETA,
                                          G_COUPLING, bound.Delta)
        lines.append(f"{t / (2 * math.pi):.6g},{c:.6e},{ca:.6e}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    peak = max(float(l.split(",")[1]) for l in lines[1:])
    print(f"wrote {out_path}; peak numeric concurrence {peak:.4f}")


if __name__ == "__main__":
    main(*sys.argv[1:])
