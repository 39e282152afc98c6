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
                       concurrence_product_analytic, evolve_von_neumann,
                       modulus_from_params, product_state, spin_hamiltonian,
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
    cs = wootters_concurrence(evolve_von_neumann(
        product_state(ALPHA, BETA),
        lambda t: spin_hamiltonian(t, laser, kin, bound), times, 1e-8))
    lines = ["t_over_period,concurrence_numeric,concurrence_leading_order"]
    for t, c in zip(times.tolist(), cs.tolist()):
        ca = concurrence_product_analytic(t, ALPHA, BETA, ETA,
                                          G_COUPLING, bound.Delta)
        lines.append(f"{t / (2 * math.pi):.6g},{c:.6e},{ca:.6e}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out_path}; peak numeric concurrence {cs.max():.4f}")


if __name__ == "__main__":
    main(*sys.argv[1:])
