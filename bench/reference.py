"""Independent reference and the output gate.

The reference shares no code with laserspin: H_S(t) is transcribed from the
closed-form fields (spinfield module docstring) with scipy's Jacobi
elliptic functions in place of the package's AGM/Landen code, the
propagator dU/dt = -i H_S(t) U is integrated by scipy's DOP853 at
rtol 1e-12 and polar-projected, and concurrence is Wootters' formula
written out here.  It depends only on the scenario, so it is cached per
(workload, seed).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ellipj

_S = (np.eye(2, dtype=complex),
      np.array([[0, 1], [1, 0]], dtype=complex),
      np.array([[0, -1j], [1j, 0]], dtype=complex),
      np.array([[1, 0], [0, -1]], dtype=complex))
_I2 = _S[0]
_SDOTS = sum(np.kron(_S[k], _S[k]) for k in (1, 2, 3))
_YY = np.kron(_S[2], _S[2])
_N_OPS = np.stack([np.kron(_S[k], _I2) for k in (1, 2, 3)])
_P_OPS = np.stack([np.kron(_I2, _S[k]) for k in (1, 2, 3)])


def hamiltonian(scenario: dict):
    """H_S(t) as a function of lab time."""
    laser, bound = scenario["laser"], scenario["bound"]
    eta, eps, w = laser["eta"], laser["epsilon"], laser["omega_L"]
    gz = scenario["gamma_z"]
    mu = eta * math.sqrt(1.0 - 2.0 * eps * eps) / gz
    wp = gz * w
    root = math.sqrt(1.0 - eps * eps)
    m_b = bound["mass_n"] + bound["mass_p"]
    q_b = -(bound["charge_n"] + bound["charge_p"])
    gt_n = bound["charge_n"] / bound["mass_n"] * m_b / q_b * bound["g_n"]
    gt_p = bound["charge_p"] / bound["mass_p"] * m_b / q_b * bound["g_p"]
    h_int = bound["g_coupling"] / 4.0 * _SDOTS

    def field(gt, sn, cn, dn):
        return np.array([
            eta * wp / 2.0 * root * ((gt + 1.0) * dn - gz) * cn,
            eta * wp / 2.0 * eps * ((gt + 1.0) * dn - gz * (1.0 - mu * mu)) * sn,
            -eta * eta * w / 2.0 * eps * root * (gt - gz * dn),
        ])

    def H(t: float) -> np.ndarray:
        sn, cn, dn, _ = ellipj(wp * t, mu * mu)
        b_n, b_p = field(gt_n, sn, cn, dn), field(gt_p, sn, cn, dn)
        return (-0.5 * (np.tensordot(b_n, _N_OPS, axes=1)
                        + np.tensordot(b_p, _P_OPS, axes=1)) + h_int)

    return H


def initial_state(state: dict) -> np.ndarray:
    if state["type"] == "werner":
        return 0.25 * (np.eye(4) - state["p"] * _SDOTS)
    if state["type"] == "product":
        c_p = 0.5 * (state["alpha"] + state["beta"])
        c_n = 0.5 * (state["alpha"] - state["beta"])
        return 0.25 * (np.eye(4) + c_p * np.kron(_I2, _S[3])
                       + c_n * np.kron(_S[3], _I2))
    raise ValueError(f"no reference for initial state {state['type']!r}")


def concurrence(rho: np.ndarray) -> float:
    flipped = _YY @ rho.conj() @ _YY
    lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(rho @ flipped).real)[::-1],
                          0.0, None))
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def propagators(scenario: dict) -> tuple[np.ndarray, np.ndarray]:
    """(t_grid, U_ref[k]) on the scenario's sample grid, polar-projected."""
    period = 2.0 * math.pi / scenario["laser"]["omega_L"]
    t_grid = np.linspace(0.0, scenario["t_end"] * period, scenario["samples"])
    H = hamiltonian(scenario)
    sol = solve_ivp(lambda t, y: (-1j * H(t) @ y.reshape(4, 4)).ravel(),
                    (0.0, t_grid[-1]), np.eye(4, dtype=complex).ravel(),
                    method="DOP853", t_eval=t_grid, rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    Us = sol.y.T.reshape(-1, 4, 4)
    W, _, Vh = np.linalg.svd(Us)
    return t_grid, W @ Vh


def reference_rows(scenario: dict) -> dict[str, np.ndarray]:
    """Per-sample t, concurrence and purity, plus the U_ref stack."""
    t_grid, Us = propagators(scenario)
    rho0 = initial_state(scenario["initial_state"])
    rhos = Us @ rho0 @ Us.conj().transpose(0, 2, 1)
    return {
        "t": t_grid,
        "concurrence": np.array([concurrence(r) for r in rhos]),
        "purity": np.einsum("kij,kji->k", rhos, rhos).real,
        "U": Us,
    }


def read_csv(text: str) -> dict[str, np.ndarray]:
    """Columns of a laserspin CSV as float arrays (empty cells -> nan)."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(c) if c else math.nan for c in line.split(",")]
            for line in lines[1:]]
    cols = np.array(rows, dtype=float).reshape(len(rows), len(header)).T
    return dict(zip(header, cols))


def check_rows(csv_text: str, ref: dict, tol: float) -> list[str]:
    """Reasons the CSV disagrees with the reference; empty when it passes.

    Concurrence and purity must lie within tol of the reference;
    trace_error and unitarity_error must be at most 10 tol.
    """
    try:
        got = read_csv(csv_text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc}"]
    need = ("t", "concurrence_numeric", "purity", "trace_error",
            "unitarity_error")
    missing = [c for c in need if c not in got]
    if missing:
        return [f"CSV lacks columns {missing}"]
    if len(got["t"]) != len(ref["t"]):
        return [f"{len(got['t'])} rows, reference has {len(ref['t'])}"]
    problems = []
    checks = (
        ("t", np.abs(got["t"] - ref["t"]), 1e-9 * max(1.0, ref["t"][-1])),
        ("concurrence", np.abs(got["concurrence_numeric"] - ref["concurrence"]),
         tol),
        ("purity", np.abs(got["purity"] - ref["purity"]), tol),
        ("trace_error", got["trace_error"], 10.0 * tol),
        ("unitarity_error", got["unitarity_error"], 10.0 * tol),
    )
    for what, dev, limit in checks:
        # written so that nan fails
        bad = ~(dev <= limit)
        if bad.any():
            k = int(np.argmax(bad))
            problems.append(f"{what} off by {dev[k]:.3e} > {limit:.1e} "
                            f"at row {k}")
    return problems


def max_rho_error(rhos: np.ndarray, scenario: dict, ref: dict) -> float:
    """max |rho - rho_ref| over the grid and matrix entries."""
    rho0 = initial_state(scenario["initial_state"])
    Us = ref["U"]
    ref_rhos = Us @ rho0 @ Us.conj().transpose(0, 2, 1)
    return float(np.abs(np.asarray(rhos) - ref_rhos).max())
