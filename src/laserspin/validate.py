"""Built-in oracle runs behind `laserspin validate`.

Each oracle re-derives its expected values through an independent route
(quadrature, brute-force products, direct commutators) and reports the
measured deviation against a frozen tolerance.  A deliberate modulus
perturbation can be injected to prove the Lorentz oracle actually bites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import jacobi
from .entanglement import (concurrence_product_analytic,
                           concurrence_werner_analytic, product_state,
                           werner_state, wootters_concurrence)
from .errors import ConfigError
from .evolution import (euler_representation, evolve_von_neumann,
                        interaction_term, local_propagator,
                        perturbative_delta_rho_werner, propagate,
                        psi_integral, time_ordered_X)
from .pauli import SIGMA_10, SIGMA_32, SIGMA_DOT_SIGMA
from .spinfield import BoundStateParams, spin_hamiltonian
from .trajectory import (KinematicParams, LaserParams, lorentz_residual,
                         modulus_from_params, motion_period,
                         plane_wave_invariant)


@dataclass(frozen=True)
class OracleResult:
    name: str
    passed: bool
    max_dev: float
    tol: float
    detail: str = ""


def _fixture_bound(g_coupling: float = 0.1) -> BoundStateParams:
    return BoundStateParams.from_gtildes(4.0, 1.0, g_coupling=g_coupling)


# --- elliptic inversion oracle ---------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def incomplete_first_kind(phi, mu: float):
    """F(phi, mu) = int_0^phi dtheta / sqrt(1 - mu^2 sin^2 theta).

    Composite 24-node Gauss-Legendre, elementwise over an array phi, on
    as many equal panels per angle as make those of the largest |phi| at
    most pi/8 wide; fully independent of the AGM evaluation path.
    """
    phi = np.asarray(phi, dtype=float)
    n_panels = max(1, math.ceil(np.abs(phi).max() / (math.pi / 8.0)))
    half = 0.5 * phi / n_panels
    theta = half[..., None, None] * (2.0 * np.arange(n_panels)[:, None]
                                     + 1.0 + _GL_NODES)
    values = 1.0 / np.sqrt(1.0 - (mu * np.sin(theta)) ** 2)
    return half * np.sum(values @ _GL_WEIGHTS, axis=-1)


def oracle_elliptic() -> OracleResult:
    """Pythagorean identities and quadrature inversion on a 50 x 20 grid."""
    worst = 0.0
    phis = np.linspace(0.0, 3.0 * math.pi, 50)
    for mu in np.linspace(0.0, 0.95, 20).tolist():
        sn, cn, dn = jacobi(incomplete_first_kind(phis, mu), mu)
        worst = max(worst, float(np.abs([sn - np.sin(phis),
                                         sn * sn + cn * cn - 1.0,
                                         dn * dn + (mu * sn) ** 2 - 1.0]).max()))
    return OracleResult("elliptic", worst < 1e-12, worst, 1e-12,
                        "inversion of the first-kind integral + identities")


# --- Lorentz-force residual oracle ------------------------------------------

def oracle_lorentz(mu_error: float = 0.0) -> OracleResult:
    """Equation-of-motion residual and light-front invariant on the grid."""
    bound = _fixture_bound()
    worst_res = 0.0
    worst_inv = 0.0
    for eta in (0.1, 0.5, 0.9):
        for eps in (0.0, 0.3, 0.6):
            laser = LaserParams(eta=eta, epsilon=eps)
            kin = modulus_from_params(laser, 1.0)
            if mu_error:
                kin = KinematicParams(
                    gamma_z=kin.gamma_z,
                    mu=min(kin.mu * (1.0 + mu_error), 0.999),
                    omega_L_prime=kin.omega_L_prime)
            times = np.linspace(0.0, motion_period(kin), 1000)
            inv = plane_wave_invariant(times, laser, kin)
            worst_res = max(worst_res,
                            float(lorentz_residual(times, laser, kin, bound).max()))
            worst_inv = max(worst_inv, float(np.abs(inv - inv[0]).max()))
    passed = worst_res < 1e-6 and worst_inv < 1e-8
    return OracleResult(
        "lorentz", passed, worst_res, 1e-6,
        f"residual {worst_res:.3e}, invariant drift {worst_inv:.3e}")


# --- factorization oracle ----------------------------------------------------

# tolerance of the numeric U and Y runs, well below the 1e-6 gate
_FACTORIZATION_TOL = 1e-8


def oracle_factorization() -> OracleResult:
    """U = W X, and X = exp(-i g/4 psi S) Y[V], over one period."""
    worst = 0.0
    for eta in (0.1, 0.2):
        for delta in (0.5, 1.5):
            for g in (0.02, 0.08):
                laser = LaserParams(eta=eta, epsilon=0.0)
                a = (laser, modulus_from_params(laser, 1.0),
                     BoundStateParams.from_gtildes(2.0, 2.0 - delta, g))
                times = np.linspace(0.0, 2.0 * math.pi, 9)
                Us, Ys = (propagate(lambda t: H(t, *a), times,
                                    _FACTORIZATION_TOL)
                          for H in (spin_hamiltonian, interaction_term))
                Xs = time_ordered_X(times, *a)
                S = euler_representation(-g / 4 * psi_integral(times, *a))
                worst = max(worst, np.abs(Xs - S @ Ys).max(),
                            np.abs(Us - local_propagator(times, *a) @ Xs).max())
    return OracleResult("factorization", worst < 1e-6, float(worst), 1e-6,
                        "U vs W*X and X vs exp(-i g/4 psi S) Y")


# --- Eulerian representation oracle ------------------------------------------

# random angles checked against the Pade exponential
_EULER_ANGLES = 100


def oracle_euler() -> OracleResult:
    from scipy.linalg import expm
    rng = np.random.default_rng(20240817)
    psis = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, _EULER_ANGLES)
    brute = expm(1j * psis[:, None, None] * SIGMA_DOT_SIGMA)
    worst = float(np.abs(euler_representation(psis) - brute).max())
    return OracleResult("euler", worst < 1e-12, worst, 1e-12,
                        f"{_EULER_ANGLES} random angles vs Pade exponential")


# --- perturbative commutator oracle ------------------------------------------

def oracle_commutator() -> OracleResult:
    """delta rho_W against the direct commutator with leading-order inputs."""
    worst = 0.0
    for eta, delta, g, p, t in [
        (0.1, 2.0, 0.03, 0.8, 5.0),
        (0.05, 3.0, 0.1, 0.5, 1.3),
        (0.3, 1.0, 0.25, -0.2, 7.7),
    ]:
        laser = LaserParams(eta=eta, epsilon=0.0)
        bound = BoundStateParams.from_gtildes(1.0 + delta, 1.0, g_coupling=g)
        rho_w = werner_state(p)
        thm = 0.5 * eta * delta * math.sin(t)
        v_lead = (g / 4.0) * math.sin(thm) * (
            math.cos(g * t) * SIGMA_32 - math.sin(g * t) * SIGMA_10)
        brute = 1j * (v_lead @ rho_w - rho_w @ v_lead)
        closed = perturbative_delta_rho_werner(t, p, laser, bound)
        worst = max(worst, float(np.abs(brute - closed).max()))
    return OracleResult("commutator", worst < 1e-12, worst, 1e-12,
                        "closed form vs i[V, rho_W]")


# --- full-evolution concurrence oracle ----------------------------------------

def oracle_concurrence() -> OracleResult:
    details = []
    passed = True
    worst = 0.0

    # Werner stability at eta = 0.05, p = 0.8 over one period
    eta, p = 0.05, 0.8
    laser = LaserParams(eta=eta, epsilon=0.0)
    kin = modulus_from_params(laser, 1.0)
    bound = _fixture_bound()
    times = np.linspace(0.0, 2.0 * math.pi, 40)
    H = lambda t: spin_hamiltonian(t, laser, kin, bound)
    cs = wootters_concurrence(evolve_von_neumann(werner_state(p), H, times,
                                                 1e-8))
    dev_w = float(np.abs(cs - concurrence_werner_analytic(p)).max())
    passed &= dev_w < 10.0 * eta * eta
    worst = max(worst, dev_w)
    details.append(f"werner dev {dev_w:.3e}")

    # product-state tracking and the Delta = 0 null over two periods
    alpha, beta, g, eta = 0.999, 0.001, 0.1, 0.3
    laser = LaserParams(eta=eta, epsilon=0.0)
    kin = modulus_from_params(laser, 1.0)
    times = np.linspace(0.0, 4.0 * math.pi, 80)
    rho0 = product_state(alpha, beta)
    for delta, label in ((3.0, "tracking"), (0.0, "null")):
        bound = BoundStateParams.from_gtildes(4.0, 4.0 - delta, g_coupling=g)
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        cs = wootters_concurrence(evolve_von_neumann(rho0, H, times, 1e-8))
        if label == "tracking":
            dev = float(np.abs(cs - concurrence_product_analytic(
                times, alpha, beta, eta, g, delta)).max())
            passed &= dev < 10.0 * eta * eta
            details.append(f"tracking dev {dev:.3e}")
        else:
            dev = float(cs.max())
            passed &= dev < 1e-10
            details.append(f"null max C {dev:.3e}")
        worst = max(worst, dev)

    return OracleResult("concurrence", bool(passed), worst, 10.0 * 0.3 * 0.3,
                        "; ".join(details))


def run_validate(name_filter: str | None = None,
                 mu_error: float = 0.0) -> tuple[list[OracleResult], int]:
    """Run the oracle suite; returns results and the process exit code."""
    oracles = {
        "elliptic": oracle_elliptic,
        "lorentz": lambda: oracle_lorentz(mu_error=mu_error),
        "factorization": oracle_factorization,
        "euler": oracle_euler,
        "commutator": oracle_commutator,
        "concurrence": oracle_concurrence,
    }
    names = list(oracles)
    if name_filter is not None:
        if name_filter not in oracles:
            raise ConfigError(
                f"unknown oracle '{name_filter}'; choose from {', '.join(names)}")
        names = [name_filter]
    results = [oracles[name]() for name in names]
    code = 0 if all(r.passed for r in results) else 1
    return results, code
