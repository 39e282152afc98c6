"""Built-in oracle runs behind `laserspin validate`.

Each oracle re-derives its expected values through an independent route
(quadrature, brute-force products, direct commutators) and reports the
measured deviation against a frozen tolerance.  The concurrence oracle
runs `run_scenario`, the path `laserspin simulate` takes, so it covers
the multi-period composition and the state checks, and compares the
numeric concurrence with the analytic formula.  An oracle reports one
row per check, its deviation beside its own gate, and passes when every
row is below its gate.  A deliberate modulus perturbation can be
injected to prove the Lorentz oracle actually bites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import InitialState, ScenarioConfig
from .elliptic import jacobi
from .entanglement import werner_state
from .errors import ConfigError
from .evolution import (X_TOL, euler_representation,
                        interaction_picture_hamiltonian, interaction_term,
                        local_propagator, perturbative_delta_rho_werner,
                        propagate, propagate_batch, psi_integral)
from .pauli import PAIR, SIGMA_10, SIGMA_32, SIGMA_DOT_SIGMA
from .simulate import run_scenario
from .spinfield import BoundStateParams, DriveTable, spin_hamiltonian
from .trajectory import (KinematicParams, LaserParams, lorentz_residual,
                         modulus_from_params, motion_period,
                         plane_wave_invariant)


class Check(NamedTuple):
    """One check of an oracle: it passes when deviation < gate."""
    label: str
    deviation: float
    gate: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.gate


@dataclass(frozen=True)
class OracleResult:
    name: str
    checks: tuple[Check, ...]
    detail: str = ""

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def summary(self) -> str:
        """Each check's deviation beside its gate, then the detail."""
        rows = "; ".join(f"{c.label} {c.deviation:.3e} (gate {c.gate:.3g})"
                         for c in self.checks)
        return f"{rows} -- {self.detail}" if self.detail else rows


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
    return OracleResult("elliptic", (Check("max error", worst, 1e-12),),
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
    return OracleResult("lorentz", (Check("residual", worst_res, 1e-6),
                                    Check("invariant drift", worst_inv, 1e-8)))


# --- factorization oracle ----------------------------------------------------

# tolerance of the numeric U and Y runs, well below the 1e-6 gate
_FACTORIZATION_TOL = 1e-8


def oracle_factorization() -> OracleResult:
    """U = W X, and X = exp(-i g/4 psi S) Y[V], over one period.

    The eight U runs of H_S make one batch (:func:`propagate_batch`), and
    so do the eight X runs of H'_I and the eight Y runs of V, whose
    sources are evaluated point by point."""
    points = []
    for eta in (0.1, 0.2):
        for delta in (0.5, 1.5):
            for g in (0.02, 0.08):
                laser = LaserParams(eta=eta, epsilon=0.0)
                points.append((laser, modulus_from_params(laser, 1.0),
                               BoundStateParams.from_gtildes(2.0, 2.0 - delta,
                                                             g)))
    times = np.linspace(0.0, 2.0 * math.pi, 9)
    drives = DriveTable(*zip(*points))
    grids, tols = [times] * len(points), [_FACTORIZATION_TOL] * len(points)
    all_Us = propagate_batch(
        lambda t, point: spin_hamiltonian(t, drives=drives, point=point),
        grids, tols)
    all_Xs = propagate_batch(_per_point(interaction_picture_hamiltonian,
                                        points), grids, [X_TOL] * len(points))
    all_Ys = propagate_batch(_per_point(interaction_term, points), grids, tols)
    worst_u = worst_x = 0.0
    for a, Us, Xs, Ys in zip(points, all_Us, all_Xs, all_Ys):
        for result in (Us, Xs, Ys):
            if isinstance(result, Exception):
                raise result
        g = a[2].g_coupling
        S = euler_representation(-g / 4 * psi_integral(times, *a))
        worst_u = max(worst_u, float(np.abs(
            Us - local_propagator(times, *a) @ Xs).max()))
        worst_x = max(worst_x, float(np.abs(Xs - S @ Ys).max()))
    return OracleResult("factorization", (Check("U vs W X", worst_u, 1e-6),
                                          Check("X vs S Y", worst_x, 1e-6)),
                        "S = exp(-i g/4 psi sum_k s_k(x)s_k)")


def _per_point(source, points):
    """The batch source of source(t, *points[p]), called once per point
    for the times that belong to it."""
    def H(t, point):
        out = np.empty((t.size, 4, 4), dtype=complex)
        for p in np.unique(point).tolist():
            mine = point == p
            out[mine] = source(t[mine], *points[p])
        return out
    return H


# --- Eulerian representation oracle ------------------------------------------

# random angles checked against the Pade exponential
_EULER_ANGLES = 100


def oracle_euler() -> OracleResult:
    from scipy.linalg import expm
    rng = np.random.default_rng(20240817)
    psis = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, _EULER_ANGLES)
    brute = expm(1j * psis[:, None, None] * SIGMA_DOT_SIGMA)
    worst = float(np.abs(euler_representation(psis) - brute).max())
    return OracleResult("euler", (Check("max deviation", worst, 1e-12),),
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
    return OracleResult("commutator", (Check("max deviation", worst, 1e-12),),
                        "closed form vs i[V, rho_W]")


# --- full-evolution concurrence oracle ----------------------------------------

def oracle_concurrence() -> OracleResult:
    """Concurrence traces of `run_scenario` against their analytic columns,
    and a Werner trace against its closed form in U.

    Each check runs a drive at gtildes (4, 4 - Delta), g = 0.1.  Werner
    p = 0.8 over one laser period of a linearly polarized drive stays
    within 10 eta^2 of (3p - 1)/2.  The product state (0.999, 0.001) runs
    two laser periods, past the motion period 4 K(0.3), so its later
    samples are composed from a quarter period: at Delta = 3 it tracks the
    leading-order formula within 10 eta^2, and at Delta = 0, where the
    analytic column is 0, the deviation is max C.  Werner p = 0.8 over
    two laser periods at eps 0.3 matches, to roundoff,
    C = max(0, p |psi^T (s2 (x) s2) psi| - (1 - p)/2) with psi = U|s>,
    U from :func:`propagate` on the run's grid: rho_W = (1 - p)/4 I +
    p |s><s|, and the concurrence of a pure state psi is
    |psi^T (s2 (x) s2) psi| (Wootters, PRL 80, 2245 (1998)).
    """
    werner = InitialState("werner", p=0.8)
    product = InitialState("product", alpha=0.999, beta=0.001)
    analytic = lambda cfg, trace: trace.concurrence_analytic
    # label, initial state, eta, eps, Delta, laser periods, samples, gate,
    # reference
    checks = (("werner dev", werner, 0.05, 0.0, 3.0, 1.0, 40,
               10.0 * 0.05 * 0.05, analytic),
              ("tracking dev", product, 0.3, 0.0, 3.0, 2.0, 80,
               10.0 * 0.3 * 0.3, analytic),
              ("null max C", product, 0.3, 0.0, 0.0, 2.0, 80, 1e-10, analytic),
              ("werner closed form", werner, 0.3, 0.3, 3.0, 2.0, 80, 1e-12,
               _werner_closed_form))
    rows = []
    for label, state, eta, eps, delta, t_end, samples, gate, reference \
            in checks:
        cfg = ScenarioConfig(
            laser=LaserParams(eta=eta, epsilon=eps),
            bound=BoundStateParams.from_gtildes(4.0, 4.0 - delta,
                                                g_coupling=0.1),
            gamma_z=1.0, initial_state=state, t_end=t_end, samples=samples,
            tol=1e-8)
        trace = run_scenario(cfg)
        rows.append(Check(label, float(np.abs(
            trace.concurrence_numeric - reference(cfg, trace)).max()), gate))
    return OracleResult("concurrence", tuple(rows))


def _werner_closed_form(cfg: ScenarioConfig, trace) -> np.ndarray:
    """max(0, p |psi^T (s2 (x) s2) psi| - (1 - p)/2), psi = U|s>, at each
    time of the trace of the Werner scenario cfg."""
    kin = modulus_from_params(cfg.laser, cfg.gamma_z)
    Us = propagate(lambda t: spin_hamiltonian(t, cfg.laser, kin, cfg.bound),
                   trace.t, cfg.tol, cfg.period)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    psi = Us @ singlet
    pure = np.abs((psi * (psi @ PAIR[2, 2].T)).sum(axis=-1))
    p = cfg.initial_state.p
    return np.maximum(0.0, p * pure - 0.5 * (1.0 - p))


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
