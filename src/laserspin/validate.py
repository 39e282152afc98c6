"""Built-in oracle runs behind `laserspin validate`, and the analytic
eps = 0 reference that three of them check.

Each oracle re-derives its expected values through an independent route
(quadrature, brute-force products, direct commutators) and reports the
measured deviation against a frozen tolerance.  The concurrence oracle
runs `run_scenario`, the path `laserspin simulate` takes, so it covers
the multi-period composition and the state checks, and compares the
numeric concurrence with the analytic formula.  An oracle reports one
row per check, its deviation beside its own gate, and passes when every
row is below its gate.  A deliberate modulus perturbation can be
injected to prove the Lorentz oracle actually bites.

Analytic path (linear polarization only)
----------------------------------------
The reference of the factorization, euler and commutator oracles, which
`simulate` never takes.  Each function takes a float time (psi for the
Eulerian form), giving a float or a matrix, or an array of shape S,
giving an array of shape S or a stack of shape S + the matrix shape.
For eps = 0 the single-spin precessions factor out exactly:

    U(t) = W(t) X(t),          W = U^(n) (x) U^(p),
    U^(i)(t) = exp(i theta^(i)(t) sigma_1 / 2),

with the precession angle the exact integral of the effective field,

    2 theta^(i) = eta (gtilde^(i) + 1) sn(u, mu)
                  - (eta gamma_z / mu) arcsin(mu sn(u, mu)).

The residual factor obeys dX/dt = -i H'_I X with the closed form
H'_I = W^+ H_I W, which the factorization oracle integrates at tol
1e-12 by `propagate_batch`.  For analysis, X splits further as
X = exp(-i (g/4) psi(t) S) Y(t), S = sum_k sigma_k (x) sigma_k and
psi(t) = int_0^t cos(theta_minus); Y is the time-ordered exponential of
the rotating-frame coupling

    V(t) = (g/4) [ (1 - cos th_-) s1(x)s1
                   + sin th_- (cos(g psi) (s3(x)s2 - s2(x)s3)
                               - sin(g psi) (s1(x)1 - 1(x)s1)) ],

which vanishes identically when the two rescaled gyromagnetic ratios are
equal.  H'_I and V share the motion period of H_S and its time-reversal
symmetry, H(-t) = H(t)*, because sin(theta_minus) and psi are odd and
s3(x)s2 - s2(x)s3 is imaginary (pinned at 1e-14).  The factorization
oracle checks both U = W X against the direct integration of H_S and
this split against the integration of V over a full period, to 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import InitialState, ScenarioConfig
from .elliptic import complete_K, jacobi
from .entanglement import (_check_werner, concurrence_product_analytic,
                           werner_state)
from .errors import ConfigError, DomainError
from .evolution import propagate, propagate_batch
from .pauli import (IDENTITY4, PAIR, SIGMA0, SIGMA1, SIGMA_10, SIGMA_32,
                    SIGMA_DOT_SIGMA)
from .simulate import run_scenario
from .spinfield import BoundStateParams, DriveTable, spin_hamiltonian
from .trajectory import (KinematicParams, LaserParams, _asinc,
                         lorentz_residual, modulus_from_params,
                         motion_period, plane_wave_invariant)


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


# --- composite Gauss-Legendre ------------------------------------------------

_GL16 = np.polynomial.legendre.leggauss(16)
_GL24 = np.polynomial.legendre.leggauss(24)


def _gauss_legendre(integrand, x: np.ndarray, n_panels: int, rule):
    """int_0^x integrand, elementwise over an array x, on n_panels equal
    panels per x, each by the Gauss-Legendre rule (nodes, weights) of
    [-1, 1]; integrand maps an array of abscissae to its values."""
    nodes, weights = rule
    half = 0.5 * x / n_panels
    s = half[..., None, None] * (2.0 * np.arange(n_panels)[:, None]
                                 + 1.0 + nodes)
    return half * np.sum(integrand(s) @ weights, axis=-1)


# --- analytic factorization, linear polarization ------------------------------

def _require_linear(laser: LaserParams) -> None:
    if laser.epsilon != 0.0:
        raise DomainError(
            "the analytic factorization is only available for linear "
            f"polarization (epsilon = 0), got epsilon = {laser.epsilon}"
        )


def precession_angle(t, which: str, laser: LaserParams,
                     kin: KinematicParams, bound: BoundStateParams):
    """Exact accumulated precession angle theta^(i)(t), eps = 0 only.

    This is the running integral of the x-component of the effective
    field; at gamma_z = 1 it reduces to
    2 theta = eta (gtilde + 1) sn - arcsin(mu sn).
    """
    _require_linear(laser)
    gt = bound.gtilde(which)
    eta, gz, mu = laser.eta, kin.gamma_z, kin.mu
    sn = jacobi(kin.omega_L_prime * t, mu).sn
    return 0.5 * eta * ((gt + 1.0) * sn - gz * _asinc(mu, sn))


def theta_minus(t, laser: LaserParams, kin: KinematicParams,
                bound: BoundStateParams):
    """Angle difference theta^(n) - theta^(p) = (eta Delta / 2) sn(u, mu)."""
    _require_linear(laser)
    sn = jacobi(kin.omega_L_prime * t, kin.mu).sn
    return 0.5 * laser.eta * bound.Delta * sn


def psi_integral(t, laser: LaserParams, kin: KinematicParams,
                 bound: BoundStateParams):
    """psi(t) = int_0^t cos(theta_minus(s)) ds, by composite Gauss-Legendre.

    16 nodes per panel; a panel spans a quarter period of sn divided by
    1 + eta |Delta| / 2, the amplitude of theta_minus, so that the
    integrand's oscillations stay resolved at strong drive.  Every time of
    an array takes the panel count of the largest |t|.
    """
    _require_linear(laser)
    t = np.asarray(t, dtype=float)
    quarter = float(complete_K(kin.mu)) / kin.omega_L_prime
    amplitude = 0.5 * abs(laser.eta * bound.Delta)
    n_panels = max(1, math.ceil(np.abs(t).max() / quarter * (1.0 + amplitude)))
    return _gauss_legendre(
        lambda s: np.cos(theta_minus(s, laser, kin, bound)), t, n_panels, _GL16)


def _matrix_axes(x) -> np.ndarray:
    """x with two trailing unit axes, to scale constant matrices."""
    return np.asarray(x, dtype=float)[..., None, None]


def single_spin_propagator(t, which: str, laser: LaserParams,
                           kin: KinematicParams,
                           bound: BoundStateParams) -> np.ndarray:
    """U^(i)(t) = exp(i theta^(i) sigma_1 / 2), eps = 0 only."""
    th = precession_angle(_matrix_axes(t), which, laser, kin, bound)
    return np.cos(0.5 * th) * SIGMA0 + 1j * np.sin(0.5 * th) * SIGMA1


def local_propagator(t, laser: LaserParams, kin: KinematicParams,
                     bound: BoundStateParams) -> np.ndarray:
    """W(t) = U^(n)(t) (x) U^(p)(t)."""
    un = single_spin_propagator(t, "n", laser, kin, bound)
    up = single_spin_propagator(t, "p", laser, kin, bound)
    return (un[..., :, None, :, None] * up[..., None, :, None, :]).reshape(
        un.shape[:-2] + (4, 4))


def interaction_picture_hamiltonian(t, laser: LaserParams,
                                    kin: KinematicParams,
                                    bound: BoundStateParams) -> np.ndarray:
    """H'_I(t) = W^+(t) H_I W(t), in closed form.

    Rotating both spins about x by their respective angles leaves the
    s1(x)s1 part alone and mixes the rest through theta_minus:

        H'_I = (g/4) [ s1(x)s1 + cos th_- (s2(x)s2 + s3(x)s3)
                       + sin th_- (s3(x)s2 - s2(x)s3) ].
    """
    g = bound.g_coupling
    thm = theta_minus(_matrix_axes(t), laser, kin, bound)
    return (g / 4.0) * (PAIR[1, 1] + np.cos(thm) * (PAIR[2, 2] + PAIR[3, 3])
                        + np.sin(thm) * SIGMA_32)


def euler_representation(psi) -> np.ndarray:
    """Closed form of exp(i psi sum_k sigma_k (x) sigma_k).

    exp(i psi S) = (1/2) e^{i psi} + (1/2) e^{-i psi} [cos 2psi
    + i S sin 2psi]; eigenvalues e^{i psi} (x3) and e^{-3 i psi}.
    """
    psi = _matrix_axes(psi)
    if not np.isfinite(psi).all():
        raise DomainError(
            f"psi must be finite, got {psi[~np.isfinite(psi)][0]}")
    return (0.5 * np.exp(1j * psi) * IDENTITY4
            + 0.5 * np.exp(-1j * psi)
            * (np.cos(2.0 * psi) * IDENTITY4
               + 1j * np.sin(2.0 * psi) * SIGMA_DOT_SIGMA))


def interaction_term(t, laser: LaserParams, kin: KinematicParams,
                     bound: BoundStateParams) -> np.ndarray:
    """Rotating-frame coupling V(t) whose ordered exponential is Y(t).

    Identically zero when Delta = 0.  psi(t) is integrated afresh on
    every call.
    """
    g = bound.g_coupling
    t = _matrix_axes(t)
    thm = theta_minus(t, laser, kin, bound)
    psi = psi_integral(t, laser, kin, bound)
    return (g / 4.0) * ((1.0 - np.cos(thm)) * PAIR[1, 1]
                        + np.sin(thm) * (np.cos(g * psi) * SIGMA_32
                                         - np.sin(g * psi) * SIGMA_10))


def perturbative_delta_rho_werner(t: float, p: float, laser: LaserParams,
                                  bound: BoundStateParams) -> np.ndarray:
    """Leading-order state change of a Werner state under the laser.

    Equals i [V(t), rho_W] with the leading-order inputs
    theta_minus = (eta Delta / 2) sin(w_L t) and psi = t:

        delta rho = -(p g / 4) sin(th_-) [cos(g t) (s1(x)1 - 1(x)s1)
                                          + sin(g t) (s3(x)s2 - s2(x)s3)].

    Traceless and Hermitian; vanishes at t = 0 and for p = 0.
    """
    _check_werner(p)
    g = bound.g_coupling
    thm = 0.5 * laser.eta * bound.Delta * math.sin(laser.omega_L * t)
    return (-(p * g / 4.0) * math.sin(thm)
            * (math.cos(g * t) * SIGMA_10 + math.sin(g * t) * SIGMA_32))


# --- elliptic inversion oracle ---------------------------------------------

def incomplete_first_kind(phi, mu: float):
    """F(phi, mu) = int_0^phi dtheta / sqrt(1 - mu^2 sin^2 theta).

    Composite 24-node Gauss-Legendre, elementwise over an array phi, on
    as many equal panels per angle as make those of the largest |phi| at
    most pi/8 wide; fully independent of the AGM evaluation path.
    """
    phi = np.asarray(phi, dtype=float)
    n_panels = max(1, math.ceil(np.abs(phi).max() / (math.pi / 8.0)))
    return _gauss_legendre(
        lambda theta: 1.0 / np.sqrt(1.0 - (mu * np.sin(theta)) ** 2),
        phi, n_panels, _GL24)


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
# tolerance of the X runs, well below the 1e-6 gate of U = W X
_X_TOL = 1e-12


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
                                        points), grids, [_X_TOL] * len(points))
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
    """Concurrence traces of `run_scenario` against analytic references,
    and a Werner trace against its closed form in U.

    Each check runs a drive at gtildes (4, 4 - Delta), g = 0.1.  Werner
    p = 0.8 over one laser period of a linearly polarized drive stays
    within 10 eta^2 of its analytic column, (3p - 1)/2.  The product state
    (0.999, 0.001) runs two laser periods, past the motion period
    4 K(0.3), so its later samples are composed from a quarter period: at
    Delta = 3 it tracks `concurrence_product_analytic` at the trace's
    times within 10 eta^2, and at Delta = 0, where that formula is 0, the
    deviation is max C.  Werner p = 0.8 over
    two laser periods at eps 0.3 matches, to roundoff,
    C = max(0, p |psi^T (s2 (x) s2) psi| - (1 - p)/2) with psi = U|s>,
    U from :func:`propagate` on the run's grid: rho_W = (1 - p)/4 I +
    p |s><s|, and the concurrence of a pure state psi is
    |psi^T (s2 (x) s2) psi| (Wootters, PRL 80, 2245 (1998)).
    """
    werner = InitialState("werner", p=0.8)
    product = InitialState("product", alpha=0.999, beta=0.001)
    analytic = lambda cfg, trace: trace.concurrence_analytic
    formula = lambda cfg, trace: concurrence_product_analytic(
        trace.t, product.alpha, product.beta, cfg.laser.eta,
        cfg.bound.g_coupling, cfg.bound.Delta, cfg.laser.omega_L)
    # label, initial state, eta, eps, Delta, laser periods, samples, gate,
    # reference
    checks = (("werner dev", werner, 0.05, 0.0, 3.0, 1.0, 40,
               10.0 * 0.05 * 0.05, analytic),
              ("tracking dev", product, 0.3, 0.0, 3.0, 2.0, 80,
               10.0 * 0.3 * 0.3, formula),
              ("null max C", product, 0.3, 0.0, 0.0, 2.0, 80, 1e-10, formula),
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
