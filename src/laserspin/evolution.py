"""Density-matrix propagation and the analytic propagator factorization.

Numeric path
------------
:func:`propagate` integrates the propagator dU/dt = -i H(t) U (not rho)
by fourth-order Magnus steps (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
151 (2009)): over an interval of length h, with H0, Hm and H1 the values
of H at its start, midpoint and end, U_step = exp(-i K) with

    K = h/6 (H0 + 4 Hm + H1) + i h^2/12 [H0, H1].

A step evaluates H at its quarter points and is checked against its two
half steps.  Samples inside a step are dense output: K over [t, t_k]
with H from the quartic through the five node values.  Every factor is
the exponential of a Hermitian matrix, so U stays unitary to roundoff
and rho(t) = U rho(0) U^+ keeps Hermiticity, trace and positivity
structurally; only the step-control tolerance limits accuracy.

Analytic path (linear polarization only)
----------------------------------------
For eps = 0 the single-spin precessions factor out exactly:

    U(t) = W(t) X(t),          W = U^(n) (x) U^(p),
    U^(i)(t) = exp(i theta^(i)(t) sigma_1 / 2),

with the precession angle the exact integral of the effective field,

    2 theta^(i) = eta (gtilde^(i) + 1) sn(u, mu)
                  - (eta gamma_z / mu) arcsin(mu sn(u, mu)).

The residual factor obeys dX/dt = -i H'_I X with the closed form
H'_I = W^+ H_I W, which :func:`time_ordered_X` integrates by
:func:`propagate`.  For analysis, X splits further as
X = exp(-i (g/4) psi(t) S) Y(t), S = sum_k sigma_k (x) sigma_k and
psi(t) = int_0^t cos(theta_minus); Y is the time-ordered exponential of
the rotating-frame coupling

    V(t) = (g/4) [ (1 - cos th_-) s1(x)s1
                   + sin th_- (cos(g psi) (s3(x)s2 - s2(x)s3)
                               - sin(g psi) (s1(x)1 - 1(x)s1)) ],

which vanishes identically when the two rescaled gyromagnetic ratios are
equal.  The factorization oracle of `laserspin validate` checks both
U = W X against the direct integration of H_S and this split against
the integration of V over a full period, to 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .elliptic import complete_K, jacobi
from .errors import DomainError, IntegratorError, InvalidStateError
from .pauli import (IDENTITY4, PAULI, SIGMA0, SIGMA1, SIGMA_10, SIGMA_32,
                    SIGMA_DOT_SIGMA, hermiticity_defect)
from .spinfield import BoundStateParams
from .trajectory import KinematicParams, LaserParams, _asinc

HamiltonianSource = Callable[[float], np.ndarray]

_S11 = np.kron(PAULI[1], PAULI[1])
_S22 = np.kron(PAULI[2], PAULI[2])
_S33 = np.kron(PAULI[3], PAULI[3])

# the tolerances every propagation accepts, exclusive bounds
TOL_BOUNDS = (1e-14, 1e-4)
# tolerance of the X factor, well below the 1e-6 gate of U = W X
_X_TOL = 1e-12
# Lagrange weights of the quartic through the nodes 0, 1/4, ..., 1: row j
# of the inverse Vandermonde matrix holds the coefficients of s**j
_QUARTIC = np.linalg.inv(np.vander(np.linspace(0.0, 1.0, 5), increasing=True))
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

_TRACE_TOL = 1e-12
_HERM_TOL = 1e-12
_PSD_TOL = -1e-10


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check the two-qubit state invariants, returning rho as complex ndarray.

    Raises InvalidStateError unless rho is 4x4, Hermitian to 1e-12,
    unit-trace to 1e-12 and PSD to -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"density matrix must be 4x4, got {rho.shape}")
    if hermiticity_defect(rho) > _HERM_TOL:
        raise InvalidStateError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _TRACE_TOL or abs(np.trace(rho).imag) > _TRACE_TOL:
        raise InvalidStateError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < _PSD_TOL:
        raise InvalidStateError("density matrix has a negative eigenvalue")
    return rho


def expm_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(-1j * H) for Hermitian H, or for each matrix of a stack of them,
    via eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _check_tol(tol: float) -> float:
    if not (TOL_BOUNDS[0] < tol < TOL_BOUNDS[1]):
        raise DomainError(f"tolerance must lie in {TOL_BOUNDS}, got {tol}")
    return float(tol)


def _magnus4(h, H0: np.ndarray, Hm: np.ndarray, H1: np.ndarray) -> np.ndarray:
    """Exponent K of the Magnus step exp(-i K) over an interval of length h
    from H at its start, midpoint and end; broadcasts over leading axes."""
    return (h / 6.0) * (H0 + 4.0 * Hm + H1) \
        + (1j * h * h / 12.0) * (H0 @ H1 - H1 @ H0)


def propagate(H_of_t: HamiltonianSource, t_grid: Sequence[float],
              tol: float) -> np.ndarray:
    """Propagators U(t_k) of dU/dt = -i H(t) U, U(0) = 1, on a time grid.

    t_grid must start at 0 and increase strictly; the result has shape
    (len(t_grid), 4, 4).  A step is accepted when its two half steps
    differ from the full step by at most tol * h / t_grid[-1]; samples
    inside a step come from dense output, so the H evaluations do not
    depend on the number of samples.  Raises IntegratorError when the
    step size underflows.
    """
    tol = _check_tol(tol)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] != 0.0:
        raise DomainError("time grid must start at 0")
    if not (np.all(np.diff(t_grid) > 0.0) and np.isfinite(t_grid[-1])):
        raise DomainError("time grid must be strictly increasing and finite")
    out = np.empty((t_grid.size, 4, 4), dtype=complex)
    out[0] = U = IDENTITY4
    if t_grid.size == 1:
        return out

    span = t_grid[-1]
    h = span / 50.0
    h_min = span * 1e-13
    t, k, rejections = 0.0, 1, 0
    H0 = H_of_t(0.0)
    while k < t_grid.size:
        last = h >= span - t
        if last:
            h = span - t
        t_end = span if last else t + h
        nodes = np.array([H0, H_of_t(t + 0.25 * h), H_of_t(t + 0.5 * h),
                          H_of_t(t + 0.75 * h), H_of_t(t_end)])
        full, half1, half2 = expm_hermitian(_magnus4(
            np.array([h, 0.5 * h, 0.5 * h])[:, None, None],
            nodes[[0, 0, 2]], nodes[[2, 1, 3]], nodes[[4, 2, 4]]))
        fine = half2 @ half1
        err = float(np.abs(full - fine).max())
        # per-unit-time budgeting, floored at the per-step roundoff scale
        budget = max(tol * h / span, 4e-15)
        factor = 5.0 if err == 0.0 else 0.9 * (budget / err) ** 0.2
        if not err <= budget:       # a NaN error rejects too
            rejections += 1
            h *= max(0.2, factor)
            if h < h_min or rejections > 60:
                raise IntegratorError(
                    f"step size underflow at t = {t:.6g} (h = {h:.3e})")
            continue

        j = int(np.searchsorted(t_grid, t_end))
        if j > k:
            # dense output: the same step over [t, t_k], with H from the
            # quartic through the five node values
            dt = t_grid[k:j] - t
            s = np.concatenate([0.5 * dt, dt]) / h
            Hs = np.tensordot(np.vander(s, 5, increasing=True) @ _QUARTIC,
                              nodes, axes=1)
            out[k:j] = expm_hermitian(_magnus4(
                dt[:, None, None], H0, Hs[:j - k], Hs[j - k:])) @ U
        U = fine @ U
        # one Newton step of the polar projection keeps the accumulated
        # matmul roundoff from degrading unitarity
        U = 0.5 * U @ (3.0 * IDENTITY4 - U.conj().T @ U)
        if j < t_grid.size and t_grid[j] == t_end:
            out[j] = U
            j += 1
        t, k, H0, rejections = t_end, j, nodes[4], 0
        h *= min(5.0, max(1.0, factor))
    return out


def propagator_numeric(H_of_t: HamiltonianSource, t: float,
                       tol: float = 1e-9, t0: float = 0.0) -> np.ndarray:
    """Unitary propagator over [t0, t] by direct integration."""
    if t < t0:
        raise DomainError("propagation requires t >= t0")
    shifted = lambda s: H_of_t(s + t0)
    return propagate(shifted, [0.0, t - t0] if t != t0 else [0.0], tol)[-1]


def evolve_von_neumann(rho0: np.ndarray, H_of_t: HamiltonianSource,
                       t_grid: Sequence[float], tol: float = 1e-9) -> list[np.ndarray]:
    """Solve d rho/dt = -i [H(t), rho] on the given time grid.

    Returns one density matrix per grid time (the first grid time must be
    0 and yields the validated initial state).  States are produced by
    conjugating rho0 with the integrated propagator, so trace and
    spectrum are preserved structurally.
    """
    rho0 = validate_density_matrix(rho0)
    return [U @ rho0 @ U.conj().T for U in propagate(H_of_t, t_grid, tol)]


# ---------------------------------------------------------------------------
# analytic factorization, linear polarization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecessionAngles:
    """Single-spin angles, their difference and the accumulated psi."""

    theta_n: float
    theta_p: float
    theta_minus: float
    psi: float


def _require_linear(laser: LaserParams) -> None:
    if laser.epsilon != 0.0:
        raise DomainError(
            "the analytic factorization is only available for linear "
            f"polarization (epsilon = 0), got epsilon = {laser.epsilon}"
        )


def precession_angle(t: float, which: str, laser: LaserParams,
                     kin: KinematicParams, bound: BoundStateParams) -> float:
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


def theta_minus(t: float, laser: LaserParams, kin: KinematicParams,
                bound: BoundStateParams) -> float:
    """Angle difference theta^(n) - theta^(p) = (eta Delta / 2) sn(u, mu)."""
    _require_linear(laser)
    sn = jacobi(kin.omega_L_prime * t, kin.mu).sn
    return 0.5 * laser.eta * bound.Delta * sn


def psi_integral(t: float, laser: LaserParams, kin: KinematicParams,
                 bound: BoundStateParams) -> float:
    """psi(t) = int_0^t cos(theta_minus(s)) ds, by composite Gauss-Legendre.

    16 nodes per panel; a panel spans a quarter period of sn divided by
    1 + eta |Delta| / 2, the amplitude of theta_minus, so that the
    integrand's oscillations stay resolved at strong drive.
    """
    _require_linear(laser)
    quarter = complete_K(kin.mu) / kin.omega_L_prime
    amplitude = 0.5 * abs(laser.eta * bound.Delta)
    n_panels = max(1, math.ceil(abs(t) / quarter * (1.0 + amplitude)))
    edges = np.linspace(0.0, t, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    nodes = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * _GL_NODES
    values = np.cos([theta_minus(float(s), laser, kin, bound)
                     for s in nodes.ravel()]).reshape(nodes.shape)
    return float(half * np.sum(values @ _GL_WEIGHTS))


def precession_angles(t: float, laser: LaserParams, kin: KinematicParams,
                      bound: BoundStateParams) -> PrecessionAngles:
    """Bundle (theta_n, theta_p, theta_minus, psi) at time t."""
    tn = precession_angle(t, "n", laser, kin, bound)
    tp = precession_angle(t, "p", laser, kin, bound)
    return PrecessionAngles(theta_n=tn, theta_p=tp, theta_minus=tn - tp,
                            psi=psi_integral(t, laser, kin, bound))


def single_spin_propagator(t: float, which: str, laser: LaserParams,
                           kin: KinematicParams,
                           bound: BoundStateParams) -> np.ndarray:
    """U^(i)(t) = exp(i theta^(i) sigma_1 / 2), eps = 0 only."""
    th = precession_angle(t, which, laser, kin, bound)
    return math.cos(0.5 * th) * SIGMA0 + 1j * math.sin(0.5 * th) * SIGMA1


def local_propagator(t: float, laser: LaserParams, kin: KinematicParams,
                     bound: BoundStateParams) -> np.ndarray:
    """W(t) = U^(n)(t) (x) U^(p)(t)."""
    return np.kron(single_spin_propagator(t, "n", laser, kin, bound),
                   single_spin_propagator(t, "p", laser, kin, bound))


def interaction_picture_hamiltonian(t: float, laser: LaserParams,
                                    kin: KinematicParams,
                                    bound: BoundStateParams) -> np.ndarray:
    """H'_I(t) = W^+(t) H_I W(t), in closed form.

    Rotating both spins about x by their respective angles leaves the
    s1(x)s1 part alone and mixes the rest through theta_minus:

        H'_I = (g/4) [ s1(x)s1 + cos th_- (s2(x)s2 + s3(x)s3)
                       + sin th_- (s3(x)s2 - s2(x)s3) ].
    """
    g = bound.g_coupling
    thm = theta_minus(t, laser, kin, bound)
    return (g / 4.0) * (_S11 + math.cos(thm) * (_S22 + _S33)
                        + math.sin(thm) * SIGMA_32)


def euler_representation(psi: float) -> np.ndarray:
    """Closed form of exp(i psi sum_k sigma_k (x) sigma_k).

    exp(i psi S) = (1/2) e^{i psi} + (1/2) e^{-i psi} [cos 2psi
    + i S sin 2psi]; eigenvalues e^{i psi} (x3) and e^{-3 i psi}.
    """
    if math.isnan(psi) or math.isinf(psi):
        raise DomainError(f"psi must be finite, got {psi}")
    return (0.5 * np.exp(1j * psi) * IDENTITY4
            + 0.5 * np.exp(-1j * psi)
            * (math.cos(2.0 * psi) * IDENTITY4
               + 1j * math.sin(2.0 * psi) * SIGMA_DOT_SIGMA))


def interaction_term(t: float, laser: LaserParams, kin: KinematicParams,
                     bound: BoundStateParams, psi: float | None = None) -> np.ndarray:
    """Rotating-frame coupling V(t) whose ordered exponential is Y(t).

    Identically zero when Delta = 0.  psi may be passed in when already
    accumulated by the caller; otherwise it is integrated afresh.
    """
    g = bound.g_coupling
    thm = theta_minus(t, laser, kin, bound)
    if psi is None:
        psi = psi_integral(t, laser, kin, bound)
    return (g / 4.0) * ((1.0 - math.cos(thm)) * _S11
                        + math.sin(thm) * (math.cos(g * psi) * SIGMA_32
                                           - math.sin(g * psi) * SIGMA_10))


def time_ordered_X(t: float, laser: LaserParams, kin: KinematicParams,
                   bound: BoundStateParams) -> np.ndarray:
    """Interaction-picture factor X(t) of U = W X, eps = 0 only.

    Integrates dX/dt = -i H'_I X, X(0) = 1, with the closed-form
    :func:`interaction_picture_hamiltonian` by :func:`propagate` at
    tolerance 1e-12.
    """
    _require_linear(laser)
    if t < 0.0:
        raise DomainError("time_ordered_X requires t >= 0")
    H = lambda s: interaction_picture_hamiltonian(s, laser, kin, bound)
    return propagate(H, [0.0, t] if t != 0.0 else [0.0], _X_TOL)[-1]


def factorized_propagator(t: float, laser: LaserParams, kin: KinematicParams,
                          bound: BoundStateParams) -> np.ndarray:
    """Analytic propagator U(t) = W(t) X(t), eps = 0 only."""
    return local_propagator(t, laser, kin, bound) @ time_ordered_X(
        t, laser, kin, bound)


def perturbative_delta_rho_werner(t: float, p: float, laser: LaserParams,
                                  bound: BoundStateParams) -> np.ndarray:
    """Leading-order state change of a Werner state under the laser.

    Equals i [V(t), rho_W] with the leading-order inputs
    theta_minus = (eta Delta / 2) sin(w_L t) and psi = t:

        delta rho = -(p g / 4) sin(th_-) [cos(g t) (s1(x)1 - 1(x)s1)
                                          + sin(g t) (s3(x)s2 - s2(x)s3)].

    Traceless and Hermitian; vanishes at t = 0 and for p = 0.
    """
    if abs(p) > 1.0:
        raise DomainError(f"|p| must be <= 1, got {p}")
    g = bound.g_coupling
    thm = 0.5 * laser.eta * bound.Delta * math.sin(laser.omega_L * t)
    return (-(p * g / 4.0) * math.sin(thm)
            * (math.cos(g * t) * SIGMA_10 + math.sin(g * t) * SIGMA_32))
