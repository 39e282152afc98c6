"""Two-qubit state constructors, Wootters concurrence, analytic references.

The Werner family is implemented as

    rho_W(p) = (1/4) (I - p sum_k sigma_k (x) sigma_k),

the singlet-weighted sign convention, which is PSD exactly on
p in [-1/3, 1] and reproduces C = max(0, (3p - 1)/2).  (With the opposite
sign the p > 1/3 members would not be states.)

q_factor and the two concurrence formulas are leading-order analytic
references used for comparison against the full numeric evolution.  Their
internal frequency convention (resonances at w_L = 4g) predates the
exchange normalization H_I = (g/4) sigma.sigma used by the evolution
module.  Known limits of the product formula (ROADMAP item 3): it does
not depend on eps, omits the exchange-only term and reaches 2.24 on the
long_elliptic bench scenario (seed 1), above its 0.25 unitary-orbit bound.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .evolution import validate_density_matrix
from .pauli import IDENTITY4, PAIR, SIGMA_DOT_SIGMA


def werner_state(p: float) -> np.ndarray:
    """Werner state with Bell-overlap parameter p.

    Eigenvalues (1 - p)/4 (x3) and (1 + 3p)/4; separable iff p <= 1/3;
    p = 1 is the pure singlet projector.
    """
    if not (-1.0 / 3.0 <= p <= 1.0):
        raise DomainError(f"Werner parameter must lie in [-1/3, 1], got {p}")
    return 0.25 * (IDENTITY4 - p * SIGMA_DOT_SIGMA)


def _check_product_domain(alpha: float, beta: float) -> None:
    if not (abs(alpha) <= 1.0 + 1e-15 and abs(beta) <= 1.0 + 1e-15):
        raise DomainError(
            f"|alpha| <= 1 and |beta| <= 1 are required for a positive "
            f"state, got alpha = {alpha:.6g}, beta = {beta:.6g}"
        )


def product_state(alpha: float, beta: float) -> np.ndarray:
    """Uncorrelated two-spin state, diagonal in the computational basis.

    rho0 = (1/4)(I + alpha (s03 + s30)/2 + beta (s03 - s30)/2); the
    partial traces carry z-polarizations (alpha + beta)/2 and
    (alpha - beta)/2.  The diagonal entries, and so the eigenvalues, are
    (1 +/- alpha)/4 on |00>, |11> and (1 -/+ beta)/4 on |01>, |10>;
    positivity therefore requires |alpha| <= 1 and |beta| <= 1.
    """
    _check_product_domain(alpha, beta)
    c_p = 0.5 * (alpha + beta)
    c_n = 0.5 * (alpha - beta)
    return 0.25 * (IDENTITY4 + c_p * PAIR[0, 3] + c_n * PAIR[3, 0])


def wootters_concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Concurrence of an arbitrary two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4), the l_i the decreasing singular values
    of B^T (sy x sy) B for rho = B B^+ from one eigh (Uhlmann, PRA 62,
    032307 (2000)), so no roundoff eigenvalue enters a square root.
    Invariant under local unitaries; 0 for separable states, 1 for Bell
    states.  A 4x4 rho gives a float; an (N, 4, 4) stack gives the (N,)
    array of the concurrences of its samples.
    """
    w, B = np.linalg.eigh(validate_density_matrix(rho))
    B *= np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    lam = np.linalg.svd(B.swapaxes(-1, -2) @ (PAIR[2, 2] @ B),
                        compute_uv=False)
    c = np.clip(lam[..., 0] - lam[..., 1:].sum(axis=-1), 0.0, 1.0)
    return float(c) if c.ndim == 0 else c


def unitary_orbit_bound(rho: np.ndarray) -> float:
    """Largest concurrence of any U rho U^+, U a two-qubit unitary.

    max(0, l1 - l3 - 2 sqrt(l2 l4)) with l the decreasing eigenvalues of
    rho (Verstraete, Audenaert & De Moor, PRA 64, 012316 (2001)).  A
    unitary evolution keeps the spectrum, so no sample of it can exceed
    the bound of its initial state: (3p - 1)/2 for a Werner state, which
    it attains, and 1/4 for the product state (0, 1).
    """
    l = np.linalg.eigvalsh(validate_density_matrix(rho))[::-1]
    return max(0.0, float(l[0] - l[2] - 2.0 * math.sqrt(max(l[1] * l[3], 0.0))))


def _sin2_over(delta: float, t, scale: float):
    """sin^2(delta t / 2) / delta with the removable delta -> 0 limit, at a
    float time or elementwise over an array of times.

    Within |delta| < 1e-8 * scale the three-term Taylor expansion in
    delta is used.
    """
    if abs(delta) < 1e-8 * scale:
        t2 = t * t
        return (delta * t2 / 4.0 - delta**3 * t2 * t2 / 48.0
                + delta**5 * t2 * t2 * t2 / 1440.0)
    s = np.sin(0.5 * delta * t)
    return s * s / delta


def q_factor(t, omega_L: float, g: float):
    """Resonance kernel Q(t) of the product-state concurrence formula.

    Q = sin^2((w/2 + 2g) t)/(w + 4g) + sin^2((w/2 - 2g) t)/(w - 4g),
    finite at the removable resonance w = 4g.  A float t gives a float,
    an array of times the array of Q at each.
    """
    t = np.asarray(t, dtype=float)
    negative = t < 0.0
    if negative.any():
        raise DomainError(f"q_factor requires t >= 0, got {t[negative][0]}")
    return (_sin2_over(omega_L + 4.0 * g, t, omega_L)
            + _sin2_over(omega_L - 4.0 * g, t, omega_L))


def concurrence_werner_analytic(p: float) -> float:
    """Leading-order concurrence of an evolved Werner state: max(0, (3p-1)/2)."""
    if not (-1.0 / 3.0 <= p <= 1.0):
        raise DomainError(f"Werner parameter must lie in [-1/3, 1], got {p}")
    return max(0.0, (3.0 * p - 1.0) / 2.0)


def concurrence_product_analytic(t, alpha: float, beta: float,
                                 eta: float, g: float, delta_gtilde: float,
                                 omega_L: float = 1.0):
    """Leading-order concurrence of the evolved uncorrelated state, at a
    float time (a float) or an array of times (an array of that shape).

    C = max(0, 4 eta |beta g Delta Q(t)| - sqrt(1 - alpha^2)); zero at
    t = 0 and identically zero when beta, Delta or g vanishes.  At
    Delta = 0 the exact evolution agrees only while
    |beta| <= sqrt(1 - alpha^2): with identical single-spin fields the
    exchange term H_I = (g/4) sigma.sigma alone gives, up to local
    unitaries, C(t) = max(0, (|beta sin(g t)| - sqrt(1 - alpha^2))/2).
    """
    _check_product_domain(alpha, beta)
    grow = 4.0 * eta * np.abs(beta * g * delta_gtilde * q_factor(t, omega_L, g))
    return np.maximum(0.0, grow - math.sqrt(max(1.0 - alpha * alpha, 0.0)))
