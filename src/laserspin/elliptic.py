"""Jacobi elliptic functions sn, cn, dn, the amplitude am, and complete K.

Everything is computed from scratch with the descending Landen / AGM
recursion (absolute tolerance 1e-14, hard cap of 32 iterations), for a
modulus mu in the fundamental domain 0 <= mu < 1 and a real argument u,
a float (giving floats) or an ndarray (giving arrays of its shape): the
recursion loops over the AGM levels of mu, not over the elements of u.
No special-function library is involved, so these routines can be
checked against independent quadrature oracles.

Conventions: the modulus mu (not the parameter m = mu**2) is passed
everywhere.  am(u) is returned unwrapped: am(u + 2K) = am(u) + pi with no
branch jumps, which the trajectory code relies on for the longitudinal
drift.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError

_AGM_TOL = 1e-14
_AGM_MAX_ITER = 32


class JacobiTriple(NamedTuple):
    sn: float | np.ndarray
    cn: float | np.ndarray
    dn: float | np.ndarray


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if math.isnan(mu) or not (0.0 <= mu < 1.0):
        raise DomainError(f"modulus must satisfy 0 <= mu < 1, got {mu}")
    return mu


@lru_cache(maxsize=256)
def _agm_table(mu: float) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """AGM scales (a_n, c_n) for the descending Landen recursion, plus K."""
    a = 1.0
    b = math.sqrt((1.0 - mu) * (1.0 + mu))
    c = mu
    a_seq = [a]
    c_seq = [c]
    for _ in range(_AGM_MAX_ITER):
        if abs(c) <= _AGM_TOL:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        a_seq.append(a)
        c_seq.append(c)
    K = math.pi / (2.0 * a_seq[-1])
    return tuple(a_seq), tuple(c_seq), K


def complete_K(mu: float) -> float:
    """Complete elliptic integral of the first kind, K(mu).

    Quarter period of sn and cn in u; monotone increasing in mu, with
    K(0) = pi/2 and a logarithmic divergence as mu -> 1.
    """
    mu = _check_mu(mu)
    return _agm_table(mu)[2]


def _check(u, mu: float) -> tuple[np.ndarray, float]:
    mu = _check_mu(mu)
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise DomainError(
            f"argument u must be finite, got {u[~np.isfinite(u)][0]}")
    return u, mu


def _landen(u: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """n and am(u_r) by descending Landen, for u = 2nK + u_r, 0 <= u_r < 2K."""
    a_seq, c_seq, K = _agm_table(mu)
    n = np.floor(u / (2.0 * K))
    levels = len(a_seq) - 1
    phi = (2.0 ** levels) * a_seq[levels] * (u - 2.0 * n * K)
    for k in range(levels, 0, -1):
        # no clamp: c_k / a_k = (a - b) / (a + b) < 1 in floating point, as
        # b >= sqrt(1 - mu^2) >= 1.5e-8 for every accepted mu, and |sin| <= 1
        phi = 0.5 * (phi + np.arcsin(c_seq[k] / a_seq[k] * np.sin(phi)))
    return n, phi


def jacobi_am(u, mu: float):
    """Unwrapped Jacobi amplitude am(u, mu), elementwise over u.

    Continuous and monotone increasing in u, am(0) = 0, and
    am(u + 2K) = am(u) + pi.  The half-period count is accumulated from
    floor(u / 2K) so no arcsin branch wrapping ever occurs.
    """
    u, mu = _check(u, mu)
    if mu == 0.0:
        return 1.0 * u      # a copy, never a view of the caller's array
    n, phi = _landen(u, mu)
    return n * np.pi + phi


def jacobi(u, mu: float) -> JacobiTriple:
    """Jacobi elliptic triple (sn, cn, dn) at argument u, modulus mu,
    elementwise over u.

    Satisfies sn**2 + cn**2 = 1 and dn**2 + mu**2 sn**2 = 1; sn is odd
    and cn, dn even in u; sn, cn have period 4K and dn period 2K.
    """
    u, mu = _check(u, mu)
    if mu == 0.0:
        return JacobiTriple(np.sin(u), np.cos(u), np.ones_like(u)[()])
    n, phi = _landen(u, mu)
    sign = 1.0 - 2.0 * (n % 2.0)
    s, c = np.sin(phi), np.cos(phi)
    ms2 = (mu * s) * (mu * s)
    # 1 - (mu sn)^2 cancels as mu sn -> 1, where (1 - mu^2) + (mu cn)^2,
    # the same value, does not
    dn = np.sqrt(np.where(ms2 > 0.5,
                          (1.0 - mu) * (1.0 + mu) + (mu * c) * (mu * c),
                          1.0 - ms2))
    return JacobiTriple(sign * s, sign * c, dn)
