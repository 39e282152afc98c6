"""Jacobi elliptic functions sn, cn, dn, the amplitude am, and complete K.

Everything is computed from scratch with the descending Landen / AGM
recursion (absolute tolerance 1e-14, hard cap of 32 iterations), for a
modulus mu in the fundamental domain 0 <= mu < 1 and a real argument u,
floats (giving floats) or arrays broadcast against each other, one
modulus per element as for a batch of scenarios.  A float is a 0-d array,
so one modulus runs the code of a batch, and each element has the bits of
a call with its own modulus; the recursion loops over the AGM levels of
the distinct moduli, not over the elements.  Each modulus runs its AGM
in floats, and the padded table of a set of moduli is kept in one cache.
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


def complete_K(mu):
    """Complete elliptic integral of the first kind K(mu), elementwise.

    Quarter period of sn and cn in u; monotone increasing in mu, with
    K(0) = pi/2 and a logarithmic divergence as mu -> 1.
    """
    _, mu = _check(0.0, mu)
    K, _, _, which = _descent_of(mu)
    return K[which]


def _check(u, mu) -> tuple[np.ndarray, np.ndarray]:
    """u and mu as float arrays, 0-d for a float, after the domain checks."""
    mu = np.asarray(mu, dtype=float)
    bad = ~((0.0 <= mu) & (mu < 1.0))
    if bad.any():
        raise DomainError(
            f"modulus must satisfy 0 <= mu < 1, got {mu[bad][0]}")
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise DomainError(
            f"argument u must be finite, got {u[~np.isfinite(u)][0]}")
    return u, mu


@lru_cache(maxsize=256)
def _descent(moduli: tuple[float, ...]) -> tuple:
    """K, 2^L a_L and the ratios c_k / a_k of levels k = L .. 1 of the
    descending Landen recursion, one entry per modulus of moduli, with L
    the deepest AGM level among them.  Each modulus runs its own AGM in
    floats; a shallower table is padded with levels whose c is 0, where
    phi only halves, which is exact, so every modulus keeps the bits of
    its own descent."""
    tables = []
    for mu in moduli:
        a, b, c = 1.0, math.sqrt((1.0 - mu) * (1.0 + mu)), mu
        tables.append([(a, c)])
        while abs(c) > _AGM_TOL and len(tables[-1]) <= _AGM_MAX_ITER:
            a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
            tables[-1].append((a, c))
    depth = max(map(len, tables))
    a, c = np.array([table + [(table[-1][0], 0.0)] * (depth - len(table))
                     for table in tables]).transpose(2, 0, 1)
    levels = depth - 1
    return (np.pi / (2.0 * a[:, levels]), (2.0 ** levels) * a[:, levels],
            [c[:, k] / a[:, k] for k in range(levels, 0, -1)])


def _descent_of(mu: np.ndarray) -> tuple:
    """:func:`_descent` of the distinct moduli of mu, and the index of
    each element's modulus among them, in the shape of mu."""
    moduli, which = np.unique(mu, return_inverse=True)
    return *_descent(tuple(moduli.tolist())), which.reshape(mu.shape)


def _landen(u: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n and am(u_r) by descending Landen, for u = 2nK + u_r, 0 <= u_r < 2K,
    with mu an array broadcast against u, 0-d for one, as `_check` gives."""
    K, top, ratios, which = _descent_of(mu)
    K = K[which]
    n = np.floor(u / (2.0 * K))
    phi = top[which] * (u - 2.0 * n * K)
    for ratio in ratios:
        # no clamp: c_k / a_k = (a - b) / (a + b) < 1 in floating point, as
        # b >= sqrt(1 - mu^2) >= 1.5e-8 for every accepted mu, and |sin| <= 1
        phi = 0.5 * (phi + np.arcsin(ratio[which] * np.sin(phi)))
    return n, phi


def jacobi_am(u, mu):
    """Unwrapped Jacobi amplitude am(u, mu), elementwise over u and over an
    array mu broadcast against it.

    Continuous and monotone increasing in u, am(0) = 0, and
    am(u + 2K) = am(u) + pi.  The half-period count is accumulated from
    floor(u / 2K) so no arcsin branch wrapping ever occurs.
    """
    u, mu = _check(u, mu)
    n, phi = _landen(u, mu)
    # am(u, 0) = u, a copy, never a view of the caller's array
    return np.where(mu == 0.0, u, n * np.pi + phi)[()]


def jacobi(u, mu) -> JacobiTriple:
    """Jacobi elliptic triple (sn, cn, dn) at argument u, modulus mu,
    elementwise over u and over an array mu broadcast against it; each
    element has the bits of a call with its modulus alone.

    Satisfies sn**2 + cn**2 = 1 and dn**2 + mu**2 sn**2 = 1; sn is odd
    and cn, dn even in u; sn, cn have period 4K and dn period 2K.
    """
    u, mu = _check(u, mu)
    n, phi = _landen(u, mu)
    sign = 1.0 - 2.0 * (n % 2.0)
    s, c = np.sin(phi), np.cos(phi)
    ms2 = (mu * s) * (mu * s)
    # 1 - (mu sn)^2 cancels as mu sn -> 1, where (1 - mu^2) + (mu cn)^2,
    # the same value, does not; at mu = 0 both are exactly 1
    dn = np.sqrt(np.where(ms2 > 0.5,
                          (1.0 - mu) * (1.0 + mu) + (mu * c) * (mu * c),
                          1.0 - ms2))[()]
    trig = mu == 0.0
    if not np.any(trig):
        return JacobiTriple(sign * s, sign * c, dn)
    return JacobiTriple(np.where(trig, np.sin(u), sign * s)[()],
                        np.where(trig, np.cos(u), sign * c)[()], dn)
