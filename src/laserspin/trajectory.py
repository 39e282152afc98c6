"""Exact center-of-mass trajectory of a charged bound state in a plane wave.

The wave travels along +z with vector potential

    A(t, x) = a * (eps * cos(w_L xi), sqrt(1 - eps^2) * sin(w_L xi), 0),
    xi = t - z,

in natural units c = 1.  The center of mass obeys the Newton equation with
the full magnetic Lorentz force,

    M dv/dt = q (E + v x B),

whose exact solution is elliptic: with u = w'_L t (lab time Doppler-scaled
by gamma_z = 1 - v_z(0)) the laser phase seen by the particle is
w_L xi(t) = am(u, mu), and the trajectory closes in terms of sn, cn, dn.
The modulus is fixed by gamma_z^2 mu^2 = (1 - 2 eps^2) eta^2.

A time t (or xi) is a float, giving a (3,) vector or a float, or an array
of shape S, giving S + (3,) vectors or an S array; positions x carry
their components on a last axis of length 3.

Sign convention: the closed forms below require q * a = eta * M, i.e. the
trajectory is written for amplitude a = eta * M / q.  The Lorentz residual
and the first-principles precession cross-check both pin this choice.

Everything here is a pure function of immutable parameter records and is
safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_K, jacobi, jacobi_am
from .errors import DomainError

_EPS_CIRCULAR_TOL = 1e-12  # treat 1 - 2 eps^2 below this as the circular limit
_MU_SERIES_TOL = 1e-4      # switch transverse closed forms to their mu -> 0 series


@dataclass(frozen=True)
class LaserParams:
    """Plane-wave drive: field strength eta, polarization eps, frequency w_L."""

    eta: float
    epsilon: float
    omega_L: float = 1.0

    def __post_init__(self):
        if math.isnan(self.eta) or self.eta < 0.0:
            raise DomainError(f"eta must be >= 0, got {self.eta}")
        if math.isnan(self.epsilon) or not (0.0 <= self.epsilon <= 1.0):
            raise DomainError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if math.isnan(self.omega_L) or self.omega_L <= 0.0:
            raise DomainError(f"omega_L must be > 0, got {self.omega_L}")


@dataclass(frozen=True)
class KinematicParams:
    """Doppler factor, elliptic modulus and shifted frequency of one scenario.

    Use :func:`modulus_from_params` to build a record whose fields satisfy
    gamma_z^2 mu^2 = (1 - 2 eps^2) eta^2 by construction.  Tests may pin mu
    directly to probe the closed forms off the physical sheet.
    """

    gamma_z: float
    mu: float
    omega_L_prime: float

    def __post_init__(self):
        if self.gamma_z <= 0.0 or math.isnan(self.gamma_z):
            raise DomainError(f"gamma_z must be > 0, got {self.gamma_z}")
        if math.isnan(self.mu) or not (0.0 <= self.mu < 1.0):
            raise DomainError(f"modulus must satisfy 0 <= mu < 1, got {self.mu}")


def modulus_from_params(laser: LaserParams, gamma_z: float) -> KinematicParams:
    """Derive the elliptic modulus from laser strength, polarization and gamma_z.

    mu = (eta / gamma_z) * sqrt(1 - 2 eps^2).  Polarizations with
    eps^2 > 1/2 would need the modular extension of the elliptic
    functions and are rejected; so are intensities pushing mu >= 1.
    """
    if gamma_z <= 0.0:
        raise DomainError(f"gamma_z must be > 0, got {gamma_z}")
    one_minus = 1.0 - 2.0 * laser.epsilon**2
    if one_minus < -_EPS_CIRCULAR_TOL:
        raise DomainError(
            f"epsilon^2 = {laser.epsilon**2:.6g} > 1/2: modulus would be "
            "imaginary (modular extension not supported)"
        )
    mu = laser.eta * math.sqrt(max(one_minus, 0.0)) / gamma_z
    if mu >= 1.0:
        raise DomainError(
            f"mu = {mu:.6g} >= 1: intensity outside the fundamental domain"
        )
    return KinematicParams(gamma_z=gamma_z, mu=mu,
                           omega_L_prime=gamma_z * laser.omega_L)


def motion_period(kin: KinematicParams) -> float:
    """Lab-time period of the transverse motion, 4 K(mu) / w'_L."""
    return 4.0 * complete_K(kin.mu) / kin.omega_L_prime


def _asinc(mu: float, s):
    """arcsin(mu * s) / mu, stable through mu -> 0."""
    if mu < _MU_SERIES_TOL:
        m2 = mu * mu
        return s * (1.0 + m2 * s * s / 6.0 + 3.0 * m2 * m2 * s**4 / 40.0)
    return np.arcsin(mu * s) / mu


def _logterm(mu: float, cn, dn):
    """ln((mu*cn + dn)/(1 + mu)) / mu, stable through mu -> 0."""
    if mu < _MU_SERIES_TOL:
        sn2 = 1.0 - cn * cn
        return (cn - 1.0) + mu * mu * (cn * sn2 / 2.0 + cn**3 / 3.0 - 1.0 / 3.0)
    # mu cn + dn cancels as cn -> -1 and mu -> 1; for cn < 0 it equals
    # (1 - mu^2) / (dn + mu |cn|), which does not, and dn > 0 keeps that
    # denominator off zero everywhere
    arg = np.where(cn < 0.0, (1.0 - mu) * (1.0 + mu) / (dn + mu * np.abs(cn)),
                   mu * cn + dn)
    return np.log(arg / (1.0 + mu)) / mu


def com_position(t, laser: LaserParams, kin: KinematicParams) -> np.ndarray:
    """Center-of-mass position (R_x, R_y, R_z) at lab time t, R(0) = 0.

    R_x and R_y are the arcsin/log closed forms of the transverse motion;
    R_z = t - am(u, mu) / w_L carries the longitudinal drift through the
    unwrapped amplitude.
    """
    eta, eps, w = laser.eta, laser.epsilon, laser.omega_L
    gz, mu = kin.gamma_z, kin.mu
    u = kin.omega_L_prime * t
    sn, cn, dn = jacobi(u, mu)
    rx = -(eta * eps / (gz * w)) * _asinc(mu, sn)
    ry = (eta * math.sqrt(1.0 - eps * eps) / (gz * w)) * _logterm(mu, cn, dn)
    rz = t - jacobi_am(u, mu) / w
    return np.stack([rx, ry, rz], axis=-1)


def com_velocity(t, laser: LaserParams, kin: KinematicParams) -> np.ndarray:
    """Exact analytic time derivative of com_position."""
    eta, eps = laser.eta, laser.epsilon
    sn, cn, dn = jacobi(kin.omega_L_prime * t, kin.mu)
    return np.stack([
        -eta * eps * cn,
        -eta * math.sqrt(1.0 - eps * eps) * sn,
        1.0 - kin.gamma_z * dn,
    ], axis=-1)


def com_acceleration(t, laser: LaserParams, kin: KinematicParams) -> np.ndarray:
    """Exact analytic second derivative of com_position."""
    eta, eps = laser.eta, laser.epsilon
    wp, gz, mu = kin.omega_L_prime, kin.gamma_z, kin.mu
    sn, cn, dn = jacobi(wp * t, mu)
    return np.stack([
        eta * eps * wp * sn * dn,
        -eta * math.sqrt(1.0 - eps * eps) * wp * cn * dn,
        gz * mu * mu * wp * sn * cn,
    ], axis=-1)


def vector_potential(xi, laser: LaserParams, amplitude: float) -> np.ndarray:
    """Transverse vector potential A(xi) of the wave, xi = t - z."""
    ph = laser.omega_L * xi
    eps = laser.epsilon
    return np.stack([
        amplitude * eps * np.cos(ph),
        amplitude * math.sqrt(1.0 - eps * eps) * np.sin(ph),
        np.zeros_like(ph),
    ], axis=-1)


def wave_fields(t, x: np.ndarray, laser: LaserParams,
                amplitude: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Electric and magnetic fields of the wave at event (t, x).

    E = -dA/dt, B = curl A; both depend on (t, x) only through xi = t - z,
    are transverse, equal in magnitude, and satisfy B = z_hat x E.
    """
    ph = laser.omega_L * (t - np.asarray(x, dtype=float)[..., 2])
    eps = laser.epsilon
    e0 = amplitude * laser.omega_L
    ex = e0 * eps * np.sin(ph)
    ey = -e0 * math.sqrt(1.0 - eps * eps) * np.cos(ph)
    zero = np.zeros_like(ex)
    return (np.stack([ex, ey, zero], axis=-1),
            np.stack([-ey, ex, zero], axis=-1))


def field_amplitude(laser: LaserParams, total_mass: float, charge: float) -> float:
    """Amplitude a = eta * M / q consistent with the closed-form trajectory."""
    if charge == 0.0:
        raise DomainError("field amplitude undefined for zero charge")
    return laser.eta * total_mass / charge


def plane_wave_invariant(t, laser: LaserParams, kin: KinematicParams):
    """Light-front integral of motion of the Newtonian plane-wave dynamics.

    K = |v|^2 / 2 - v_z is exactly conserved by M dv/dt = q(E + v x B)
    for any plane wave travelling along +z (it is the c -> infinity limit
    of the relativistic invariant c^2 [gamma(1 - v_z/c) - 1]).
    """
    v = com_velocity(t, laser, kin)
    return 0.5 * np.sum(v * v, axis=-1) - v[..., 2]


def lorentz_residual(t, laser: LaserParams, kin: KinematicParams, bound):
    """Max-norm residual of M dv/dt = q(E + v x B) along the trajectory.

    `bound` is any record exposing the total mass M_B and net charge
    magnitude q_B of the bound state.  The residual is returned in units
    of w_L (accelerations scale like eta * w_L), so the exact solution
    sits at roundoff for any admissible parameters.  Serves as the oracle
    that the closed forms really solve the equation of motion.
    """
    mass, charge = bound.M_B, bound.q_B
    a = field_amplitude(laser, mass, charge)
    pos = com_position(t, laser, kin)
    v = com_velocity(t, laser, kin)
    acc = com_acceleration(t, laser, kin)
    E, B = wave_fields(t, pos, laser, a)
    force = (charge / mass) * (E + np.cross(v, B))
    return np.abs(acc - force).max(axis=-1) / laser.omega_L


def generating_function(xi: float, Pi_perp: np.ndarray, Pi_z: float,
                        laser: LaserParams, mass: float, charge: float,
                        amplitude: float | None = None,
                        tol: float = 1e-10) -> float:
    """Hamilton-Jacobi generating function F(xi, Pi) of the light-front motion.

    F = -(m - Pi_z) xi + int_0^xi sqrt((m - Pi_z)^2 + W(u)) du with
    W = -q^2 A_perp^2 + 2 q A_perp . Pi_perp  (c = 1).  F(0, .) = 0.

    Parameters
    ----------
    xi : light-front coordinate t - z.
    Pi_perp : transverse canonical momentum, shape (2,).
    Pi_z : longitudinal separation constant; m - Pi_z must not vanish.
    mass, charge : parameters of the particle the wave acts on.
    amplitude : wave amplitude; defaults to eta * mass / charge, the value
        for which this particle rides the closed-form trajectory.
    tol : absolute quadrature tolerance of the integral term.
    """
    from scipy.integrate import quad
    if mass - Pi_z == 0.0:
        raise DomainError("m - Pi_z must be nonzero")
    if amplitude is None:
        amplitude = field_amplitude(laser, mass, charge)
    px, py = float(Pi_perp[0]), float(Pi_perp[1])
    base = (mass - Pi_z) ** 2

    def radicand(u):
        A = vector_potential(u, laser, amplitude)
        ax, ay = A[..., 0], A[..., 1]
        W = -(charge**2) * (ax**2 + ay**2) + 2.0 * charge * (ax*px + ay*py)
        return base + W

    # scan for a non-real integrand before spending quadrature effort
    if xi != 0.0 and radicand(np.linspace(0.0, xi, 257)).min() < 0.0:
        raise DomainError(
            "generating-function integrand is non-real: "
            "W < -(m - Pi_z)^2 somewhere on [0, xi]"
        )
    integral, _ = quad(lambda u: math.sqrt(max(radicand(u), 0.0)),
                       0.0, xi, epsabs=tol, epsrel=0.0, limit=400)
    return -(mass - Pi_z) * xi + integral
