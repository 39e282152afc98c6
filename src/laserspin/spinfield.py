"""Effective two-spin Hamiltonian along the bound-state trajectory.

The spin of each constituent precesses in the closed-form field B^(i)(t)
built from the shared (u, mu) of the center-of-mass motion, with the
rescaled gyromagnetic ratio

    gtilde^(i) = (e^(i) / m^(i)) (M_B / q_B) g^(i).

The full Hamiltonian (hbar = 1, S = sigma / 2) is

    H_S(t) = -B^(n) . S (x) I  -  I (x) S . B^(p)  +  H_I,
    H_I = (g / 4) sum_k sigma_k (x) sigma_k,

so the spin-spin constant g carries angular-frequency units and H_I has
eigenvalues {g/4 (x3), -3g/4}.

omega_first_principles evaluates the precession vector directly from the
Larmor term in the instantaneous rest frame plus the Thomas correction,

    Omega = (e g / 2m) (B - v x E) + (1/2) (v x a),

using the lab fields and kinematics along the trajectory.  It reproduces
the closed-form components identically (the Thomas term completes them
exactly), which the tests use as the cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import jacobi
from .errors import DomainError
from .pauli import PAIR, SIGMA_DOT_SIGMA
from .trajectory import (KinematicParams, LaserParams, com_acceleration,
                         com_position, com_velocity, field_amplitude,
                         wave_fields)


@dataclass(frozen=True)
class BoundStateParams:
    """Masses, charges and gyromagnetic ratios of the two constituents.

    q_B is minus the net constituent charge and must be nonzero; the
    spin-spin constant g_coupling is the frozen contact value of the
    spin-spin potential, in angular-frequency units.
    """

    mass_n: float
    mass_p: float
    charge_n: float
    charge_p: float
    g_n: float
    g_p: float
    g_coupling: float = 0.0

    def __post_init__(self):
        if self.mass_n <= 0.0 or self.mass_p <= 0.0:
            raise DomainError("constituent masses must be positive")
        if self.charge_n + self.charge_p == 0.0:
            raise DomainError("bound state must carry net charge (q_B != 0)")

    @property
    def M_B(self) -> float:
        return self.mass_n + self.mass_p

    @property
    def q_B(self) -> float:
        return -(self.charge_n + self.charge_p)

    def constituent(self, which: str) -> tuple[float, float, float]:
        """Charge, mass and gyromagnetic ratio of constituent which."""
        if which == "n":
            return self.charge_n, self.mass_n, self.g_n
        if which == "p":
            return self.charge_p, self.mass_p, self.g_p
        raise DomainError(f"constituent tag must be 'n' or 'p', got {which!r}")

    def gtilde(self, which: str) -> float:
        e, m, g = self.constituent(which)
        return (e / m) * (self.M_B / self.q_B) * g

    @property
    def Delta(self) -> float:
        return self.gtilde("n") - self.gtilde("p")

    def swapped(self) -> "BoundStateParams":
        """Same system with the two constituent labels exchanged."""
        return BoundStateParams(self.mass_p, self.mass_n,
                                self.charge_p, self.charge_n,
                                self.g_p, self.g_n, self.g_coupling)

    @classmethod
    def from_gtildes(cls, gtilde_n: float, gtilde_p: float,
                     g_coupling: float = 0.0) -> "BoundStateParams":
        """Canonical equal-mass system realizing the given rescaled ratios."""
        mass, charge = 1.0, -0.5   # q_B = 1, M_B = 2
        factor = (mass / charge) * (1.0 / 2.0)   # q_B / M_B = 1/2
        return cls(mass_n=mass, mass_p=mass, charge_n=charge, charge_p=charge,
                   g_n=gtilde_n * factor, g_p=gtilde_p * factor,
                   g_coupling=g_coupling)


def _field_components(gt: float, sn, cn, dn, laser: LaserParams,
                      kin: KinematicParams) -> tuple:
    """(Bx, By, Bz) of rescaled ratio gt from the Jacobi triple of u = w'_L t."""
    eta, eps = laser.eta, laser.epsilon
    gz, mu, wp = kin.gamma_z, kin.mu, kin.omega_L_prime
    root = math.sqrt(1.0 - eps * eps)
    return (
        eta * (wp / 2.0) * root * ((gt + 1.0) * dn - gz) * cn,
        eta * (wp / 2.0) * eps * ((gt + 1.0) * dn - gz * (1.0 - mu * mu)) * sn,
        -eta * eta * (laser.omega_L / 2.0) * eps * root * (gt - gz * dn),
    )


def effective_field(t, which: str, laser: LaserParams, kin: KinematicParams,
                    bound: BoundStateParams) -> np.ndarray:
    """Closed-form precession field B^(i)(t) for constituent which in {n, p}:
    (Bx, By, Bz) at a float time, shape S + (3,) over an array of shape S."""
    return np.stack(_field_components(
        bound.gtilde(which), *jacobi(kin.omega_L_prime * t, kin.mu), laser, kin),
        axis=-1)


def omega_first_principles(t: float, which: str, laser: LaserParams,
                           kin: KinematicParams,
                           bound: BoundStateParams) -> np.ndarray:
    """Precession vector from the boosted Larmor term plus Thomas rotation.

    Evaluated with the bare constituent charge, mass and gyromagnetic
    ratio on the common center-of-mass trajectory (frozen relative
    motion); independent of the closed-form field components, so it acts
    as their oracle.
    """
    e, m, g = bound.constituent(which)
    amp = field_amplitude(laser, bound.M_B, bound.q_B)
    pos = com_position(t, laser, kin)
    v = com_velocity(t, laser, kin)
    acc = com_acceleration(t, laser, kin)
    E, B = wave_fields(t, pos, laser, amp)
    larmor = (e * g / (2.0 * m)) * (B - np.cross(v, E))
    thomas = 0.5 * np.cross(v, acc)
    return larmor + thomas


def interaction_hamiltonian(bound: BoundStateParams) -> np.ndarray:
    """Spin-spin contact term H_I = (g/4) sum_k sigma_k (x) sigma_k."""
    return (bound.g_coupling / 4.0) * SIGMA_DOT_SIGMA


# single-spin operators (s_k x 1), k = 1..3, then (1 x s_k), one per row
_SINGLE_SPIN_BASIS = np.concatenate([PAIR[1:, 0], PAIR[0, 1:]]).reshape(6, 16)


def spin_hamiltonian(t, laser: LaserParams, kin: KinematicParams,
                     bound: BoundStateParams) -> np.ndarray:
    """Hermitian two-spin Hamiltonian H_S(t): a 4x4 matrix at a float time,
    shape S + (4, 4) over an array of times of shape S."""
    jac = jacobi(kin.omega_L_prime * t, kin.mu)
    coeffs = -0.5 * np.stack(
        _field_components(bound.gtilde("n"), *jac, laser, kin)
        + _field_components(bound.gtilde("p"), *jac, laser, kin), axis=-1)
    return ((coeffs @ _SINGLE_SPIN_BASIS).reshape(coeffs.shape[:-1] + (4, 4))
            + interaction_hamiltonian(bound))
