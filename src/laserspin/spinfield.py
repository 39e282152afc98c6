"""Effective two-spin Hamiltonian along the bound-state trajectory.

The spin of each constituent precesses in the closed-form field B^(i)(t)
built from the shared (u, mu) of the center-of-mass motion, with the
rescaled gyromagnetic ratio

    gtilde^(i) = (e^(i) / m^(i)) (M_B / q_B) g^(i).

The full Hamiltonian (hbar = 1, S = sigma / 2) is

    H_S(t) = -B^(n) . S (x) I  -  I (x) S . B^(p)  +  H_I,
    H_I = (g / 4) sum_k sigma_k (x) sigma_k,

so the spin-spin constant g carries angular-frequency units and H_I has
eigenvalues {g/4 (x3), -3g/4}.  Each scenario's drive is folded once into
field amplitudes, and H_S is a coefficient series times seven operators.

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
from typing import NamedTuple

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

    Every field must be finite.  q_B is minus the net constituent charge
    and must be nonzero; the spin-spin constant g_coupling is the frozen
    contact value of the spin-spin potential, in angular-frequency units.
    """

    mass_n: float
    mass_p: float
    charge_n: float
    charge_p: float
    g_n: float
    g_p: float
    g_coupling: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
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


class _Drive(NamedTuple):
    """The numbers H_S takes from the laser, kinematic and bound-state
    records, with the drive folded into the amplitudes of the field
    components: floats for one scenario, or one array per field, over the
    scenarios of a :class:`DriveTable` or over the times of a batch."""

    omega_L_prime: float | np.ndarray
    mu: float | np.ndarray
    gamma_z: float | np.ndarray
    amp_x: float | np.ndarray          # eta (w'_L/2) sqrt(1 - eps^2)
    amp_y: float | np.ndarray          # eta (w'_L/2) eps
    amp_z: float | np.ndarray          # -eta^2 (w_L/2) eps sqrt(1 - eps^2)
    gamma_z_comp: float | np.ndarray   # gamma_z (1 - mu^2)
    gtilde_n: float | np.ndarray
    gtilde_p: float | np.ndarray
    g_coupling: float | np.ndarray


def _drive(laser: LaserParams, kin: KinematicParams,
           bound: BoundStateParams) -> _Drive:
    eta, eps, wp = laser.eta, laser.epsilon, kin.omega_L_prime
    root = math.sqrt(1.0 - eps * eps)
    return _Drive(wp, kin.mu, kin.gamma_z, eta * (wp / 2.0) * root,
                  eta * (wp / 2.0) * eps,
                  -eta * eta * (laser.omega_L / 2.0) * eps * root,
                  kin.gamma_z * (1.0 - kin.mu * kin.mu), bound.gtilde("n"),
                  bound.gtilde("p"), bound.g_coupling)


def _field_components(gt, sn, cn, dn, d: _Drive) -> tuple:
    """(Bx, By, Bz) of rescaled ratio gt from the Jacobi triple of u = w'_L t."""
    return (d.amp_x * ((gt + 1.0) * dn - d.gamma_z) * cn,
            d.amp_y * ((gt + 1.0) * dn - d.gamma_z_comp) * sn,
            d.amp_z * (gt - d.gamma_z * dn))


def effective_field(t, which: str, laser: LaserParams, kin: KinematicParams,
                    bound: BoundStateParams) -> np.ndarray:
    """Closed-form precession field B^(i)(t) for constituent which in {n, p}:
    (Bx, By, Bz) at a float time, shape S + (3,) over an array of shape S."""
    return np.stack(_field_components(
        bound.gtilde(which), *jacobi(kin.omega_L_prime * t, kin.mu),
        _drive(laser, kin, bound)), axis=-1)


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


# H_S = sum_k coefficient_k OPERATORS[k]: the single-spin operators
# (s_k x 1), k = 1..3, then (1 x s_k), then sigma . sigma, one per row
_OPERATORS = np.concatenate([PAIR[1:, 0], PAIR[0, 1:], SIGMA_DOT_SIGMA[None]]
                            ).reshape(7, 16)


class DriveTable:
    """The numbers H_S takes from each scenario of a batch, folded once
    per batch for :func:`spin_hamiltonian`: one array over the scenarios
    per field of :class:`_Drive`, a table of one for a single scenario."""

    def __init__(self, lasers, kins, bounds):
        self.columns = _Drive(*np.array(
            [_drive(*records)
             for records in zip(lasers, kins, bounds, strict=True)]).T)

    def at(self, point: np.ndarray) -> _Drive:
        """The drive of each time whose scenario point names, gathered
        from the columns in the shape of point, also when it names one."""
        return _Drive(*(column[point] for column in self.columns))


def spin_hamiltonian(t, laser=None, kin=None, bound=None, *,
                     drives: DriveTable | None = None,
                     point=None) -> np.ndarray:
    """Hermitian two-spin Hamiltonian H_S(t): a 4x4 matrix at a float time,
    shape S + (4, 4) over an array of times of shape S.

    H_S is one matrix product: the coefficient series of each time, the
    six field components -B/2 and then g/4, times the constant table of
    the six single-spin operators and then sigma . sigma.

    For a batch of scenarios, drives, their :class:`DriveTable`, takes
    the place of the three records, and point, an integer array of the
    shape of t, names the scenario of each time: one call serves every
    scenario, and each element has the bits of a call with its own
    records.  Either form alone is accepted, else TypeError.

    The symmetries that `evolution.propagate` asserts when given the
    period.  H_S depends on t only through sn, cn and dn of u = w'_L t,
    so it has the exact motion period T = 4 K(mu) / w'_L.  Bx and Bz are
    even in t and By is odd, so H_S is time-reversal symmetric,
    H_S(-t) = H_S(t)*, at every eps (pinned at 1e-14 at three drives).
    sn(u + 2K) = -sn u, cn(u + 2K) = -cn u and dn(u + 2K) = dn u (DLMF
    22.4.3), so over half a period Bx and By change sign and Bz does not,
    and with P = s3 (x) s3, which leaves sigma . sigma alone,
    H_S(t + T/2) = P H_S(t) P (pinned at 1e-14 at four drives).
    """
    given = [x is not None for x in (laser, kin, bound, drives, point)]
    if given == [True, True, True, False, False]:
        d = _drive(laser, kin, bound)
    elif given == [False, False, False, True, True]:
        d = drives.at(point)
    else:
        raise TypeError("spin_hamiltonian takes the records laser, kin and "
                        "bound, or drives= and point=, and not both")
    sn, cn, dn = jacobi(d.omega_L_prime * t, d.mu)
    fields = (_field_components(d.gtilde_n, sn, cn, dn, d)
              + _field_components(d.gtilde_p, sn, cn, dn, d))
    coeffs = np.stack([-0.5 * b for b in fields]
                      + [np.broadcast_to(d.g_coupling / 4.0, dn.shape)], axis=-1)
    return (coeffs @ _OPERATORS).reshape(coeffs.shape[:-1] + (4, 4))
