import dataclasses
import math

import numpy as np
import pytest

from laserspin import (BoundStateParams, DomainError, DriveTable,
                       KinematicParams, LaserParams, effective_field, interaction_hamiltonian,
                       modulus_from_params, motion_period,
                       omega_first_principles, spin_hamiltonian)
from laserspin.pauli import PAULI, SWAP, hermiticity_defect


def scenario(eta, eps, gamma_z=1.0):
    laser = LaserParams(eta=eta, epsilon=eps)
    return laser, modulus_from_params(laser, gamma_z)


class TestBoundStateParams:
    def test_derived_quantities(self, bound):
        assert bound.M_B == bound.mass_n + bound.mass_p
        assert bound.q_B == -(bound.charge_n + bound.charge_p)
        assert bound.gtilde("n") == pytest.approx(4.0)
        assert bound.gtilde("p") == pytest.approx(1.0)
        assert bound.Delta == pytest.approx(3.0)

    def test_neutral_system_rejected(self):
        with pytest.raises(DomainError):
            BoundStateParams(1.0, 1.0, 0.5, -0.5, 2.0, 2.0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(DomainError):
            BoundStateParams(0.0, 1.0, 0.5, 0.5, 2.0, 2.0)

    def test_gtilde_definition(self):
        b = BoundStateParams(mass_n=1.5, mass_p=0.5, charge_n=0.2,
                             charge_p=0.3, g_n=5.0, g_p=-2.0)
        expected = (0.2 / 1.5) * (2.0 / -0.5) * 5.0
        assert b.gtilde("n") == pytest.approx(expected)

    def test_unknown_tag(self, bound):
        with pytest.raises(DomainError):
            bound.gtilde("x")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("record, field", [
    (record, field.name)
    for record in (BoundStateParams(1.0, 1.0, -0.5, -0.5, -4.0, -1.0, 0.1),
                   LaserParams(eta=0.1, epsilon=0.3),
                   KinematicParams(gamma_z=1.0, mu=0.3, omega_L_prime=1.0))
    for field in dataclasses.fields(record)])
def test_records_reject_non_finite_fields(record, field, value):
    with pytest.raises(DomainError,
                       match=f"^{field} must be finite, got {value}$"):
        dataclasses.replace(record, **{field: value})


class TestEffectiveField:
    def test_vanishes_without_laser(self, bound):
        laser, kin = scenario(0.0, 0.4)
        f = effective_field(1.7, "n", laser, kin, bound)
        assert f[0] == 0.0 and f[1] == 0.0 and f[2] == 0.0

    def test_linear_polarization_kills_y_and_z(self, bound):
        laser, kin = scenario(0.5, 0.0)
        for t in np.linspace(0.0, motion_period(kin), 40):
            f = effective_field(float(t), "n", laser, kin, bound)
            assert f[1] == 0.0 and f[2] == 0.0

    def test_hand_substitution_at_origin(self):
        # cn(0) = dn(0) = 1 collapses the x component to its prefactor
        eta, eps, gt = 0.5, 0.3, 2.0
        laser, kin = scenario(eta, eps)
        bound = BoundStateParams.from_gtildes(gt, gt)
        f = effective_field(0.0, "n", laser, kin, bound)
        assert f[0] == pytest.approx(
            eta * 0.5 * math.sqrt(1 - eps**2) * ((gt + 1.0) - 1.0), rel=1e-14)
        assert f[1] == 0.0
        assert f[2] == pytest.approx(
            -eta**2 * 0.5 * eps * math.sqrt(1 - eps**2) * (gt - 1.0), rel=1e-14)

    def test_factor_scaling_at_pinned_modulus(self, bound):
        # with mu held fixed, the closed forms are linear in eta in x, y
        # and quadratic in z
        kin = KinematicParams(gamma_z=1.0, mu=0.3, omega_L_prime=1.0)
        t = 0.9
        f1 = effective_field(t, "n", LaserParams(eta=0.2, epsilon=0.4),
                             kin, bound)
        f2 = effective_field(t, "n", LaserParams(eta=0.4, epsilon=0.4),
                             kin, bound)
        # subtract the gamma_z pieces, which scale with the same powers
        assert f2[0] == pytest.approx(2.0 * f1[0], rel=1e-12)
        assert f2[1] == pytest.approx(2.0 * f1[1], rel=1e-12)
        assert f2[2] == pytest.approx(4.0 * f1[2], rel=1e-12)


class TestOmegaCrossCheck:
    def test_no_field_no_precession(self, bound):
        laser, kin = scenario(0.0, 0.3)
        assert np.abs(omega_first_principles(2.2, "p", laser, kin, bound)).max() \
            == 0.0

    def test_rest_snapshot_reduces_to_larmor(self, bound):
        # at t = 0 with gamma_z = 1 and eps = 0 the velocity vanishes, so
        # Omega is purely (e g / 2m) B
        from laserspin import com_velocity, field_amplitude, wave_fields
        laser, kin = scenario(0.4, 0.0)
        assert np.abs(com_velocity(0.0, laser, kin)).max() == 0.0
        amp = field_amplitude(laser, bound.M_B, bound.q_B)
        E, B = wave_fields(0.0, np.zeros(3), laser, amp)
        expected = (bound.charge_n * bound.g_n / (2 * bound.mass_n)) * B
        got = omega_first_principles(0.0, "n", laser, kin, bound)
        assert np.abs(got - expected).max() < 1e-14

    @pytest.mark.parametrize("eta,eps,gz", [
        (0.05, 0.0, 1.0),
        (0.3, 0.25, 1.0),
        (0.6, 0.45, 1.2),
    ])
    def test_matches_closed_forms_exactly(self, bound, eta, eps, gz):
        # the Thomas term completes the Larmor part into the closed-form
        # components identically, not just to O(eta^2)
        laser = LaserParams(eta=eta, epsilon=eps)
        kin = modulus_from_params(laser, gz)
        for which in ("n", "p"):
            for t in np.linspace(0.0, motion_period(kin), 60):
                closed = effective_field(float(t), which, laser, kin, bound)
                omega = omega_first_principles(float(t), which, laser, kin,
                                               bound)
                assert np.abs(closed - omega).max() < 1e-12

    def test_small_intensity_bound(self, bound):
        # the coarse bound quoted for the cross-check, max dev <= 5 eta^2 w_L
        eta = 0.05
        laser, kin = scenario(eta, 0.0)
        worst = max(
            np.abs(effective_field(float(t), "n", laser, kin, bound)
                   - omega_first_principles(float(t), "n", laser, kin, bound)).max()
            for t in np.linspace(0.0, motion_period(kin), 50))
        assert worst < 5.0 * eta**2


class TestInteractionHamiltonian:
    def test_zero_coupling(self):
        b = BoundStateParams.from_gtildes(2.0, 1.0, g_coupling=0.0)
        assert np.abs(interaction_hamiltonian(b)).max() == 0.0

    def test_spectrum(self):
        b = BoundStateParams.from_gtildes(2.0, 1.0, g_coupling=1.0)
        ev = np.sort(np.linalg.eigvalsh(interaction_hamiltonian(b)))
        assert np.allclose(ev, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_traceless(self, bound):
        assert abs(np.trace(interaction_hamiltonian(bound))) < 1e-15


class TestSpinHamiltonian:
    def test_free_case_is_zero(self):
        laser, kin = scenario(0.0, 0.0)
        b = BoundStateParams.from_gtildes(4.0, 1.0, g_coupling=0.0)
        assert np.abs(spin_hamiltonian(0.7, laser, kin, b)).max() == 0.0

    def test_hermitian_on_grid(self, bound):
        laser, kin = scenario(0.6, 0.3)
        for t in np.linspace(0.0, motion_period(kin), 40):
            H = spin_hamiltonian(float(t), laser, kin, bound)
            assert hermiticity_defect(H) < 1e-14

    def test_reassembly_from_parts(self, bound):
        laser, kin = scenario(0.5, 0.2)
        for t in (0.0, 0.9, 3.7):
            bn = effective_field(t, "n", laser, kin, bound)
            bp = effective_field(t, "p", laser, kin, bound)
            manual = interaction_hamiltonian(bound).astype(complex)
            for k in (1, 2, 3):
                manual -= 0.5 * bn[k - 1] * np.kron(PAULI[k], PAULI[0])
                manual -= 0.5 * bp[k - 1] * np.kron(PAULI[0], PAULI[k])
            assert np.abs(manual - spin_hamiltonian(t, laser, kin, bound)).max() \
                < 1e-14

    def test_equal_ratios_swap_symmetry(self):
        laser, kin = scenario(0.5, 0.2)
        b = BoundStateParams.from_gtildes(2.5, 2.5, g_coupling=0.2)
        H = spin_hamiltonian(1.3, laser, kin, b)
        assert np.abs(SWAP @ H @ SWAP - H).max() < 1e-14

    def test_swap_covariance(self, bound):
        laser, kin = scenario(0.5, 0.2)
        swapped = bound.swapped()
        for t in (0.4, 2.2):
            H = spin_hamiltonian(t, laser, kin, bound)
            H_swapped = spin_hamiltonian(t, laser, kin, swapped)
            assert np.abs(SWAP @ H @ SWAP - H_swapped).max() < 1e-14

    @pytest.mark.parametrize("both", [False, True])
    def test_takes_the_records_or_a_table_alone(self, bound, both):
        # neither form, or both
        laser, kin = scenario(0.3, 0.2)
        args = (laser, kin, bound) if both else ()
        kwargs = ({"drives": DriveTable([laser], [kin], [bound]),
                   "point": np.array(0)} if both else {})
        with pytest.raises(TypeError, match="records laser, kin and bound, "
                                            "or drives= and point="):
            spin_hamiltonian(0.7, *args, **kwargs)

    def test_batch_of_scenarios_matches_each_record_bit_for_bit(self):
        # mu = 0, moduli of different AGM depth, gamma_z != 1, a huge g
        records = [(*scenario(eta, eps, gz),
                    BoundStateParams.from_gtildes(gtn, gtp, g_coupling=g))
                   for eta, eps, gz, gtn, gtp, g in [
                       (0.0, 0.3, 1.0, 4.0, 1.0, 0.1),
                       (0.5, 0.3, 1.2, 6.0, 2.0, 0.5),
                       (0.9, 0.1, 1.0, 2.0, 1.5, 0.02),
                       (0.3, 0.0, 0.8, 3.0, 1.0, 1e300)]]
        rng = np.random.default_rng(11)
        t = rng.uniform(0.0, 20.0, 300)
        point = rng.integers(0, len(records), t.size)
        batch = spin_hamiltonian(t, drives=DriveTable(*zip(*records)),
                                 point=point)
        assert batch.shape == (300, 4, 4)
        for p, (laser, kin, b) in enumerate(records):
            mine = point == p
            assert batch[mine].tobytes() \
                == spin_hamiltonian(t[mine], laser, kin, b).tobytes()
            # a table of one scenario, at a float time (a 0-d point) and at
            # an array of times, takes the same path
            one = DriveTable([laser], [kin], [b])
            assert spin_hamiltonian(t[0], drives=one, point=np.array(0)
                                    ).tobytes() \
                == spin_hamiltonian(t[0], laser, kin, b).tobytes()
            assert spin_hamiltonian(t, drives=one, point=np.zeros_like(point)
                                    ).tobytes() \
                == spin_hamiltonian(t, laser, kin, b).tobytes()
