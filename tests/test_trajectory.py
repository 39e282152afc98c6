import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from laserspin import (DomainError, KinematicParams, LaserParams,
                       com_acceleration, com_position, com_velocity,
                       complete_K, field_amplitude, generating_function,
                       lorentz_residual, modulus_from_params, motion_period,
                       plane_wave_invariant, vector_potential, wave_fields)

ETAS = st.floats(min_value=0.0, max_value=0.9)
EPSS = st.floats(min_value=0.0, max_value=0.7)
GAMMAS = st.floats(min_value=0.5, max_value=1.5)
TIMES = st.floats(min_value=-20.0, max_value=20.0)


def scenario(eta, eps, gamma_z=1.0, omega_L=1.0):
    laser = LaserParams(eta=eta, epsilon=eps, omega_L=omega_L)
    return laser, modulus_from_params(laser, gamma_z)


def newton_rhs(laser, mass, charge):
    amp = field_amplitude(laser, mass, charge)

    def rhs(t, y):
        x, v = y[:3], y[3:]
        E, B = wave_fields(t, x, laser, amp)
        acc = (charge / mass) * (E + np.cross(v, B))
        return np.concatenate([v, acc])

    return rhs


class TestModulus:
    def test_no_laser(self):
        assert modulus_from_params(LaserParams(eta=0.0, epsilon=0.4), 1.0).mu == 0.0

    def test_circular_polarization_limit(self):
        # 1/sqrt(2) is not exactly representable; mu lands at sqrt(eps_mach)
        kin = modulus_from_params(
            LaserParams(eta=0.9, epsilon=1.0 / math.sqrt(2.0)), 1.0)
        assert kin.mu == pytest.approx(0.0, abs=1e-7)

    def test_linear_substitution(self):
        assert modulus_from_params(LaserParams(eta=0.5, epsilon=0.0), 1.0).mu \
            == pytest.approx(0.5)

    def test_construction_identity(self):
        laser = LaserParams(eta=0.7, epsilon=0.3)
        kin = modulus_from_params(laser, 1.2)
        lhs = kin.gamma_z**2 * kin.mu**2
        assert lhs == pytest.approx((1 - 2 * 0.3**2) * 0.7**2, rel=1e-14)
        assert kin.omega_L_prime == pytest.approx(1.2 * laser.omega_L)

    def test_rejects_large_epsilon(self):
        with pytest.raises(DomainError):
            modulus_from_params(LaserParams(eta=0.5, epsilon=0.9), 1.0)

    def test_rejects_modulus_outside_domain(self):
        with pytest.raises(DomainError):
            modulus_from_params(LaserParams(eta=1.5, epsilon=0.0), 1.0)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(DomainError):
            modulus_from_params(LaserParams(eta=0.1, epsilon=0.0), -0.2)


class TestPosition:
    @given(eta=ETAS, eps=EPSS, gz=GAMMAS)
    def test_starts_at_origin(self, eta, eps, gz):
        laser = LaserParams(eta=eta, epsilon=eps)
        try:
            kin = modulus_from_params(laser, gz)
        except DomainError:
            return
        assert np.abs(com_position(0.0, laser, kin)).max() < 1e-14

    def test_free_drift(self):
        laser, kin = scenario(0.0, 0.3, gamma_z=0.8)
        for t in (0.5, 2.0, 9.1):
            r = com_position(t, laser, kin)
            assert r[0] == 0.0 and r[1] == pytest.approx(0.0, abs=1e-15)
            assert r[2] == pytest.approx(0.2 * t, rel=1e-12)

    def test_figure_eight_closure(self):
        laser, kin = scenario(0.6, 0.0)
        T = motion_period(kin)
        r = com_position(T, laser, kin)
        assert abs(r[0]) < 1e-12 and abs(r[1]) < 1e-12

    def test_longitudinal_against_ode_oracle(self):
        laser, kin = scenario(0.6, 0.0)
        bound_mass, bound_charge = 2.0, 1.0
        T = motion_period(kin)
        y0 = np.concatenate([np.zeros(3), com_velocity(0.0, laser, kin)])
        sol = solve_ivp(newton_rhs(laser, bound_mass, bound_charge),
                        (0.0, T), y0, method="RK45", rtol=1e-10, atol=1e-12,
                        dense_output=True)
        for frac in (0.25, 0.5, 1.0):
            t = frac * T
            assert np.abs(sol.sol(t)[:3] - com_position(t, laser, kin)).max() \
                < 1e-7

    def test_transverse_periodicity(self):
        laser, kin = scenario(0.8, 0.3, gamma_z=1.1)
        T = motion_period(kin)
        for t in np.linspace(0.0, T, 17):
            a = com_position(float(t), laser, kin)
            b = com_position(float(t) + T, laser, kin)
            assert abs(a[0] - b[0]) < 1e-10 and abs(a[1] - b[1]) < 1e-10

    def test_longitudinal_drift_periodicity(self):
        laser, kin = scenario(0.8, 0.3, gamma_z=1.1)
        half = 0.5 * motion_period(kin)
        K = complete_K(kin.mu)
        drift = 1.0 - kin.gamma_z * (math.pi / (2.0 * K))
        for t in np.linspace(0.0, half, 13):
            a = com_position(float(t), laser, kin)[2] - drift * float(t)
            b = com_position(float(t) + half, laser, kin)[2] \
                - drift * (float(t) + half)
            assert abs(a - b) < 1e-10

    def test_circular_limit_continuity(self):
        # eps -> 1/sqrt(2) hits the mu -> 0 series branch smoothly
        eta, gz = 0.5, 1.0
        exact = scenario(eta, 1.0 / math.sqrt(2.0), gz)
        near = scenario(eta, 1.0 / math.sqrt(2.0) - 1e-9, gz)
        for t in (0.7, 2.9):
            r_exact = com_position(t, *exact)
            r_near = com_position(t, *near)
            assert np.abs(r_exact - r_near).max() < 1e-7
        # closed-form circular orbit: R_x = -(eta eps / gz w) sin(u)
        t = 1.3
        u = exact[1].omega_L_prime * t
        assert com_position(t, *exact)[0] == pytest.approx(
            -(eta / math.sqrt(2.0)) * math.sin(u), rel=1e-9)


class TestVelocityAcceleration:
    @given(eta=ETAS, eps=EPSS, gz=GAMMAS, t=TIMES)
    # mu = 1 - 3.8e-6 and mu = 1 - 9.1e-13, near its upper end
    @example(eta=0.5, eps=2.0**-9, gz=0.5, t=13.0)
    @example(eta=0.5, eps=2.0**-20, gz=0.5, t=13.0)
    def test_velocity_matches_finite_difference(self, eta, eps, gz, t):
        laser = LaserParams(eta=eta, epsilon=eps)
        try:
            kin = modulus_from_params(laser, gz)
        except DomainError:
            return
        # balances the h^2 truncation against the position's roundoff / h
        h = 1e-4
        fd = (com_position(t + h, laser, kin)
              - com_position(t - h, laser, kin)) / (2.0 * h)
        assert np.abs(fd - com_velocity(t, laser, kin)).max() < 1e-6

    @given(eta=ETAS, eps=EPSS, t=TIMES)
    def test_acceleration_matches_finite_difference(self, eta, eps, t):
        laser = LaserParams(eta=eta, epsilon=eps)
        try:
            kin = modulus_from_params(laser, 1.0)
        except DomainError:
            return
        h = 1e-5
        fd = (com_velocity(t + h, laser, kin)
              - com_velocity(t - h, laser, kin)) / (2.0 * h)
        assert np.abs(fd - com_acceleration(t, laser, kin)).max() < 1e-5

    def test_free_drift_has_no_acceleration(self):
        laser, kin = scenario(0.0, 0.2, gamma_z=0.9)
        assert np.abs(com_acceleration(4.2, laser, kin)).max() == 0.0

    def test_transverse_velocity_averages_to_zero(self):
        laser, kin = scenario(0.7, 0.0)
        T = motion_period(kin)
        for comp in (0, 1):
            mean, _ = quad(lambda t: com_velocity(t, laser, kin)[comp],
                           0.0, T, epsabs=1e-11, limit=200)
            assert abs(mean / T) < 1e-8

    def test_subluminal_in_moderate_regime(self):
        for eta in (0.1, 0.3, 0.5):
            for eps in (0.0, 0.3, 0.6):
                laser, kin = scenario(eta, eps)
                for t in np.linspace(0.0, motion_period(kin), 200):
                    v = com_velocity(float(t), laser, kin)
                    assert math.sqrt(float(v @ v)) < 1.0


class TestLorentzResidual:
    def test_zero_field_is_exact(self, bound):
        laser, kin = scenario(0.0, 0.3)
        assert lorentz_residual(1.1, laser, kin, bound) == 0.0

    @pytest.mark.parametrize("eta,eps,gz", [
        (0.5, 0.0, 1.0),
        (0.8, 0.3, 1.2),
        (0.9, 0.6, 1.0),
    ])
    def test_residual_below_tolerance(self, bound, eta, eps, gz):
        laser = LaserParams(eta=eta, epsilon=eps)
        kin = modulus_from_params(laser, gz)
        worst = max(lorentz_residual(float(t), laser, kin, bound)
                    for t in np.linspace(0.0, motion_period(kin), 1000))
        assert worst < 1e-6

    def test_perturbed_modulus_breaks_residual(self, bound):
        laser = LaserParams(eta=0.5, epsilon=0.0)
        kin = modulus_from_params(laser, 1.0)
        broken = KinematicParams(gamma_z=1.0, mu=kin.mu * 1.001,
                                 omega_L_prime=kin.omega_L_prime)
        worst = max(lorentz_residual(float(t), laser, broken, bound)
                    for t in np.linspace(0.0, motion_period(kin), 200))
        assert worst > 1e-5

    def test_light_front_invariant_is_constant(self):
        laser, kin = scenario(0.9, 0.3, gamma_z=1.1)
        ref = plane_wave_invariant(0.0, laser, kin)
        for t in np.linspace(0.0, motion_period(kin), 300):
            assert abs(plane_wave_invariant(float(t), laser, kin) - ref) < 1e-8

    def test_relativistic_invariant_drifts_at_fourth_order(self):
        # gamma (1 - v_z) is an integral of motion only of the fully
        # relativistic dynamics; on this trajectory its drift is O(mu^4).
        for eta in (0.05, 0.1, 0.2):
            laser, kin = scenario(eta, 0.0)
            drifts = []
            for t in np.linspace(0.0, motion_period(kin), 120):
                v = com_velocity(float(t), laser, kin)
                gamma = 1.0 / math.sqrt(1.0 - float(v @ v))
                drifts.append(gamma * (1.0 - v[2]))
            assert max(drifts) - min(drifts) < 2.0 * kin.mu**4


class TestTimeGrid:
    @pytest.mark.parametrize("eta,eps,gz", [
        (0.8, 0.3, 1.2),
        (5e-5, 0.3, 1.0),      # mu < 1e-4: the series branch
    ])
    def test_grid_matches_per_time_calls(self, bound, eta, eps, gz):
        laser = LaserParams(eta=eta, epsilon=eps)
        kin = modulus_from_params(laser, gz)
        t = np.linspace(0.0, motion_period(kin), 1000)
        x = com_position(t, laser, kin)
        fields = {
            "position": lambda s: com_position(s, laser, kin),
            "velocity": lambda s: com_velocity(s, laser, kin),
            "acceleration": lambda s: com_acceleration(s, laser, kin),
            "potential": lambda s: vector_potential(s, laser, 1.3),
            "invariant": lambda s: plane_wave_invariant(s, laser, kin),
            "residual": lambda s: lorentz_residual(s, laser, kin, bound),
        }
        for name, f in fields.items():
            grid = f(t)
            loop = np.array([f(s) for s in t.tolist()])
            assert grid.shape == loop.shape == (
                (1000,) if name in ("invariant", "residual") else (1000, 3)), name
            assert np.abs(grid - loop).max() <= 1e-15, name
        E, B = wave_fields(t, x, laser, 1.3)
        loop = [wave_fields(s, xs, laser, 1.3) for s, xs in zip(t.tolist(), x)]
        assert E.shape == B.shape == (1000, 3)
        assert np.abs(E - np.array([e for e, _ in loop])).max() <= 1e-15
        assert np.abs(B - np.array([b for _, b in loop])).max() <= 1e-15


class TestWaveFields:
    def test_linear_x_polarization(self):
        laser = LaserParams(eta=0.4, epsilon=1.0)
        for xi in (0.0, 0.9, 4.4):
            assert vector_potential(xi, laser, 1.0)[1] == 0.0
            E, B = wave_fields(xi, np.zeros(3), laser, 1.0)
            assert E[1] == 0.0 and B[0] == 0.0

    @given(eps=st.floats(min_value=0.0, max_value=1.0),
           t=TIMES, z=st.floats(min_value=-5.0, max_value=5.0))
    def test_plane_wave_structure(self, eps, t, z):
        laser = LaserParams(eta=0.4, epsilon=eps)
        x = np.array([0.3, -1.0, z])
        E, B = wave_fields(t, x, laser, 1.7)
        assert E[2] == 0.0 and B[2] == 0.0
        assert np.linalg.norm(E) == pytest.approx(np.linalg.norm(B), rel=1e-14)
        assert np.abs(np.cross(np.array([0.0, 0.0, 1.0]), E) - B).max() < 1e-14
        # fields depend on (t, x) only through xi = t - z
        E2, B2 = wave_fields(t + 2.5, x + np.array([9.0, -3.0, 2.5]), laser, 1.7)
        assert np.abs(E - E2).max() < 1e-12 and np.abs(B - B2).max() < 1e-12

    def test_electric_component_amplitude(self):
        laser = LaserParams(eta=0.4, epsilon=0.25, omega_L=2.0)
        a = 1.3
        xi = 0.7
        E, _ = wave_fields(xi, np.zeros(3), laser, a)
        assert E[0] == pytest.approx(
            a * laser.omega_L * 0.25 * math.sin(laser.omega_L * xi), rel=1e-14)

    def test_circular_polarization_constant_magnitude(self):
        laser = LaserParams(eta=0.4, epsilon=1.0 / math.sqrt(2.0))
        mags = [np.linalg.norm(vector_potential(xi, laser, 1.0))
                for xi in np.linspace(0.0, 7.0, 50)]
        assert max(mags) - min(mags) < 1e-14


class TestGeneratingFunction:
    def test_zero_interval(self):
        laser = LaserParams(eta=0.5, epsilon=0.3)
        assert generating_function(0.0, np.zeros(2), 0.1, laser, 1.0, 1.0) == 0.0

    def test_zero_field(self):
        laser = LaserParams(eta=0.0, epsilon=0.3)
        val = generating_function(2.0, np.zeros(2), 0.3, laser, 1.0, 1.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_partial_derivative_matches_integrand(self):
        laser = LaserParams(eta=0.5, epsilon=0.3)
        Pi = np.array([0.05, -0.02])
        m, q, Piz = 1.0, 1.0, 0.1
        h = 1e-6
        for xi in (0.4, 1.7):
            fd = (generating_function(xi + h, Pi, Piz, laser, m, q)
                  - generating_function(xi - h, Pi, Piz, laser, m, q)) / (2 * h)
            a = field_amplitude(laser, m, q)
            A = vector_potential(xi, laser, a)
            W = -q**2 * (A[0]**2 + A[1]**2) + 2 * q * (A[0]*Pi[0] + A[1]*Pi[1])
            expected = -(m - Piz) + math.sqrt((m - Piz)**2 + W)
            assert fd == pytest.approx(expected, abs=1e-6)

    def test_rejects_degenerate_longitudinal_momentum(self):
        laser = LaserParams(eta=0.5, epsilon=0.3)
        with pytest.raises(DomainError):
            generating_function(1.0, np.zeros(2), 1.0, laser, 1.0, 1.0)

    def test_rejects_non_real_integrand(self):
        laser = LaserParams(eta=0.5, epsilon=0.0)
        # enormous amplitude drives W below -(m - Pi_z)^2
        with pytest.raises(DomainError):
            generating_function(3.0, np.zeros(2), 0.9, laser, 1.0, 1.0,
                                amplitude=50.0)
