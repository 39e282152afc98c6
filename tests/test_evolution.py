import math

import numpy as np
import pytest
from scipy.linalg import expm

from laserspin import (BoundStateParams, DomainError, IntegratorError,
                       InvalidStateError, KinematicParams, LaserParams,
                       effective_field, euler_representation,
                       evolve_von_neumann,
                       interaction_hamiltonian,
                       interaction_picture_hamiltonian, interaction_term,
                       local_propagator, modulus_from_params, motion_period,
                       perturbative_delta_rho_werner, precession_angle,
                       product_state, propagate, psi_integral,
                       single_spin_propagator,
                       spin_hamiltonian,
                       theta_minus, time_ordered_X, validate_density_matrix,
                       werner_state, wootters_concurrence)
from laserspin.pauli import (IDENTITY4, SIGMA0, SIGMA1, SIGMA_10, SIGMA_32,
                             SIGMA_DOT_SIGMA, hermiticity_defect)

from conftest import random_density_matrix


def linear(eta, gtilde_n, gtilde_p, g):
    laser = LaserParams(eta=eta, epsilon=0.0)
    kin = modulus_from_params(laser, 1.0)
    bound = BoundStateParams.from_gtildes(gtilde_n, gtilde_p, g_coupling=g)
    return laser, kin, bound


class TestStateValidation:
    def test_accepts_valid_state(self):
        rho = validate_density_matrix(np.eye(4) / 4.0)
        assert rho.dtype == complex

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(InvalidStateError):
            validate_density_matrix(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.eye(4) / 3.9)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(InvalidStateError):
            validate_density_matrix(rho)

    @pytest.mark.parametrize("defect, message", [
        ("hermitian", "not Hermitian"),
        ("trace", "trace differs"),
        ("negative", "negative eigenvalue"),
    ])
    def test_stack_names_failing_sample(self, defect, message):
        rng = np.random.default_rng(3)
        stack = np.array([random_density_matrix(rng) for _ in range(5)])
        assert validate_density_matrix(stack).shape == (5, 4, 4)
        if defect == "hermitian":
            stack[3, 0, 1] += 0.1
        elif defect == "trace":
            stack[3] *= 1.01
        else:
            stack[3] = np.diag([0.6, 0.5, -0.05, -0.05])
        with pytest.raises(InvalidStateError, match=f"{message}.* sample 3"):
            validate_density_matrix(stack)

    def test_rejects_other_shapes(self):
        for shape in ((2, 2), (4, 4, 4, 4), (4,)):
            with pytest.raises(InvalidStateError):
                validate_density_matrix(np.zeros(shape))

    def test_hermiticity_defect_of_a_stack(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        assert isinstance(hermiticity_defect(stack[0]), float)
        assert np.array_equal(hermiticity_defect(stack),
                              [hermiticity_defect(m) for m in stack])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
class TestNonFiniteStates:
    """A NaN or inf entry is rejected before any comparison or LAPACK call,
    on its own and as sample 2 of a stack."""

    @staticmethod
    def states(bad):
        rho = werner_state(0.5)
        rho[1, 2] = bad
        stack = np.array([werner_state(0.5)] * 4)
        stack[2, 1, 2] = bad
        return rho, stack

    def test_validate_density_matrix(self, bad):
        rho, stack = self.states(bad)
        with pytest.raises(InvalidStateError, match="non-finite entry$"):
            validate_density_matrix(rho)
        with pytest.raises(InvalidStateError, match="non-finite.* sample 2"):
            validate_density_matrix(stack)

    def test_wootters_concurrence(self, bad):
        rho, stack = self.states(bad)
        with pytest.raises(InvalidStateError, match="non-finite entry$"):
            wootters_concurrence(rho)
        with pytest.raises(InvalidStateError, match="non-finite.* sample 2"):
            wootters_concurrence(stack)

    def test_evolve_von_neumann(self, bad):
        rho, stack = self.states(bad)
        H = lambda t: np.zeros((4, 4))
        with pytest.raises(InvalidStateError, match="non-finite entry$"):
            evolve_von_neumann(rho, H, [0.0, 1.0], tol=1e-9)
        with pytest.raises(InvalidStateError, match="non-finite.* sample 2"):
            evolve_von_neumann(stack, H, [0.0, 1.0], tol=1e-9)


class TestVonNeumann:
    def test_free_hamiltonian_freezes_state(self):
        rho0 = werner_state(0.6)
        out = evolve_von_neumann(rho0, lambda t: np.zeros((4, 4)),
                                 [0.0, 1.0, 5.0], tol=1e-9)
        assert out.shape == (3, 4, 4)
        for rho in out:
            assert np.abs(rho - rho0).max() < 1e-12

    def test_maximally_mixed_fixed_point(self, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        out = evolve_von_neumann(np.eye(4) / 4.0, H, [0.0, 2.0, 6.28], tol=1e-9)
        for rho in out:
            assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-12

    def test_brute_force_product_oracle(self):
        # 1e5 uniform midpoint steps with an independent matrix exponential
        laser, kin, bound = linear(0.3, 4.0, 1.0, 0.1)
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        T = 2.0 * math.pi
        n = 100_000
        h = T / n
        U = np.eye(4, dtype=complex)
        for k in range(n):
            U = expm(-1j * h * H((k + 0.5) * h)) @ U
        rho0 = werner_state(0.8)
        brute = U @ rho0 @ U.conj().T
        evolved = evolve_von_neumann(rho0, H, [0.0, T], tol=1e-9)[-1]
        assert np.abs(evolved - brute).max() < 1e-7

    def test_state_hygiene_and_spectrum(self, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        rho0 = werner_state(0.8)
        ref = np.sort(np.linalg.eigvalsh(rho0))
        grid = list(np.linspace(0.0, 4.0 * math.pi, 9))
        for rho in evolve_von_neumann(rho0, H, grid, tol=1e-9):
            assert hermiticity_defect(rho) < 1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10
            assert np.abs(np.sort(np.linalg.eigvalsh(rho)) - ref).max() < 1e-8
            assert abs(np.trace(rho @ rho).real
                       - np.trace(rho0 @ rho0).real) < 1e-8

    def test_rejects_bad_grid(self, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        with pytest.raises(DomainError):
            evolve_von_neumann(werner_state(0.5), H, [0.5, 1.0], tol=1e-9)
        with pytest.raises(DomainError):
            evolve_von_neumann(werner_state(0.5), H, [0.0, 1.0, 1.0], tol=1e-9)

    def test_rejects_bad_tolerance(self, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        with pytest.raises(DomainError):
            evolve_von_neumann(werner_state(0.5), H, [0.0, 1.0], tol=1e-3)

    def test_rejects_invalid_initial_state(self, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        with pytest.raises(InvalidStateError):
            evolve_von_neumann(np.eye(4), H, [0.0, 1.0], tol=1e-9)

    def test_step_underflow(self):
        # noise-like gigantic Hamiltonian defeats any step size
        H = lambda t: (1e8 * np.sin(1e25 * t + 0.5)[:, None, None]
                       * np.kron(SIGMA1, SIGMA0))
        with pytest.raises(IntegratorError):
            propagate(H, [0.0, 1.0], 1e-9)


class TestPropagator:
    def test_identity_at_zero(self, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        assert np.abs(propagate(H, [0.0], 1e-9)[-1] - IDENTITY4).max() == 0.0

    def test_constant_hamiltonian_spectral_oracle(self, bound):
        Hc = interaction_hamiltonian(bound) + 0.3 * np.kron(SIGMA1, SIGMA0)
        t = 2.7
        w, V = np.linalg.eigh(Hc)
        exact = (V * np.exp(-1j * t * w)) @ V.conj().T
        U = propagate(lambda s: Hc, [0.0, t], 1e-10)[-1]
        assert np.abs(U - exact).max() < 1e-10

    def test_unitarity(self, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        U = propagate(H, [0.0, 5.0], 1e-9)[-1]
        assert np.abs(U @ U.conj().T - IDENTITY4).max() < 1e-10

    def test_composition(self, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        t1, t2 = 1.7, 4.1
        U_full = propagate(H, [0.0, t2], 1e-10)[-1]
        U_a = propagate(H, [0.0, t1], 1e-10)[-1]
        U_b = propagate(lambda s: H(s + t1), [0.0, t2 - t1], 1e-10)[-1]
        assert np.abs(U_b @ U_a - U_full).max() < 1e-9

    def test_sample_steps_match_landing_runs(self):
        # the elliptic drive of the long-run benchmark workload, two periods
        laser = LaserParams(eta=0.5, epsilon=0.3)
        kin = modulus_from_params(laser, 1.0)
        bound = BoundStateParams.from_gtildes(6.0, 2.0, g_coupling=0.5)
        calls = []

        def H(t):
            calls.append(t)
            return spin_hamiltonian(t, laser, kin, bound)

        grids = []
        for n in (2, 33, 4001):
            calls.clear()
            grid = np.linspace(0.0, 4.0 * math.pi, n)
            Us = propagate(H, grid, 1e-12)
            times = np.concatenate(calls)
            # the step grid ignores the samples; each sample costs 2 times
            grids.append(times[:times.size - 2 * (n - 1)])
        assert all(np.array_equal(grids[0], g) for g in grids[1:])
        for k in (1, 1234, 2000, 3999):
            landing = propagate(H, [0.0, grid[k]], 1e-12)[-1]
            assert np.abs(Us[k] - landing).max() < 1e-10

    def test_at_most_512_increasing_times_per_call(self):
        # one call per halving round of at most 256 intervals, two times
        # each; the drive of the test above
        laser = LaserParams(eta=0.5, epsilon=0.3)
        kin = modulus_from_params(laser, 1.0)
        bound = BoundStateParams.from_gtildes(6.0, 2.0, g_coupling=0.5)
        calls = []

        def H(t):
            calls.append(t.copy())
            return spin_hamiltonian(t, laser, kin, bound)

        propagate(H, np.linspace(0.0, 4.0 * math.pi, 33), 1e-12)
        # rounds of 8, ..., 4096 steps, then the 32 sample steps
        assert [t.size for t in calls] == [16, 32, 64, 128, 256] \
            + [512] * (1 + 2 + 4 + 8 + 16) + [64]
        assert all(np.all(np.diff(t) >= 0.0) for t in calls)
        assert calls[0][0] > 0.0 and calls[-1][-1] == 4.0 * math.pi

    def test_global_error_within_tol(self):
        # the drive of the long-run benchmark workload against scipy DOP853
        from scipy.integrate import solve_ivp
        H, T, _ = counted_drive(0.5, 0.3, 6.0, 2.0, 0.5)
        times = np.linspace(0.0, 4.0 * math.pi, 33)
        rhs = lambda t, u: (-1j * H(np.array([t]))[0]
                            @ u.reshape(4, 4)).ravel()
        ref = solve_ivp(rhs, (0.0, times[-1]), IDENTITY4.ravel() + 0j,
                        method="DOP853", t_eval=times, rtol=1e-13, atol=1e-13)
        U_ref = ref.y.T.reshape(-1, 4, 4)
        for tol in (1e-6, 1e-8, 1e-10):
            for period in (None, T):
                Us = propagate(H, times, tol, period)
                assert np.abs(Us - U_ref).max() <= tol

    def test_overflowing_hamiltonian_is_a_domain_error(self):
        # [H1, H2] overflows to inf - inf; eigh would not converge on it
        H = lambda t: 1e300 * np.kron(SIGMA1, SIGMA0)
        with pytest.raises(DomainError, match=r"not finite on \[0, 0\.125\]"):
            propagate(H, [0.0, 1.0], 1e-9)

    def test_zero_step_size_is_an_underflow(self):
        # h = span / 8 is subnormal: no grid of such steps tiles the span
        with pytest.raises(IntegratorError, match=r"underflow at t = 0 "):
            propagate(lambda t: np.zeros((4, 4)), [0.0, 5e-323], 1e-9)

    def test_step_budget(self, monkeypatch, linear_scenario):
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        monkeypatch.setattr("laserspin.evolution.MAX_STEPS", 100)
        assert propagate(H, [0.0, 5.0], 1e-6).shape == (2, 4, 4)   # 32 steps
        with pytest.raises(IntegratorError,
                           match=r"100 steps on \[0, 5\] do not reach tol"):
            propagate(H, [0.0, 5.0], 1e-9)                     # 256 steps


# the sources of H and of the analytic factors, each with its drive, the
# matrix shape of one time and the largest deviation from per-float calls
_ELLIPTIC = (LaserParams(eta=0.5, epsilon=0.3),
             BoundStateParams.from_gtildes(6.0, 2.0, g_coupling=0.5))
_LINEAR = (LaserParams(eta=0.4, epsilon=0.0),
           BoundStateParams.from_gtildes(3.5, 2.0, g_coupling=0.07))
SOURCES = {
    "spin_hamiltonian": (_ELLIPTIC, spin_hamiltonian, (4, 4), 0.0),
    "effective_field_n": (_ELLIPTIC, lambda t, *d: effective_field(t, "n", *d),
                          (3,), 0.0),
    "effective_field_p": (_ELLIPTIC, lambda t, *d: effective_field(t, "p", *d),
                          (3,), 0.0),
    "interaction_picture_hamiltonian": (
        _LINEAR, interaction_picture_hamiltonian, (4, 4), 0.0),
    "interaction_term": (_LINEAR, interaction_term, (4, 4), 1e-14),
    "psi_integral": (_LINEAR, psi_integral, (), 1e-14),
    "single_spin_propagator_n": (
        _LINEAR, lambda t, *d: single_spin_propagator(t, "n", *d), (2, 2), 0.0),
    "single_spin_propagator_p": (
        _LINEAR, lambda t, *d: single_spin_propagator(t, "p", *d), (2, 2), 0.0),
    "local_propagator": (_LINEAR, local_propagator, (4, 4), 0.0),
    "euler_representation": (_LINEAR, lambda t, *d: euler_representation(
        t - 4.0), (4, 4), 0.0),
}


@pytest.mark.parametrize("name", SOURCES)
def test_time_arrays_match_per_float_calls(name):
    # exact, except psi and V: an array takes the panel count of its
    # largest |t|, a float its own
    (laser, bound), source, matrix, tol = SOURCES[name]
    kin = modulus_from_params(laser, 1.0)
    grid = np.linspace(0.0, 1.3 * motion_period(kin), 1000)
    single = np.array([source(t, laser, kin, bound) for t in grid.tolist()])
    assert single.shape == grid.shape + matrix
    for shape in ((1000,), (20, 50)):
        stack = source(grid.reshape(shape), laser, kin, bound)
        assert stack.shape == shape + matrix
        assert np.abs(stack.reshape(single.shape) - single).max() <= tol



def counted_drive(eta, eps, gtilde_n, gtilde_p, g):
    """H_S of a drive at gamma_z = 1 that records its calls, and its
    motion period."""
    laser = LaserParams(eta=eta, epsilon=eps)
    kin = modulus_from_params(laser, 1.0)
    bound = BoundStateParams.from_gtildes(gtilde_n, gtilde_p, g_coupling=g)
    calls = []

    def H(t):
        calls.append(t)
        return spin_hamiltonian(t, laser, kin, bound)
    return H, motion_period(kin), calls


class TestPeriodComposition:
    """propagate(..., period=T): U(n T + s) = U(s) U(T)^n."""

    # the onset drive of acceptance 4a, its Delta = 0 control (U(T) with a
    # degenerate triplet) and the drive of acceptance 4b and 4c
    DRIVES = [(0.5, 0.3, 6.0, 2.0, 0.5), (0.5, 0.3, 2.0, 2.0, 0.5),
              (0.3, 0.0, 4.0, 1.0, 0.1)]

    @pytest.mark.parametrize("drive", DRIVES)
    def test_five_periods_match_direct_integration(self, drive):
        H, T, _ = counted_drive(*drive)
        times = np.linspace(0.0, 10.0 * math.pi, 251)
        assert times[-1] > 4.7 * T
        composed = propagate(H, times, 1e-8, T)
        reference = propagate(H, times, 1e-12)
        assert np.abs(composed - reference).max() <= 1e-9

    def test_first_period_is_the_direct_run_bit_for_bit(self):
        H, T, _ = counted_drive(*self.DRIVES[0])
        for end in (0.6 * T, T):
            times = np.linspace(0.0, end, 17)
            assert np.array_equal(propagate(H, times, 1e-8, T),
                                  propagate(H, times, 1e-8))
        rho0 = product_state(0.0, 1.0)
        times = np.linspace(0.0, T, 9)
        assert np.array_equal(evolve_von_neumann(rho0, H, times, 1e-8, T),
                              evolve_von_neumann(rho0, H, times, 1e-8))

    def test_samples_at_and_one_ulp_off_multiples_of_the_period(self):
        H, T, _ = counted_drive(*self.DRIVES[2])
        edges = [k * T for k in range(1, 5)]
        times = np.array([0.0] + [np.nextafter(e, d) for e in edges
                                  for d in (-np.inf, e, np.inf)])
        assert np.all(np.diff(times) > 0.0)
        composed = propagate(H, times, 1e-8, T)
        reference = propagate(H, times, 1e-12)
        assert np.abs(composed - reference).max() <= 1e-9

    def test_cost_of_fifty_periods_is_near_that_of_five(self):
        H, T, calls = counted_drive(*self.DRIVES[0])
        counts = []
        for n in (5, 50):
            calls.clear()
            propagate(H, np.linspace(0.0, n * T + 0.5, 20 * n + 1), 1e-8, T)
            counts.append(len(calls))
        # direct integration grows like span^1.25, about 18 times as many
        assert counts[1] < 3 * counts[0]

    def test_powers_stay_unitary_over_many_periods(self):
        # the powers of U(T) come from products that are projected back
        # onto the unitaries; unprojected, roundoff grows with n
        H, T, _ = counted_drive(*self.DRIVES[1])
        Us = propagate(H, np.linspace(0.0, 1e5 * T + 0.3, 9), 9e-5, T)
        defect = np.abs(Us @ Us.conj().swapaxes(-1, -2) - IDENTITY4).max()
        assert defect < 1e-14

    def test_tolerance_floor_per_period(self):
        H, T, calls = counted_drive(*self.DRIVES[0])
        with pytest.raises(DomainError, match="not above 1e-14"):
            propagate(H, [0.0, 1e9], 1e-6, T)
        for period in (0.0, -T, math.nan, math.inf):
            with pytest.raises(DomainError, match="period must be positive"):
                propagate(H, [0.0, 2.0 * T], 1e-6, period)
        assert not calls


class TestPrecessionAngles:
    def test_zero_at_origin(self, linear_scenario):
        laser, kin, bound = linear_scenario
        assert precession_angle(0.0, "n", laser, kin, bound) == 0.0

    def test_requires_linear_polarization(self, bound):
        laser = LaserParams(eta=0.2, epsilon=0.1)
        kin = modulus_from_params(laser, 1.0)
        with pytest.raises(DomainError):
            precession_angle(1.0, "n", laser, kin, bound)

    def test_pinned_zero_modulus_form(self):
        # with mu pinned to 0 the field integral gives
        # 2 theta = eta (gtilde + 1 - gamma_z) sin(u)
        eta, gt = 0.01, 3.0
        laser = LaserParams(eta=eta, epsilon=0.0)
        kin = KinematicParams(gamma_z=1.0, mu=0.0, omega_L_prime=1.0)
        bound = BoundStateParams.from_gtildes(gt, gt)
        for t in (0.4, 1.9):
            assert 2.0 * precession_angle(t, "n", laser, kin, bound) \
                == pytest.approx(eta * gt * math.sin(t), abs=1e-12)

    def test_derivative_is_effective_field(self, linear_scenario):
        from laserspin import effective_field
        laser, kin, bound = linear_scenario
        h = 1e-6
        for t in (0.0, 0.8, 3.3):
            fd = (precession_angle(t + h, "n", laser, kin, bound)
                  - precession_angle(t - h, "n", laser, kin, bound)) / (2 * h)
            assert fd == pytest.approx(
                effective_field(t, "n", laser, kin, bound)[0], abs=1e-6)

    def test_derivative_at_origin_closed_form(self):
        laser, kin, bound = linear(0.5, 2.0, 2.0, 0.0)
        h = 1e-6
        fd = (precession_angle(h, "n", laser, kin, bound)
              - precession_angle(-h, "n", laser, kin, bound)) / (2 * h)
        # at u = 0: theta' = (eta w/2)[(gt+1) - gamma_z]
        assert fd == pytest.approx(0.5 * 0.5 * (3.0 - 1.0), abs=1e-6)

    def test_periodicity(self, linear_scenario):
        from laserspin import motion_period
        laser, kin, bound = linear_scenario
        T = motion_period(kin)
        for t in (0.3, 1.1):
            assert precession_angle(t + T, "n", laser, kin, bound) \
                == pytest.approx(precession_angle(t, "n", laser, kin, bound),
                                 abs=1e-12)

    @pytest.mark.parametrize("eta", [0.01, 0.03])
    def test_nonrelativistic_limit(self, eta):
        # the +1 and the arcsin term cancel at leading order, leaving
        # 2 theta = eta gtilde sin(w t) + O(eta^3)
        laser, kin, bound = linear(eta, 4.0, 1.0, 0.0)
        worst = max(
            abs(2.0 * precession_angle(t, "n", laser, kin, bound)
                - eta * 4.0 * math.sin(t))
            for t in np.linspace(0.0, 2.0 * math.pi, 50))
        assert worst < 10.0 * eta**3

    def test_theta_minus_closed_form(self, linear_scenario):
        from laserspin.elliptic import jacobi
        laser, kin, bound = linear_scenario
        for t in (0.5, 2.7):
            sn = jacobi(kin.omega_L_prime * t, kin.mu).sn
            expected = 0.5 * laser.eta * bound.Delta * sn
            assert theta_minus(t, laser, kin, bound) == pytest.approx(expected)
            assert theta_minus(t, laser, kin, bound) == pytest.approx(
                precession_angle(t, "n", laser, kin, bound)
                - precession_angle(t, "p", laser, kin, bound), abs=1e-15)

    def test_psi_accumulation(self, linear_scenario):
        laser, kin, bound = linear_scenario
        assert psi_integral(0.0, laser, kin, bound) == 0.0
        h = 1e-5
        for t in (0.7, 2.4):
            fd = (psi_integral(t + h, laser, kin, bound)
                  - psi_integral(t - h, laser, kin, bound)) / (2 * h)
            assert fd == pytest.approx(
                math.cos(theta_minus(t, laser, kin, bound)), abs=1e-8)
        # non-decreasing while |theta_minus| < pi/2 (always true here)
        psis = [psi_integral(float(t), laser, kin, bound)
                for t in np.linspace(0.0, 6.0, 25)]
        assert all(b >= a for a, b in zip(psis, psis[1:]))

    def test_psi_matches_adaptive_quadrature_at_strong_drive(self):
        from scipy.integrate import quad
        laser, kin, bound = linear(0.9, 41.0, 1.0, 0.1)   # Delta = 40
        integrand = lambda s: math.cos(theta_minus(s, laser, kin, bound))
        for t in (0.37, 2.9, 11.3):
            ref, _ = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=0.0,
                          limit=1000)
            assert psi_integral(t, laser, kin, bound) \
                == pytest.approx(ref, abs=1e-12)

    def test_psi_integral_makes_one_jacobi_call(self, monkeypatch):
        import laserspin.evolution
        exact = laserspin.evolution.jacobi
        shapes = []

        def counting(u, mu):
            shapes.append(np.shape(u))
            return exact(u, mu)

        monkeypatch.setattr(laserspin.evolution, "jacobi", counting)
        laser, kin, bound = linear(0.2, 2.0, 0.5, 0.1)   # Delta = 1.5
        psi_integral(2.0 * math.pi, laser, kin, bound)
        assert len(shapes) == 1 and len(shapes[0]) == 2

    def test_angles_on_a_grid_match_per_time_calls(self, linear_scenario):
        laser, kin, bound = linear_scenario
        t = np.linspace(-3.0, 9.0, 600).reshape(20, 30)
        for angle in (lambda s: theta_minus(s, laser, kin, bound),
                      lambda s: precession_angle(s, "n", laser, kin, bound),
                      lambda s: precession_angle(s, "p", laser, kin, bound)):
            grid = angle(t)
            assert grid.shape == t.shape
            loop = np.array([angle(s) for s in t.ravel().tolist()])
            assert np.abs(grid.ravel() - loop).max() <= 1e-15


class TestSingleSpinPropagator:
    def test_identity_at_zero(self, linear_scenario):
        laser, kin, bound = linear_scenario
        U = single_spin_propagator(0.0, "n", laser, kin, bound)
        assert np.abs(U - SIGMA0).max() == 0.0

    def test_flip_form_at_pi(self):
        # the closed form at theta = pi is the x flip i sigma_1
        U = math.cos(math.pi / 2) * SIGMA0 + 1j * math.sin(math.pi / 2) * SIGMA1
        assert np.abs(U - 1j * SIGMA1).max() < 1e-15

    def test_matches_matrix_exponential(self, linear_scenario):
        laser, kin, bound = linear_scenario
        for t in (0.6, 2.9):
            th = precession_angle(t, "p", laser, kin, bound)
            brute = expm(0.5j * th * SIGMA1)
            U = single_spin_propagator(t, "p", laser, kin, bound)
            assert np.abs(U - brute).max() < 1e-14

    def test_conjugation_reproduces_interaction_picture(self):
        laser, kin, bound = linear(0.4, 3.5, 2.0, 0.07)
        for t in (0.0, 0.7, 3.1):
            W = local_propagator(t, laser, kin, bound)
            direct = W.conj().T @ interaction_hamiltonian(bound) @ W
            closed = interaction_picture_hamiltonian(t, laser, kin, bound)
            assert np.abs(direct - closed).max() < 1e-12


class TestInteractionPicture:
    def test_equal_ratios_leave_interaction_invariant(self):
        laser, kin, bound = linear(0.4, 2.0, 2.0, 0.1)
        for t in (0.9, 4.4):
            assert np.abs(interaction_picture_hamiltonian(t, laser, kin, bound)
                          - interaction_hamiltonian(bound)).max() < 1e-15

    def test_initial_time(self, linear_scenario):
        laser, kin, bound = linear_scenario
        assert np.abs(interaction_picture_hamiltonian(0.0, laser, kin, bound)
                      - interaction_hamiltonian(bound)).max() < 1e-15

    def test_hermitian(self, linear_scenario):
        laser, kin, bound = linear_scenario
        for t in (0.4, 1.8):
            assert hermiticity_defect(
                interaction_picture_hamiltonian(t, laser, kin, bound)) < 1e-15


class TestEulerRepresentation:
    def test_identity_at_zero(self):
        assert np.abs(euler_representation(0.0) - IDENTITY4).max() == 0.0

    def test_spectrum(self):
        psi = 0.7
        ev = np.linalg.eigvals(euler_representation(psi))
        expected = sorted([np.exp(1j * psi)] * 3 + [np.exp(-3j * psi)],
                          key=lambda z: (z.real, z.imag))
        got = sorted(ev, key=lambda z: (z.real, z.imag))
        assert np.abs(np.array(got) - np.array(expected)).max() < 1e-12

    def test_against_matrix_exponential(self):
        rng = np.random.default_rng(7)
        for psi in rng.uniform(-2 * math.pi, 2 * math.pi, 25):
            brute = expm(1j * psi * SIGMA_DOT_SIGMA)
            assert np.abs(euler_representation(float(psi)) - brute).max() < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            euler_representation(float("nan"))


class TestTimeOrderedX:
    def test_identity_at_zero(self, linear_scenario):
        laser, kin, bound = linear_scenario
        assert np.abs(time_ordered_X([0.0], laser, kin, bound)[-1]
                      - IDENTITY4).max() == 0.0

    def test_equal_ratios_close_analytically(self):
        # Delta = 0: V vanishes, psi = t, X = exp(-i (g/4) t Sigma)
        g = 0.08
        laser, kin, bound = linear(0.4, 2.0, 2.0, g)
        for t in (0.9, 5.3):
            X = time_ordered_X([0.0, t], laser, kin, bound)[-1]
            assert np.abs(X - euler_representation(-0.25 * g * t)).max() < 1e-10

    def test_unitary_with_small_doubling_error(self):
        laser, kin, bound = linear(0.2, 3.0, 2.0, 0.05)
        t = 4.0
        X = time_ordered_X([0.0, t], laser, kin, bound)[-1]
        assert np.abs(X @ X.conj().T - IDENTITY4).max() < 1e-10
        # X = W^+ U, with U integrated directly from H_S
        H = lambda s: spin_hamiltonian(s, laser, kin, bound)
        U = propagate(H, [0.0, t], 1e-12)[-1]
        W = local_propagator(t, laser, kin, bound)
        assert np.abs(X - W.conj().T @ U).max() < 1e-8

    def test_euler_split_at_unequal_ratios(self):
        # X = exp(-i g/4 psi S) Y, Y the ordered exponential of V(t);
        # Delta = 1, where V carries its cos(g psi) and sin(g psi) terms
        laser, kin, bound = linear(0.2, 3.0, 2.0, 0.05)
        g = bound.g_coupling
        V = lambda s: interaction_term(s, laser, kin, bound)
        for t in (1.5, 4.0):
            Y = propagate(V, [0.0, t], 1e-12)[-1]
            psi = psi_integral(t, laser, kin, bound)
            split = euler_representation(-0.25 * g * psi) @ Y
            X = time_ordered_X([0.0, t], laser, kin, bound)[-1]
            assert np.abs(split - X).max() < 1e-8

    def test_factorization_against_direct_integration(self):
        laser, kin, bound = linear(0.2, 3.0, 2.0, 0.05)
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        for t in (1.5, 2.0 * math.pi):
            U = propagate(H, [0.0, t], 1e-9)[-1]
            WX = local_propagator(t, laser, kin, bound) @ time_ordered_X(
                [0.0, t], laser, kin, bound)[-1]
            assert np.abs(U - WX).max() < 1e-6

    def test_grid_matches_per_time_runs(self, monkeypatch):
        # one run over a 9-point period grid gives every X(t_k), at the
        # cost of the single run over [0, T]
        laser, kin, bound = linear(0.2, 2.0, 0.5, 0.08)
        calls = []
        closed_form = interaction_picture_hamiltonian

        def counted(*args):
            calls.append(args[0])
            return closed_form(*args)
        monkeypatch.setattr("laserspin.evolution.interaction_picture_hamiltonian",
                            counted)
        grid = np.linspace(0.0, 2.0 * math.pi, 9)
        Xs = time_ordered_X(grid, laser, kin, bound)
        grid_calls = len(calls)
        assert Xs.shape == (9, 4, 4)
        calls.clear()
        time_ordered_X([0.0, grid[-1]], laser, kin, bound)
        assert grid_calls == len(calls)
        for t, X in zip(grid[1:-1], Xs[1:-1]):
            single = time_ordered_X([0.0, t], laser, kin, bound)[-1]
            assert np.abs(X - single).max() < 1e-10

    def test_rejects_negative_time(self, linear_scenario):
        laser, kin, bound = linear_scenario
        with pytest.raises(DomainError):
            time_ordered_X([0.0, -1.0], laser, kin, bound)


class TestPerturbativeWernerChange:
    def test_zero_at_origin(self, linear_scenario):
        laser, _, bound = linear_scenario
        assert np.abs(perturbative_delta_rho_werner(0.0, 0.8, laser,
                                                    bound)).max() == 0.0

    def test_maximally_mixed_is_inert(self, linear_scenario):
        laser, _, bound = linear_scenario
        assert np.abs(perturbative_delta_rho_werner(3.0, 0.0, laser,
                                                    bound)).max() == 0.0

    def test_traceless_hermitian(self, linear_scenario):
        laser, _, bound = linear_scenario
        d = perturbative_delta_rho_werner(2.2, 0.7, laser, bound)
        assert abs(np.trace(d)) < 1e-15
        assert hermiticity_defect(d) < 1e-15

    def test_commutator_oracle(self):
        eta, p, delta, g, t = 0.1, 0.8, 2.0, 0.03, 5.0
        laser = LaserParams(eta=eta, epsilon=0.0)
        bound = BoundStateParams.from_gtildes(3.0, 3.0 - delta, g_coupling=g)
        thm = 0.5 * eta * delta * math.sin(t)
        v_lead = (g / 4.0) * math.sin(thm) * (
            math.cos(g * t) * SIGMA_32 - math.sin(g * t) * SIGMA_10)
        rho_w = werner_state(p)
        brute = 1j * (v_lead @ rho_w - rho_w @ v_lead)
        closed = perturbative_delta_rho_werner(t, p, laser, bound)
        assert np.abs(brute - closed).max() < 1e-12

    def test_rejects_bad_p(self, linear_scenario):
        laser, _, bound = linear_scenario
        with pytest.raises(DomainError):
            perturbative_delta_rho_werner(1.0, 1.5, laser, bound)

    def test_interaction_term_first_order_consistency(self):
        # the leading-order commutator input matches interaction_term's
        # exact form to O(theta_minus^2)
        laser, kin, bound = linear(0.05, 4.0, 1.0, 0.1)
        for t in (1.0, 4.0):
            exact = interaction_term(t, laser, kin, bound)
            thm = theta_minus(t, laser, kin, bound)
            psi = psi_integral(t, laser, kin, bound)
            lead = (bound.g_coupling / 4.0) * math.sin(thm) * (
                math.cos(bound.g_coupling * psi) * SIGMA_32
                - math.sin(bound.g_coupling * psi) * SIGMA_10)
            assert np.abs(exact - lead).max() < 0.1 * abs(thm) ** 2 + 1e-15
