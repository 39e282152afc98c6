import math

import numpy as np
import pytest
from scipy.linalg import expm

from laserspin import (BoundStateParams, DomainError, DriveTable,
                       IntegratorError, InvalidStateError, KinematicParams, LaserParams,
                       concurrence_product_analytic,
                       effective_field, euler_representation,
                       evolve_von_neumann,
                       interaction_hamiltonian,
                       interaction_picture_hamiltonian, interaction_term,
                       local_propagator, modulus_from_params, motion_period,
                       perturbative_delta_rho_werner, precession_angle,
                       product_state, propagate, psi_integral, q_factor,
                       single_spin_propagator,
                       spin_hamiltonian,
                       theta_minus, validate_density_matrix,
                       werner_state, wootters_concurrence)
from laserspin import evolution, validate
from laserspin.evolution import (_polar_step, _prefix_product, expm_hermitian,
                                propagate_batch)
from laserspin.pauli import (IDENTITY4, PAIR, SIGMA0, SIGMA1, SIGMA_10,
                             SIGMA_32, SIGMA_DOT_SIGMA, hermiticity_defect)

from conftest import random_density_matrix


def linear(eta, gtilde_n, gtilde_p, g):
    laser = LaserParams(eta=eta, epsilon=0.0)
    kin = modulus_from_params(laser, 1.0)
    bound = BoundStateParams.from_gtildes(gtilde_n, gtilde_p, g_coupling=g)
    return laser, kin, bound


def time_ordered_X(t_grid, laser, kin, bound):
    """X of U = W X on a time grid: dX/dt = -i H'_I X, X(0) = 1, integrated
    with the closed-form H'_I in one propagate run at tol 1e-12, the tol of
    the factorization oracle's X batch."""
    H = lambda s: validate.interaction_picture_hamiltonian(s, laser, kin,
                                                           bound)
    return propagate(H, t_grid, 1e-12)


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

    def test_rejects_a_stack_of_initial_states(self, linear_scenario):
        # each state of the stack is valid, but rho0 is one state
        laser, kin, bound = linear_scenario
        H = lambda t: spin_hamiltonian(t, laser, kin, bound)
        with pytest.raises(InvalidStateError,
                           match=r"one 4x4 matrix, got \(2, 4, 4\)$"):
            evolve_von_neumann(np.array([werner_state(0.5)] * 2), H,
                               [0.0, 1.0], tol=1e-9)

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

        step_grid = None
        # spacings 4 pi / 3, 4 pi / 33 and 4 pi / 4000 miss nodes of every
        # grid of 2^j steps, so each run takes tail steps and the fourth-
        # order test sets its grid (tail-free grids: TestTailFreeGrids)
        for n in (4, 34, 4001):
            calls.clear()
            grid = np.linspace(0.0, 4.0 * math.pi, n)
            Us = propagate(H, grid, 1e-12)
            times = np.concatenate(calls)
            # the step grid ignores the samples; a sample costs at most 2
            # times, and the end of the span, a grid node, none
            if step_grid is None:
                step_grid = times[:-4]      # the steps of its 2 inner samples
            assert np.array_equal(times[:step_grid.size], step_grid)
            assert times.size - step_grid.size <= 2 * (n - 2)
        for k in (1, 1234, 2000, 3999):
            landing = propagate(H, [0.0, grid[k]], 1e-12)[-1]
            assert np.abs(Us[k] - landing).max() < 1e-10

    def test_at_most_512_times_per_call(self):
        # one call per halving round of at most 256 intervals, two times
        # each; the drive of the test above
        laser = LaserParams(eta=0.5, epsilon=0.3)
        kin = modulus_from_params(laser, 1.0)
        bound = BoundStateParams.from_gtildes(6.0, 2.0, g_coupling=0.5)
        calls = []

        def H(t):
            calls.append(t.copy())
            return spin_hamiltonian(t, laser, kin, bound)

        propagate(H, np.linspace(0.0, 4.0 * math.pi, 34), 1e-12)
        # rounds of 8, ..., 4096 steps, then the steps of the 32 samples
        # that miss the nodes of the 4096-step grid
        assert [t.size for t in calls] == [16, 32, 64, 128, 256] \
            + [512] * (1 + 2 + 4 + 8 + 16) + [64]
        assert calls[0][0] > 0.0 and calls[-1][-1] < 4.0 * math.pi

    def test_samples_on_grid_nodes_cost_no_h_times(self):
        # a sample on a node of the finest grid takes U there; span 8 keeps
        # every node k h exact, and the sample 8/3, which misses every
        # node, keeps both runs on the fourth-order test's grid
        laser = LaserParams(eta=0.5, epsilon=0.3)
        kin = modulus_from_params(laser, 1.0)
        bound = BoundStateParams.from_gtildes(6.0, 2.0, g_coupling=0.5)
        calls = []

        def H(t):
            calls.append(t)
            return spin_hamiltonian(t, laser, kin, bound)

        off = 8.0 / 3.0
        end = propagate(H, [0.0, off, 8.0], 1e-8)[-1]
        sizes = [np.size(t) for t in calls]
        # the first node of the finest grid, 8 / n (1/2 - sqrt(3)/6)
        n = round(8.0 * (0.5 - math.sqrt(3.0) / 6.0)
                  / min(t.min() for t in calls))
        # rounds of 8, 16, ..., n steps ask 2 times a step, and the sample
        # off the nodes 2 more
        assert n >= 64 and sum(sizes) == 4 * n - 16 + 2
        calls.clear()
        Us = propagate(H, np.union1d(8.0 * np.arange(n + 1) / n, [off]),
                       1e-8)
        assert [np.size(t) for t in calls] == sizes
        assert np.array_equal(Us[-1], end)

    # the drives of the long_elliptic and dense_trace benchmark workloads,
    # a Delta = 0 drive and the U drive of the factorization oracle, each
    # with its span and the H times its direct and its composed tol-1e-8
    # runs may take; the factorization span is shorter than T and its 33
    # samples lie on the nodes of the 32-step grid, so its run with the
    # period is the direct one
    @pytest.mark.parametrize("drive, span, h_budgets", [
        pytest.param((0.5, 0.3, 6.0, 2.0, 0.5), 4.0 * math.pi, (2040, 560),
                     id="long_elliptic"),
        pytest.param((0.1, 0.2, 4.0, 1.0, 0.1), 4.0 * math.pi, (504, 176),
                     id="dense_trace"),
        pytest.param((0.5, 0.3, 2.0, 2.0, 0.5), 4.0 * math.pi, (1016, 304),
                     id="delta0"),
        pytest.param((0.2, 0.0, 2.0, 0.5, 0.08), 2.0 * math.pi, (248, 248),
                     id="factorization")])
    def test_global_error_within_tol(self, drive, span, h_budgets):
        # against scipy DOP853; the halving test accepts the first grid
        # whose Richardson error estimate, the change / 15, is tol / 2,
        # and the H-time budgets pin that grid and, for a composed run,
        # the grid of the quarter period it integrates
        from scipy.integrate import solve_ivp
        H, T, calls = counted_drive(*drive)
        times = np.linspace(0.0, span, 33)
        rhs = lambda t, u: (-1j * H(np.array([t]))[0]
                            @ u.reshape(4, 4)).ravel()
        ref = solve_ivp(rhs, (0.0, times[-1]), IDENTITY4.ravel() + 0j,
                        method="DOP853", t_eval=times, rtol=1e-13, atol=1e-13)
        U_ref = ref.y.T.reshape(-1, 4, 4)
        for tol in (1e-6, 1e-8, 1e-10):
            for period, h_budget in zip((None, T), h_budgets):
                calls.clear()
                Us = propagate(H, times, tol, period)
                assert np.abs(Us - U_ref).max() <= tol
                if tol == 1e-8:
                    assert sum(np.size(t) for t in calls) <= h_budget
                    if period is not None and span > T:
                        assert max(t.max() for t in calls) <= 0.25 * T

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
        assert propagate(H, [0.0, 5.0], 1e-6).shape == (2, 4, 4)   # 16 steps
        # the sample 1 misses every node, so the fourth-order test sets the
        # grid; [0, 5] alone passes the sixth-order test at 32 steps
        with pytest.raises(IntegratorError,
                           match=r"100 steps on \[0, 5\] do not reach tol"):
            propagate(H, [0.0, 1.0, 5.0], 1e-9)                # 128 steps


def random_unitaries(rng, n):
    """n step propagators exp(-i H) of random Hermitian H, a stack."""
    A = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return expm_hermitian(0.5 * (A + A.conj().swapaxes(-1, -2)))


class TestTailFreeGrids:
    """A point whose samples all lie on the coarse nodes of a round takes no
    tail step, so E_n = polar(U_n + (U_n - U_{n/2}) / 15), sixth order, is
    accepted there when it moves by at most max(31.5 tol, 4e-15 n) from
    E_{n/2} at the samples."""

    # the four drives of test_global_error_within_tol, each with its span
    # and, per grid, the H times of its direct and its composed runs summed
    # over tol 1e-6, 1e-8, 1e-10 and 1e-12; the grids are 9 samples over
    # the span, 9 over T and the strobes 0, T, ..., 8 T
    DRIVES = [
        pytest.param((0.5, 0.3, 6.0, 2.0, 0.5), 4.0 * math.pi,
                     {"span": (3776, 5760), "period": (1856, 1856),
                      "strobes": (30656, 960)}, id="long_elliptic"),
        pytest.param((0.1, 0.2, 4.0, 1.0, 0.1), 4.0 * math.pi,
                     {"span": (1856, 1728), "period": (960, 960),
                      "strobes": (7616, 512)}, id="dense_trace"),
        pytest.param((0.5, 0.3, 2.0, 2.0, 0.5), 4.0 * math.pi,
                     {"span": (3776, 2880), "period": (1728, 1728),
                      "strobes": (15296, 512)}, id="delta0"),
        pytest.param((0.2, 0.0, 2.0, 0.5, 0.08), 2.0 * math.pi,
                     {"span": (960, 960), "period": (960, 960),
                      "strobes": (7616, 512)}, id="factorization")]

    @staticmethod
    def errors_and_h_times(drive, span):
        """The worst error / tol against DOP853 over every grid, tol and
        period, and the H times of each grid as pinned in DRIVES."""
        from scipy.integrate import solve_ivp
        H, T, calls = counted_drive(*drive)
        grids = {"span": np.linspace(0.0, span, 9),
                 "period": np.linspace(0.0, T, 9),
                 "strobes": np.arange(9) * T}
        times = np.union1d(grids["span"], grids["period"])
        rhs = lambda t, u: (-1j * H(np.array([t]))[0]
                            @ u.reshape(4, 4)).ravel()
        ref = solve_ivp(rhs, (0.0, times[-1]), IDENTITY4.ravel() + 0j,
                        method="DOP853", t_eval=times, rtol=1e-13, atol=1e-13)
        U_ref = dict(zip(times.tolist(), ref.y.T.reshape(-1, 4, 4)))
        refs = {name: np.array([U_ref[t] for t in grids[name].tolist()])
                for name in ("span", "period")}
        refs["strobes"] = np.array([np.linalg.matrix_power(U_ref[T], m)
                                    for m in range(9)])
        worst, h_times = 0.0, {}
        for name, grid in grids.items():
            h_times[name] = []
            for period in (None, T):
                calls.clear()
                for tol in (1e-6, 1e-8, 1e-10, 1e-12):
                    Us = propagate(H, grid, tol, period)
                    worst = max(worst, np.abs(Us - refs[name]).max() / tol)
                h_times[name].append(sum(np.size(t) for t in calls))
            h_times[name] = tuple(h_times[name])
        return worst, h_times

    @pytest.mark.parametrize("drive, span, h_budgets", DRIVES)
    def test_error_within_tol_at_the_pinned_h_times(self, drive, span,
                                                    h_budgets):
        # measured worst: 0.39 tol, on the long_elliptic span at 1e-12
        worst, h_times = self.errors_and_h_times(drive, span)
        assert worst <= 1.0
        assert h_times == h_budgets

    def test_e_without_the_richardson_denominator_fails(self, monkeypatch):
        # E = 2 U_n - U_{n/2} moves by about 14 times the plain change on
        # halving, so it never passes before the fourth-order test does:
        # every tail-free run takes that test's grid again, at the cost of
        # the parent's plain path (and 1.26 tol on the 8-period direct
        # strobes at 1e-12, where roundoff sets that grid)
        monkeypatch.setattr(evolution, "_RICHARDSON", 1.0)
        drive, span, h_budgets = self.DRIVES[0].values
        _, h_times = self.errors_and_h_times(drive, span)
        for name in ("span", "period", "strobes"):
            assert h_times[name][0] > h_budgets[name][0]

    def test_a_held_point_carries_its_e(self, monkeypatch):
        # two tail-free points on the factorization oracle's drive pass the
        # sixth-order test at 32 steps; under a budget of 40 nodes the
        # second is held back at the top of that round, starts again from
        # 16 steps and tests E_32 against the E_16 it carried, as its own
        # run does, at the cost of the 16-step grid's H times once more
        monkeypatch.setattr(evolution, "BATCH_MATRICES", 40)
        records = [linear(0.2, 2.0, 0.5, g) for g in (0.08, 0.02)]
        drives = DriveTable(*zip(*records))
        grid = np.linspace(0.0, 2.0 * math.pi, 9)
        batch_calls, alone_calls = [], []

        def H(t, point):
            batch_calls.append(t.size)
            return spin_hamiltonian(t, drives=drives, point=point)
        batch = propagate_batch(H, [grid] * 2, [1e-8] * 2)
        for rec, Us in zip(records, batch):
            def H_alone(t):
                alone_calls.append(t.size)
                return spin_hamiltonian(t, *rec)
            assert np.array_equal(Us, propagate(H_alone, grid, 1e-8))
        assert sum(alone_calls) == 2 * 2 * (8 + 16 + 32)
        assert sum(batch_calls) == sum(alone_calls) + 2 * 16

    def test_e_is_unitary_to_roundoff_at_a_loose_tol(self):
        # before its projection E is off unitarity by about
        # |U_n - U_{n/2}|^2 / 15: on 8 periods of the Delta = 0 drive at
        # tol 9e-5 one Newton step left 1.1e-10, above the 1e-12 to which
        # simulate checks the trace of each sample; two leave roundoff
        H, T, _ = counted_drive(0.5, 0.3, 2.0, 2.0, 0.5)
        for grid in (np.arange(9) * T, np.linspace(0.0, 40.0, 3)):
            Us = propagate(H, grid, 9e-5)
            defect = Us @ Us.conj().swapaxes(-1, -2) - IDENTITY4
            assert np.abs(defect).max() <= 1e-14

    def test_points_with_tail_steps_form_no_e(self, monkeypatch):
        # E is projected as one stack of the samples; no node stack of a
        # round has 5 matrices
        exact, stacks = evolution._project, []

        def spy(stack):
            stacks.append(stack.shape[0])
            return exact(stack)

        monkeypatch.setattr(evolution, "_project", spy)
        H, T, _ = counted_drive(0.5, 0.3, 6.0, 2.0, 0.5)
        propagate(H, [0.0, 1.0, 2.5, 3.0, 5.0], 1e-9)
        assert 5 not in stacks
        propagate(H, np.linspace(0.0, 5.0, 5), 1e-9)
        assert 5 in stacks


class TestStepProducts:
    def test_polar_step_projects_a_stack_matrix_by_matrix(self):
        rng = np.random.default_rng(5)
        near = random_unitaries(rng, 5) + 1e-8 * rng.normal(size=(5, 4, 4))
        stack = _polar_step(near)
        assert stack.shape == (5, 4, 4)
        single = np.array([_polar_step(U) for U in near])
        assert np.abs(stack - single).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 8, 512, 4096])
    def test_prefix_product_matches_the_sequential_chain(self, n):
        steps = random_unitaries(np.random.default_rng(n), n)
        chain = np.empty_like(steps)
        chain[0] = steps[0]
        for j in range(1, n):
            chain[j] = _polar_step(steps[j] @ chain[j - 1])
        # scanned in place in a view of a larger stack, as the propagator
        # scans the nodes after U(0)
        stack = np.zeros((n + 1, 4, 4), dtype=complex)
        stack[1:] = steps
        P = _prefix_product(stack[1:])
        assert P.base is stack and not stack[0].any()
        assert np.abs(stack[1:] - chain).max() <= 1e-13
        projected = _polar_step(P)
        defect = projected @ projected.conj().swapaxes(-1, -2) - IDENTITY4
        assert np.abs(defect).max() <= 1e-14


class TestBatch:
    """propagate_batch runs several points at once: each halving round and
    the tail steps make one H call per 512 times for the whole batch, and
    every point keeps the grid, H times and bits of its own propagate."""

    # (eta, eps, gtilde_n, gtilde_p, g, laser periods, samples, tol): a
    # mu = 0 point, moduli of 4 to 7 AGM levels, runs composed from a
    # quarter of the motion period, within it (21 samples over 0.7 laser
    # periods) and beyond it, and a tail-free direct run within it
    POINTS = [(0.0, 0.3, 4.0, 1.0, 0.1, 3.0, 13, 1e-7),
              (0.5, 0.3, 6.0, 2.0, 0.5, 0.7, 21, 1e-6),
              (0.05, 0.0, 4.0, 1.0, 0.1, 1.02, 9, 1e-8),
              (0.3, 0.0, 4.0, 1.0, 0.1, 1.02, 9, 1e-8),
              (0.9, 0.1, 2.0, 1.5, 0.02, 5.0, 33, 1e-6),
              (0.1, 0.0, 4.0, 1.0, 0.1, 0.0, 1, 1e-6)]

    @staticmethod
    def drives(points):
        records, grids, tols, periods = [], [], [], []
        for eta, eps, gtn, gtp, g, laser_periods, samples, tol in points:
            laser = LaserParams(eta=eta, epsilon=eps)
            kin = modulus_from_params(laser, 1.0)
            records.append((laser, kin,
                            BoundStateParams.from_gtildes(gtn, gtp, g)))
            grids.append(np.linspace(0.0, 2.0 * math.pi * laser_periods,
                                     samples))
            tols.append(tol)
            periods.append(motion_period(kin))
        return records, grids, tols, periods

    def test_points_keep_their_bits_and_h_times(self):
        records, grids, tols, periods = self.drives(self.POINTS)
        assert [grid[-1] > T for grid, T in zip(grids, periods)] \
            == [True, False, True, False, True, False]
        batch_calls = []

        drives = DriveTable(*zip(*records))

        def H(t, point):
            batch_calls.append(t.size)
            return spin_hamiltonian(t, drives=drives, point=point)
        batch = propagate_batch(H, grids, tols, periods)

        alone_calls = []
        for rec, grid, tol, T, Us in zip(records, grids, tols, periods,
                                         batch):
            def H_alone(t):
                alone_calls.append(t.size)
                return spin_hamiltonian(t, *rec)
            assert np.array_equal(Us, propagate(H_alone, grid, tol, T))
        assert sum(batch_calls) == sum(alone_calls)
        assert max(batch_calls) <= 512
        assert len(batch_calls) < len(alone_calls)

    def test_rounds_hold_at_most_batch_matrices(self, monkeypatch):
        # under a budget of 60 nodes the points beyond it are held back and
        # start again from the last grid they computed, with the bits of
        # their own runs
        records, grids, tols, periods = self.drives(self.POINTS)
        drives = DriveTable(*zip(*records))
        H = lambda t, point: spin_hamiltonian(t, drives=drives, point=point)
        exact, rounds = evolution._magnus4, []

        def spy(H_of_t, starts, lengths, point, sink):
            # the nodes of a round: its intervals and one more per point
            rounds.append((np.unique(point).size, point.size
                           + np.unique(point).size))
            return exact(H_of_t, starts, lengths, point, sink)

        monkeypatch.setattr(evolution, "_magnus4", spy)
        propagate_batch(H, grids, tols, periods)
        assert max(nodes for points, nodes in rounds[:-1] if points > 1) > 60
        rounds.clear()
        monkeypatch.setattr(evolution, "BATCH_MATRICES", 60)
        batch = propagate_batch(H, grids, tols, periods)
        # the last call is the tail steps, not a round
        assert all(points == 1 or nodes <= 60
                   for points, nodes in rounds[:-1])
        assert any(points > 1 for points, nodes in rounds[:-1])
        for rec, grid, tol, T, Us in zip(records, grids, tols, periods,
                                         batch):
            assert np.array_equal(
                Us, propagate(lambda t: spin_hamiltonian(t, *rec), grid, tol,
                              T))

    def test_a_failed_point_leaves_the_others_running(self, monkeypatch):
        # a tol outside the bounds, an H that overflows, a grid that needs
        # more steps than allowed, beside two good points
        monkeypatch.setattr("laserspin.evolution.MAX_STEPS", 64)
        records, grids, tols, periods = self.drives(
            [self.POINTS[2], self.POINTS[2], (0.1, 0.0, 4.0, 1.0, 1e300,
                                              1.0, 5, 1e-6),
             (0.1, 0.0, 4.0, 1.0, 60.0, 0.9, 5, 1e-6),
             (0.3, 0.0, 4.0, 1.0, 0.1, 1.02, 9, 1e-6)])
        tols[1] = 1.0
        drives = DriveTable(*zip(*records))
        batch = propagate_batch(
            lambda t, point: spin_hamiltonian(t, drives=drives, point=point),
            grids, tols, periods)
        for rec, grid, tol, T, result in zip(records, grids, tols, periods,
                                             batch):
            H = lambda t: spin_hamiltonian(t, *rec)
            if isinstance(result, Exception):
                with pytest.raises(type(result)) as alone:
                    propagate(H, grid, tol, T)
                assert str(alone.value) == str(result)
            else:
                assert np.array_equal(result, propagate(H, grid, tol, T))
        assert [type(r).__name__ for r in batch] == [
            "ndarray", "DomainError", "DomainError", "IntegratorError",
            "ndarray"]

    def test_a_point_whose_tail_steps_fail_fails_alone(self):
        # point 1's H is NaN below t = 2e-3, which only the tail step of its
        # sample 1e-3 asks for: the rounds pass at h >= 1/16, whose first
        # Gauss-Legendre node lies at 0.013
        records, _, _, _ = self.drives(self.POINTS[1:4])
        grid = [0.0, 1e-3, 0.5, 1.0]
        drives = DriveTable(*zip(*records))

        def H(t, point, poisoned=(1,)):
            out = spin_hamiltonian(t, drives=drives, point=point)
            out[np.isin(point, poisoned) & (t < 2e-3)] = np.nan
            return out
        batch = propagate_batch(H, [grid] * 3, [1e-6] * 3)
        assert isinstance(batch[1], DomainError)
        assert str(batch[1]) == "Magnus exponent is not finite on [0, 0.001]"
        clean = propagate_batch(lambda t, point: H(t, point, ()),
                                [grid] * 3, [1e-6] * 3)
        for p in (0, 2):
            assert np.array_equal(batch[p], clean[p])
            assert np.array_equal(batch[p], propagate(
                lambda t: spin_hamiltonian(t, *records[p]), grid, 1e-6))


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
    "q_factor": (_ELLIPTIC, lambda t, laser, kin, bound: q_factor(
        t, laser.omega_L, bound.g_coupling), (), 0.0),
    # w_L = 4g, the Taylor branch of the resonant term
    "q_factor_resonant": (_ELLIPTIC, lambda t, laser, kin, bound: q_factor(
        t, 4.0 * bound.g_coupling, bound.g_coupling), (), 0.0),
    "concurrence_product_analytic": (
        _ELLIPTIC, lambda t, laser, kin, bound: concurrence_product_analytic(
            t, 0.3, 0.9, laser.eta, bound.g_coupling, bound.Delta,
            laser.omega_L), (), 0.0),
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



def counted_drive(eta, eps, gtilde_n, gtilde_p, g, gamma_z=1.0):
    """H_S of a drive that records its calls, and its motion period."""
    laser = LaserParams(eta=eta, epsilon=eps)
    kin = modulus_from_params(laser, gamma_z)
    bound = BoundStateParams.from_gtildes(gtilde_n, gtilde_p, g_coupling=g)
    calls = []

    def H(t):
        calls.append(t)
        return spin_hamiltonian(t, laser, kin, bound)
    return H, motion_period(kin), calls


class TestPeriodComposition:
    """propagate(..., period=T): U(m T + r) = V(r) U(T)^m from one run over
    [0, T/4], with m the nearest multiple, V(a) = U(a) up to a = T/4 and
    P U(T/2 - a)* C beyond, C = B^T P B with B = U(T/4) and P = s3 (x) s3,
    and V(r) = V(|r|) conjugated when r < 0."""

    # the onset drive of acceptance 4a, its Delta = 0 control (U(T) with a
    # degenerate triplet) and the drive of acceptance 4b and 4c
    DRIVES = [(0.5, 0.3, 6.0, 2.0, 0.5), (0.5, 0.3, 2.0, 2.0, 0.5),
              (0.3, 0.0, 4.0, 1.0, 0.1)]

    @pytest.mark.parametrize("drive", DRIVES)
    def test_five_periods_match_direct_integration(self, drive):
        H, T, _ = counted_drive(*drive)
        times = np.linspace(0.0, 10.0 * math.pi, 251)
        assert times[-1] > 4.7 * T
        composed = propagate(H, times, 1e-9, T)
        reference = propagate(H, times, 1e-12)
        assert np.abs(composed - reference).max() <= 1e-9

    def test_a_source_without_the_half_wave_shift_is_composed_wrong(self):
        # H_S + 0.1 s1 (x) 1 is periodic and time-reversal symmetric, but
        # P s1 (x) 1 P = -s1 (x) 1, so the quarter run does not give the
        # second quarter: period asserts the shift, and a wrong P shows
        H, T, _ = counted_drive(*self.DRIVES[0])
        skewed = lambda t: H(t) + 0.1 * PAIR[1, 0]
        times = np.linspace(0.0, 10.0 * math.pi, 251)
        assert np.abs(skewed(-times) - skewed(times).conj()).max() <= 1e-14
        gap = lambda source: np.abs(propagate(source, times, 1e-9, T)
                                    - propagate(source, times, 1e-12)).max()
        assert gap(H) <= 1e-9
        assert gap(skewed) > 1e-3

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

    # k T closes a period, and (k + 1/2) T is where the nearest multiple
    # of T, and so the sign of the offset, changes
    @pytest.mark.parametrize("shift", [pytest.param(0.0, id="whole"),
                                       pytest.param(0.5, id="half")])
    def test_samples_at_and_one_ulp_off_multiples_of_the_period(self, shift):
        H, T, _ = counted_drive(*self.DRIVES[2])
        edges = [(k + shift) * T for k in range(1, 5)]
        times = np.array([0.0] + [np.nextafter(e, d) for e in edges
                                  for d in (-np.inf, e, np.inf)])
        assert np.all(np.diff(times) > 0.0)
        composed = propagate(H, times, 1e-9, T)
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

    def test_powers_at_many_period_counts(self):
        # every bit of n up to 2^10 must reach the power; one run composes
        # all the period counts at once
        H, T, _ = counted_drive(*self.DRIVES[0])
        s = 0.37 * T
        counts = [1, 2, 3, 7, 8, 9, 100, 1000, 1023, 1024]
        times = np.array([0.0, s, T] + [n * T + s for n in counts])
        Us = propagate(H, times, 1e-8, T)
        for n, U in zip(counts, Us[3:]):
            assert np.abs(U - Us[1] @ np.linalg.matrix_power(Us[2], n)).max() \
                <= 1e-11

    def test_powers_stay_unitary_over_many_periods(self):
        # the powers of U(T) come from products that are projected back
        # onto the unitaries; unprojected, roundoff grows with n
        H, T, _ = counted_drive(*self.DRIVES[1])
        Us = propagate(H, np.linspace(0.0, 1e5 * T + 0.3, 9), 9e-5, T)
        defect = np.abs(Us @ Us.conj().swapaxes(-1, -2) - IDENTITY4).max()
        assert defect < 1e-14

    def test_tolerance_floor_per_period(self):
        # the floor 1e-14 bounds the half-period budget tol T / (2 t_end),
        # so it admits at most tol / 2e-14 = 5e7 periods at tol 1e-6
        H, T, calls = counted_drive(*self.DRIVES[0])
        for end in (1e9, 5e7 * (1.0 + 1e-6) * T):
            with pytest.raises(DomainError, match="not above 1e-14"):
                propagate(H, [0.0, end], 1e-6, T)
        for period in (0.0, -T, math.nan, math.inf):
            with pytest.raises(DomainError, match="period must be positive"):
                propagate(H, [0.0, 2.0 * T], 1e-6, period)
        assert not calls
        Us = propagate(H, [0.0, 5e7 * (1.0 - 1e-6) * T], 1e-6, T)
        assert np.abs(Us[-1] @ Us[-1].conj().T - IDENTITY4).max() < 1e-14


class TestComposedWithinOnePeriod:
    """A run given a period whose span exceeds a quarter of it is composed
    from [0, T/4] at the one-period budget tol / 4, within one period too,
    unless it stays within one period on a tail-free grid."""

    # the four drives of test_global_error_within_tol and, per grid of
    # samples x laser periods, the H times of its direct and its composed
    # run summed over tol 1e-6, 1e-8, 1e-10 and 1e-12; every span lies in
    # (T/4, T]
    DRIVES = [
        pytest.param((0.5, 0.3, 6.0, 2.0, 0.5), {
            "11x0.3": (3392, 5520), "11x0.5": (6784, 5520),
            "11x1": (13568, 5520), "40x0.3": (3632, 5752),
            "40x0.5": (7024, 5752), "40x1": (13808, 5752),
            "101x0.3": (4096, 6240), "101x0.5": (7488, 6240),
            "101x1": (14272, 6240)}, id="long_elliptic"),
        pytest.param((0.1, 0.2, 4.0, 1.0, 0.1), {
            "11x0.3": (1408, 1488), "11x0.5": (2752, 1488),
            "11x1": (5504, 1488), "40x0.3": (1648, 1720),
            "40x0.5": (2992, 1720), "40x1": (5744, 1720),
            "101x0.3": (2112, 2208), "101x0.5": (3456, 2208),
            "101x1": (6208, 2208)}, id="dense_trace"),
        pytest.param((0.5, 0.3, 2.0, 2.0, 0.5), {
            "11x0.3": (1728, 2768), "11x0.5": (2880, 2768),
            "11x1": (6784, 2768), "40x0.3": (1968, 3000),
            "40x0.5": (3120, 3000), "40x1": (7024, 3000),
            "101x0.3": (2432, 3488), "101x0.5": (3584, 3488),
            "101x1": (7488, 3488)}, id="delta0"),
        pytest.param((0.2, 0.0, 2.0, 0.5, 0.08), {
            "11x0.3": (1408, 1488), "11x0.5": (1728, 1488),
            "11x1": (3456, 1488), "40x0.3": (1648, 1720),
            "40x0.5": (1968, 1720), "40x1": (3696, 1720),
            "101x0.3": (2112, 2208), "101x0.5": (2432, 2208),
            "101x1": (4160, 2208)}, id="factorization")]

    @pytest.mark.parametrize("drive, h_budgets", DRIVES)
    def test_error_within_tol_at_the_pinned_h_times(self, drive, h_budgets):
        # against scipy DOP853; measured worst: 0.36 tol composed, on the
        # factorization drive's 40 samples over one laser period at 1e-12,
        # and 0.72 tol direct
        from scipy.integrate import solve_ivp
        H, T, calls = counted_drive(*drive)
        grids = {f"{samples}x{periods:g}":
                 np.linspace(0.0, 2.0 * math.pi * periods, samples)
                 for samples in (11, 40, 101) for periods in (0.3, 0.5, 1.0)}
        times = np.unique(np.concatenate(list(grids.values())))
        rhs = lambda t, u: (-1j * H(np.array([t]))[0]
                            @ u.reshape(4, 4)).ravel()
        ref = solve_ivp(rhs, (0.0, times[-1]), IDENTITY4.ravel() + 0j,
                        method="DOP853", t_eval=times, rtol=1e-13, atol=1e-13)
        U_ref = dict(zip(times.tolist(), ref.y.T.reshape(-1, 4, 4)))
        h_times = {}
        for name, grid in grids.items():
            assert 0.25 * T < grid[-1] <= T
            refs = np.array([U_ref[t] for t in grid.tolist()])
            h_times[name] = []
            for period in (None, T):
                calls.clear()
                for tol in (1e-6, 1e-8, 1e-10, 1e-12):
                    Us = propagate(H, grid, tol, period)
                    assert np.abs(Us - refs).max() <= tol
                if period is not None:
                    assert max(t.max() for t in calls) <= 0.25 * T
                h_times[name].append(sum(np.size(t) for t in calls))
            h_times[name] = tuple(h_times[name])
        assert h_times == h_budgets

    # (samples, span / T, composed): within T/4 the run is direct; within
    # T, 9 and 17 evenly spaced samples lie on the nodes of the 8- and
    # 16-step grids and run directly, while 11 miss the 16-step grid's
    # nodes and are composed; beyond T every grid is composed
    PLANS = [(11, 0.2, False), (11, 0.6, True), (11, 1.0, True),
             (9, 0.6, False), (9, 1.0, False), (17, 0.6, False),
             (17, 1.0, False), (9, 1.2, True)]

    @pytest.mark.parametrize("samples, end, composed", PLANS)
    def test_which_runs_are_composed(self, samples, end, composed):
        H, T, calls = counted_drive(*TestPeriodComposition.DRIVES[0])
        times = np.linspace(0.0, end * T, samples)
        Us = propagate(H, times, 1e-8, T)
        reach = max(t.max() for t in calls)
        direct = propagate(H, times, 1e-8)
        if composed:
            assert reach <= 0.25 * T
            assert not np.array_equal(Us, direct)
            assert np.abs(Us - direct).max() <= 1e-8
        else:
            assert reach > 0.75 * end * T
            assert np.array_equal(Us, direct)


class TestTimeReversal:
    """H(-t) = H(t)*: the drives are even in time up to complex
    conjugation, so U over one motion period is a symmetric matrix."""

    @pytest.mark.parametrize("drive", TestPeriodComposition.DRIVES)
    def test_spin_hamiltonian(self, drive):
        H, T, _ = counted_drive(*drive)
        t = np.linspace(0.0, 2.5 * T, 301)
        assert np.abs(H(-t) - H(t).conj()).max() <= 1e-14

    # the drives of the composition tests, and one at the widest eps that
    # loads, off gamma_z = 1
    @pytest.mark.parametrize("drive", TestPeriodComposition.DRIVES
                             + [(0.5, 0.7, 6.0, 2.0, 0.5, 0.8)])
    def test_half_wave_shift_of_spin_hamiltonian(self, drive):
        # sn and cn change sign over 2K and dn does not, so Bx and By flip
        # after T/2 and Bz does not: H(t + T/2) = P H(t) P, P = s3 (x) s3,
        # and with time reversal H(T/2 - t) = P H(t)* P
        H, T, _ = counted_drive(*drive)
        P = PAIR[3, 3]
        t = np.linspace(0.0, 2.5 * T, 301)
        assert np.abs(H(t + 0.5 * T) - P @ H(t) @ P).max() <= 1e-14
        assert np.abs(H(0.5 * T - t) - P @ H(t).conj() @ P).max() <= 1e-14

    @pytest.mark.parametrize("source", [interaction_picture_hamiltonian,
                                        interaction_term])
    def test_interaction_picture_sources(self, source):
        drive = linear(0.3, 4.0, 1.0, 0.1)
        t = np.linspace(0.0, 2.5 * motion_period(drive[1]), 301)
        assert np.abs(source(-t, *drive)
                      - source(t, *drive).conj()).max() <= 1e-14

    @pytest.mark.parametrize("drive", TestPeriodComposition.DRIVES)
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_one_period_propagator_is_symmetric(self, drive, tol):
        # the Gauss-Legendre Magnus step is symmetric in time, so U(T) of
        # the uniform grid keeps the symmetry at roundoff, whatever tol
        H, T, _ = counted_drive(*drive)
        U = propagate(H, [0.0, T], tol)[-1]
        assert np.abs(U - U.T).max() <= 1e-13


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
        exact = validate.jacobi
        shapes = []

        def counting(u, mu):
            shapes.append(np.shape(u))
            return exact(u, mu)

        monkeypatch.setattr(validate, "jacobi", counting)
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
        monkeypatch.setattr("laserspin.validate.interaction_picture_hamiltonian",
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
        # -0.5 lies in [-1, -1/3), where rho_W is not a state
        laser, _, bound = linear_scenario
        for p in (1.5, -0.5):
            with pytest.raises(DomainError, match=r"\[-1/3, 1\], got "):
                perturbative_delta_rho_werner(1.0, p, laser, bound)

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
