import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laserspin import (BoundStateParams, DomainError, InvalidStateError,
                       LaserParams, concurrence_product_analytic,
                       concurrence_werner_analytic, evolve_von_neumann,
                       modulus_from_params, product_state, propagate, q_factor,
                       spin_hamiltonian, werner_state, wootters_concurrence)
from laserspin.pauli import PAULI

from conftest import random_unitary2


def q_factor_raw(t, omega, g):
    # direct evaluation of the printed expression, no resonance handling
    return (math.sin((omega / 2 + 2 * g) * t) ** 2 / (omega + 4 * g)
            + math.sin((omega / 2 - 2 * g) * t) ** 2 / (omega - 4 * g))


class TestWernerState:
    def test_maximally_mixed(self):
        assert np.abs(werner_state(0.0) - np.eye(4) / 4.0).max() == 0.0

    def test_pure_singlet_at_one(self):
        rho = werner_state(1.0)
        singlet = np.zeros(4, dtype=complex)
        singlet[1], singlet[2] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
        assert np.abs(rho - np.outer(singlet, singlet.conj())).max() < 1e-15
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues(self):
        p = 0.7
        ev = np.sort(np.linalg.eigvalsh(werner_state(p)))
        expected = np.sort([(1 - p) / 4] * 3 + [(1 + 3 * p) / 4])
        assert np.abs(ev - expected).max() < 1e-14

    def test_halfway_concurrence(self):
        assert wootters_concurrence(werner_state(0.5)) == pytest.approx(
            0.25, abs=1e-12)
        assert concurrence_werner_analytic(0.5) == 0.25

    @given(p=st.floats(min_value=-1.0 / 3.0, max_value=1.0))
    def test_analytic_matches_wootters(self, p):
        assert wootters_concurrence(werner_state(p)) == pytest.approx(
            concurrence_werner_analytic(p), abs=1e-11)

    def test_separability_threshold(self):
        assert wootters_concurrence(werner_state(1.0 / 3.0)) == 0.0
        assert wootters_concurrence(werner_state(1.0 / 3.0 + 1e-3)) > 0.0
        assert concurrence_werner_analytic(1.0 / 3.0) == 0.0
        assert concurrence_werner_analytic(1.0) == 1.0
        assert concurrence_werner_analytic(0.0) == 0.0

    @pytest.mark.parametrize("p", [-0.4, 1.01])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            werner_state(p)
        with pytest.raises(DomainError):
            concurrence_werner_analytic(p)


class TestProductState:
    def test_maximally_mixed(self):
        assert np.abs(product_state(0.0, 0.0) - np.eye(4) / 4.0).max() == 0.0

    def test_polarized_diagonal(self):
        rho = product_state(1.0, 0.0)
        assert np.abs(rho - np.diag([0.5, 0.25, 0.25, 0.0])).max() < 1e-15
        assert wootters_concurrence(rho) == 0.0

    def test_diagonal_entries_and_trace(self):
        rho = product_state(0.5, 0.3)
        assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-15
        d = np.diag(rho).real
        assert d.min() >= 0.0 and d.max() <= 1.0
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
        ev = np.sort(np.linalg.eigvalsh(rho))
        c1, c2 = 0.4, 0.1   # (alpha+beta)/2, (alpha-beta)/2
        expected = np.sort([(1 + s1 * c1 + s2 * c2) / 4
                            for s1 in (1, -1) for s2 in (1, -1)])
        assert np.abs(ev - expected).max() < 1e-14

    def test_partial_trace_polarizations(self):
        alpha, beta = 0.4, 0.25
        rho = product_state(alpha, beta)
        pol_second = np.trace(rho @ np.kron(PAULI[0], PAULI[3])).real
        pol_first = np.trace(rho @ np.kron(PAULI[3], PAULI[0])).real
        assert pol_second == pytest.approx((alpha + beta) / 2, abs=1e-14)
        assert pol_first == pytest.approx((alpha - beta) / 2, abs=1e-14)

    def test_always_separable(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            assert wootters_concurrence(product_state(a, b)) == 0.0

    def test_positivity_violation_rejected(self):
        for alpha, beta in ((1.2, 0.0), (0.5, -1.05), (0.0, 1.0 + 1e-9)):
            with pytest.raises(DomainError):
                product_state(alpha, beta)
            with pytest.raises(DomainError):
                concurrence_product_analytic(1.0, alpha, beta, 0.3, 0.1, 3.0)
        # |alpha| + |beta| > 1 is still a state: eigenvalues (1 +/- alpha)/4
        # and (1 +/- beta)/4 are 0.075, 0.125, 0.375 and 0.425
        ev = np.sort(np.linalg.eigvalsh(product_state(0.7, 0.5)))
        assert np.abs(ev - [0.075, 0.125, 0.375, 0.425]).max() < 1e-15


class TestWoottersConcurrence:
    def test_bell_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
        assert wootters_concurrence(np.outer(psi, psi.conj())) \
            == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert wootters_concurrence(np.eye(4) / 4.0) == 0.0

    def test_rejects_invalid_state(self):
        with pytest.raises(InvalidStateError):
            wootters_concurrence(np.eye(4))

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(23)
        rho = werner_state(0.65)
        c0 = wootters_concurrence(rho)
        for _ in range(100):
            u = np.kron(random_unitary2(rng), random_unitary2(rng))
            assert abs(wootters_concurrence(u @ rho @ u.conj().T) - c0) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert 0.0 <= wootters_concurrence(rho) <= 1.0

    def test_stack_matches_per_matrix_loop(self, bound):
        # the 4001 states of the dense-trace benchmark drive: Werner p = 0.8
        # at eta 0.1, eps 0.2, gtilde (4, 1), g 0.1 over one period
        laser = LaserParams(eta=0.1, epsilon=0.2)
        kin = modulus_from_params(laser, 1.0)
        rhos = evolve_von_neumann(
            werner_state(0.8), lambda t: spin_hamiltonian(t, laser, kin, bound),
            np.linspace(0.0, 2.0 * math.pi, 4001), 1e-6)
        stacked = wootters_concurrence(rhos)
        assert stacked.shape == (4001,)
        loop = [wootters_concurrence(rho) for rho in rhos]
        assert all(isinstance(c, float) for c in loop)
        assert np.abs(stacked - loop).max() <= 1e-15


class TestQFactor:
    def test_zero_time(self):
        assert q_factor(0.0, 1.0, 0.1) == 0.0

    def test_no_coupling_limit(self):
        for t in (0.3, 2.2, 7.9):
            assert q_factor(t, 1.0, 0.0) == pytest.approx(
                2.0 * math.sin(0.5 * t) ** 2, rel=1e-12)

    def test_resonance_by_richardson_extrapolation(self):
        # w_L = 4g is removable: the mean of the raw expression at
        # w_L (1 +/- delta) extrapolates the limit to O(delta^2)
        g = 0.25
        for t in (0.9, 3.7, 12.0):
            delta = 1e-6
            extrap = 0.5 * (q_factor_raw(t, 1.0 + delta, g)
                            + q_factor_raw(t, 1.0 - delta, g))
            assert q_factor(t, 1.0, g) == pytest.approx(extrap, abs=1e-9)

    def test_matches_raw_formula_off_resonance(self):
        for t, w, g in [(1.1, 1.0, 0.1), (4.0, 2.0, 0.3), (0.4, 1.0, -0.2)]:
            assert q_factor(t, w, g) == pytest.approx(q_factor_raw(t, w, g),
                                                      rel=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            q_factor(-0.1, 1.0, 0.1)


class TestProductAnalytic:
    def test_zero_at_start(self):
        assert concurrence_product_analytic(0.0, 0.5, 0.3, 0.3, 0.1, 3.0) == 0.0

    def test_fully_polarized_is_flat(self):
        for t in (0.0, 1.7, 9.9):
            assert concurrence_product_analytic(t, 1.0, 0.0, 0.3, 0.1, 3.0) == 0.0

    @pytest.mark.parametrize("beta,g,delta", [
        (0.0, 0.1, 3.0), (0.3, 0.0, 3.0), (0.3, 0.1, 0.0)])
    def test_vanishing_mechanisms(self, beta, g, delta):
        alpha = 0.5
        for t in (0.8, 4.4):
            assert concurrence_product_analytic(t, alpha, beta, 0.3, g, delta) \
                == 0.0


class TestLaserInducedEntanglement:
    def test_positive_onset_when_threshold_fires(self):
        # antiparallel boundary state under an elliptic drive; the growth
        # condition 4 eta |beta g Delta| max Q > sqrt(1 - alpha^2) holds
        # and the exact evolution crosses the separability boundary
        alpha, beta, eta, eps, g, delta = 0.0, 1.0, 0.5, 0.3, 0.5, 4.0
        laser = LaserParams(eta=eta, epsilon=eps)
        kin = modulus_from_params(laser, 1.0)
        bound = BoundStateParams.from_gtildes(2.0 + delta, 2.0, g_coupling=g)
        times = np.linspace(0.0, 10.0 * math.pi, 180)
        max_q = max(abs(q_factor(float(t), 1.0, g)) for t in times)
        assert 4.0 * eta * abs(beta * g * delta) * max_q \
            > math.sqrt(1.0 - alpha**2)
        Us = propagate(lambda t: spin_hamiltonian(t, laser, kin, bound),
                       times, 1e-8)
        rho0 = product_state(alpha, beta)
        cs = [wootters_concurrence(U @ rho0 @ U.conj().T) for U in Us]
        assert max(cs) > 0.02

    def test_identical_ratios_never_entangle(self):
        # Delta = 0 makes the single-spin fields identical, and up to local
        # unitaries only the exchange term acts:
        # C(t) = max(0, (|beta sin(g t)| - sqrt(1 - alpha^2))/2).  So the
        # evolved product state stays separable for all times only while
        # |beta| <= sqrt(1 - alpha^2), as here (alpha, beta) = (0, 1)
        laser = LaserParams(eta=0.5, epsilon=0.3)
        kin = modulus_from_params(laser, 1.0)
        bound = BoundStateParams.from_gtildes(2.0, 2.0, g_coupling=0.5)
        times = np.linspace(0.0, 10.0 * math.pi, 180)
        Us = propagate(lambda t: spin_hamiltonian(t, laser, kin, bound),
                       times, 1e-8)
        rho0 = product_state(0.0, 1.0)
        assert max(wootters_concurrence(U @ rho0 @ U.conj().T)
                   for U in Us) < 1e-9
