import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from laserspin import DomainError, complete_K, jacobi, jacobi_am

MODULI = st.floats(min_value=0.0, max_value=0.98)
ARGS = st.floats(min_value=-30.0, max_value=30.0)


def quadrature_K(mu):
    val, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - (mu * math.sin(th)) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return val


def quadrature_F(phi, mu):
    val, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - (mu * math.sin(th)) ** 2),
                  0.0, phi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


class TestCompleteK:
    def test_zero_modulus(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_monotone_growth_toward_one(self):
        mus = [0.0, 0.3, 0.6, 0.9, 0.99, 0.999999, 1.0 - 1e-12]
        ks = [complete_K(m) for m in mus]
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert all(np.isfinite(ks))
        # logarithmic growth scale near the degenerate point
        mu = 1.0 - 1e-9
        assert complete_K(mu) == pytest.approx(
            math.log(4.0 / math.sqrt(1.0 - mu * mu)), rel=1e-6)

    def test_half_modulus_matches_quadrature(self):
        assert abs(complete_K(0.5) - quadrature_K(0.5)) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            complete_K(bad)


class TestJacobi:
    def test_origin(self):
        for mu in (0.0, 0.3, 0.9):
            sn, cn, dn = jacobi(0.0, mu)
            assert (sn, cn, dn) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("one_minus_mu", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_dn_at_quarter_period_near_unit_modulus(self, one_minus_mu):
        # dn(K) = sqrt(1 - mu^2), which 1 - (mu sn)^2 would lose to
        # cancellation as mu -> 1
        mu = 1.0 - one_minus_mu
        dn = jacobi(complete_K(mu), mu).dn
        assert dn / math.sqrt((1.0 - mu) * (1.0 + mu)) == pytest.approx(
            1.0, abs=1e-13)

    def test_trig_degeneracy(self):
        sn, cn, dn = jacobi(math.pi / 2.0, 0.0)
        assert sn == pytest.approx(1.0, abs=1e-15)
        assert cn == pytest.approx(0.0, abs=1e-15)
        assert dn == 1.0

    def test_quadrature_inversion_oracle(self):
        # u = F(phi) computed by adaptive quadrature, then sn(u) must be sin(phi)
        mu, u = 0.7, 1.3
        phi = brentq(lambda p: quadrature_F(p, mu) - u, 0.0, u + 1e-9,
                     xtol=1e-15, rtol=8.9e-16)
        sn, cn, dn = jacobi(u, mu)
        assert abs(sn - math.sin(phi)) < 1e-12
        assert abs(cn - math.cos(phi)) < 1e-12

    def test_near_one_hyperbolic_limit(self):
        mu = 1.0 - 1e-9
        for u in (0.3, 0.9, 2.0, 3.5):
            sn, cn, dn = jacobi(u, mu)
            assert sn == pytest.approx(math.tanh(u), abs=1e-4)
            assert cn == pytest.approx(1.0 / math.cosh(u), abs=1e-4)
            assert dn == pytest.approx(1.0 / math.cosh(u), abs=1e-4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_argument(self, bad):
        with pytest.raises(DomainError):
            jacobi(bad, 0.5)

    @given(u=ARGS, mu=MODULI)
    def test_pythagorean_identities(self, u, mu):
        sn, cn, dn = jacobi(u, mu)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + (mu * sn) ** 2 - 1.0) < 1e-12
        assert abs(sn) <= 1.0 + 1e-15 and abs(cn) <= 1.0 + 1e-15
        assert math.sqrt(1.0 - mu * mu) - 1e-15 <= dn <= 1.0 + 1e-15

    @given(u=ARGS, mu=MODULI)
    def test_parity(self, u, mu):
        sp, cp, dp = jacobi(u, mu)
        sm, cm, dm = jacobi(-u, mu)
        assert sp == pytest.approx(-sm, abs=1e-12)
        assert cp == pytest.approx(cm, abs=1e-12)
        assert dp == pytest.approx(dm, abs=1e-12)

    @given(u=st.floats(min_value=-10.0, max_value=10.0), mu=MODULI)
    def test_periodicity(self, u, mu):
        K = complete_K(mu)
        assert jacobi(u + 4.0 * K, mu).sn == pytest.approx(
            jacobi(u, mu).sn, abs=1e-10)
        assert jacobi(u + 2.0 * K, mu).dn == pytest.approx(
            jacobi(u, mu).dn, abs=1e-10)

    @given(u=st.floats(min_value=-8.0, max_value=8.0),
           mu=st.floats(min_value=0.0, max_value=0.95))
    def test_derivative_identities(self, u, mu):
        h = 1e-5
        plus, minus = jacobi(u + h, mu), jacobi(u - h, mu)
        sn, cn, dn = jacobi(u, mu)
        assert (plus.sn - minus.sn) / (2 * h) == pytest.approx(cn * dn, abs=1e-6)
        assert (plus.cn - minus.cn) / (2 * h) == pytest.approx(-sn * dn, abs=1e-6)
        assert (plus.dn - minus.dn) / (2 * h) == pytest.approx(
            -mu * mu * sn * cn, abs=1e-6)


class TestAmplitude:
    def test_origin_and_trig_limit(self):
        assert jacobi_am(0.0, 0.7) == 0.0
        for u in (-3.3, 0.1, 7.9):
            assert jacobi_am(u, 0.0) == u

    def test_quarter_period_accumulation(self):
        K = complete_K(0.5)
        assert jacobi_am(3.0 * K, 0.5) == pytest.approx(1.5 * math.pi, abs=1e-12)

    @given(u=st.floats(min_value=-10.0, max_value=10.0), mu=MODULI)
    def test_half_period_shift(self, u, mu):
        K = complete_K(mu)
        assert jacobi_am(u + 2.0 * K, mu) == pytest.approx(
            jacobi_am(u, mu) + math.pi, abs=1e-10)

    @given(mu=st.floats(min_value=0.01, max_value=0.95))
    def test_monotone_and_unwrapped(self, mu):
        us = np.linspace(-12.0, 12.0, 400)
        ams = [jacobi_am(float(u), mu) for u in us]
        diffs = np.diff(ams)
        assert (diffs > 0.0).all()
        # no branch jumps: increments stay below the grid scale
        assert diffs.max() < 0.2

    @given(u=ARGS, mu=MODULI)
    def test_consistency_with_triple(self, u, mu):
        am = jacobi_am(u, mu)
        sn, cn, _ = jacobi(u, mu)
        assert math.sin(am) == pytest.approx(sn, abs=1e-11)
        assert math.cos(am) == pytest.approx(cn, abs=1e-11)


GRID_MODULI = [0.0, 0.5, float(np.nextafter(1.0, 0.0))]


class TestArrayArgument:
    @pytest.mark.parametrize("mu", GRID_MODULI)
    def test_grid_matches_per_element_calls(self, mu):
        K = complete_K(mu)
        u = np.linspace(-9.0 * K, 9.0 * K, 2001)
        loop = np.array([jacobi(x, mu) for x in u.tolist()])
        loop_am = np.array([jacobi_am(x, mu) for x in u.tolist()])
        for grid in (u, u.reshape(23, 87)):
            triple = jacobi(grid, mu)
            am = jacobi_am(grid, mu)
            assert all(f.shape == grid.shape for f in (*triple, am))
            assert np.abs(np.stack(triple, axis=-1).reshape(-1, 3)
                          - loop).max() <= 1e-15
            assert np.abs(am.ravel() - loop_am).max() <= 1e-15

    @pytest.mark.parametrize("mu", GRID_MODULI)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_element_rejected(self, mu, bad):
        u = np.linspace(-3.0, 3.0, 7)
        u[4] = bad
        for fn in (jacobi, jacobi_am):
            with pytest.raises(DomainError, match="finite"):
                fn(u, mu)

    def test_extreme_modulus_stays_finite(self):
        # the Landen descent takes arcsin without a clamp; at the largest
        # accepted mu its argument must still stay inside [-1, 1]
        mu = GRID_MODULI[-1]
        K = complete_K(mu)
        u = np.concatenate([np.linspace(-9.0 * K, 9.0 * K, 2001),
                            K * (1.0 + np.arange(-8, 9) * 2.0 ** -40)])
        sn, cn, dn = jacobi(u, mu)
        assert np.isfinite([sn, cn, dn, jacobi_am(u, mu)]).all()
        assert np.abs(sn * sn + cn * cn - 1.0).max() <= 1e-15
        assert np.abs(dn * dn + (mu * sn) ** 2 - 1.0).max() <= 1e-15
