"""Acceptance suite: one pass/fail line per criterion, at pinned tolerances.

Criterion 4a asserts laser-induced entanglement onset of the initially
uncorrelated state within 5 drive periods, against a Delta = 0 control.
Onset is laser-induced only where two conditions hold together:

  (i)  4 eta |beta g Delta| max|Q| > sqrt(1 - alpha^2), so that the
       leading-order growth beats the separability threshold;
  (ii) |beta| <= sqrt(1 - alpha^2), so that exchange alone cannot
       entangle: at Delta = 0 the exact concurrence is
       max(0, (|beta sin(g t)| - sqrt(1 - alpha^2))/2).

Together they need 4 eta g Delta max|Q| > 1.  At the drive of criteria
4b and 4c (eta 0.3, epsilon 0, g 0.1, Delta 3) that product is 0.857, so
no product state shows laser-induced onset there; at their
(alpha, beta) = (0.999, 0.001) the growth term is 8.6e-4 against a
threshold of 4.5e-2 and the exact evolution stays at C = 0, while a
larger beta (0.5, say) is entangled by exchange alone, Delta = 0
included.  Criterion 4a therefore runs at the attainable point
(alpha, beta, eta, epsilon, g, Delta) = (0, 1, 0.5, 0.3, 0.5, 4), where
(i) reads 3.2 > 1 and (ii) 1 <= 1.
"""

import math
import time

import numpy as np
import pytest

from laserspin import (BoundStateParams, LaserParams,
                       concurrence_product_analytic,
                       concurrence_werner_analytic, modulus_from_params,
                       product_state, propagate, q_factor,
                       spin_hamiltonian, werner_state, wootters_concurrence)
from laserspin.pauli import SIGMA_10, SIGMA_32, hermiticity_defect
from laserspin.simulate import run_sweep
from laserspin.validate import (oracle_commutator, oracle_elliptic,
                                oracle_euler, oracle_factorization,
                                oracle_lorentz)

from conftest import random_density_matrix
from test_cli import base_config
from laserspin.config import config_from_dict


def report(criterion, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail}; {elapsed:.1f}s)")


def test_acceptance_1_elliptic_correctness():
    start = time.perf_counter()
    r = oracle_elliptic()
    elapsed = time.perf_counter() - start
    ok = r.passed and elapsed < 5.0
    report("1 [elliptic]", ok,
           f"50x20 grid, max error {r.max_dev:.2e} < 1e-12", elapsed)
    assert r.passed, f"elliptic oracle deviation {r.max_dev:.3e}"
    assert elapsed < 5.0


def test_acceptance_2_trajectory_exactness():
    start = time.perf_counter()
    r = oracle_lorentz()
    elapsed = time.perf_counter() - start
    ok = r.passed and elapsed < 30.0
    report("2 [trajectory]", ok, r.detail, elapsed)
    assert r.passed, f"lorentz oracle: {r.detail}"
    assert elapsed < 30.0


def test_acceptance_3_werner_stability():
    start = time.perf_counter()
    bound = BoundStateParams.from_gtildes(4.0, 1.0, g_coupling=0.1)
    worst_ratio = 0.0
    details = []
    for eta in (0.02, 0.05, 0.1):
        laser = LaserParams(eta=eta, epsilon=0.0)
        kin = modulus_from_params(laser, 1.0)
        times = list(np.linspace(0.0, 2.0 * math.pi, 41))
        Us = propagate(
            lambda t: spin_hamiltonian(t, laser, kin, bound), times, 1e-8)
        for p in (0.5, 0.8):
            rho0 = werner_state(p)
            target = concurrence_werner_analytic(p)
            dev = max(abs(wootters_concurrence(U @ rho0 @ U.conj().T) - target)
                      for U in Us)
            worst_ratio = max(worst_ratio, dev / (10.0 * eta * eta))
            details.append(f"eta={eta} p={p}: {dev:.2e}")
            assert dev < 10.0 * eta * eta, details[-1]
    elapsed = time.perf_counter() - start
    report("3 [werner stability]", worst_ratio < 1.0 and elapsed < 120.0,
           f"max dev/bound = {worst_ratio:.3f}", elapsed)
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def product_trace():
    """Shared 5-period evolution of the criterion-4 scenario."""
    alpha, beta, eta, g = 0.999, 0.001, 0.3, 0.1
    laser = LaserParams(eta=eta, epsilon=0.0)
    kin = modulus_from_params(laser, 1.0)
    bound = BoundStateParams.from_gtildes(4.0, 1.0, g_coupling=g)  # Delta = 3
    times = np.linspace(0.0, 10.0 * math.pi, 251)
    start = time.perf_counter()
    Us = propagate(lambda t: spin_hamiltonian(t, laser, kin, bound),
                   times, 1e-8)
    rho0 = product_state(alpha, beta)
    cs = np.array([wootters_concurrence(U @ rho0 @ U.conj().T) for U in Us])
    elapsed = time.perf_counter() - start
    return times, cs, (alpha, beta, eta, g), elapsed


@pytest.fixture(scope="module")
def onset_traces():
    """5-period evolutions of the onset point and of its Delta = 0 control."""
    alpha, beta, eta, eps, g, delta = 0.0, 1.0, 0.5, 0.3, 0.5, 4.0
    laser = LaserParams(eta=eta, epsilon=eps)
    kin = modulus_from_params(laser, 1.0)
    times = np.linspace(0.0, 10.0 * math.pi, 251)
    rho0 = product_state(alpha, beta)
    start = time.perf_counter()
    traces = []
    for d in (delta, 0.0):
        bound = BoundStateParams.from_gtildes(2.0 + d, 2.0, g_coupling=g)
        Us = propagate(lambda t: spin_hamiltonian(t, laser, kin, bound),
                       times, 1e-8)
        traces.append(np.array([wootters_concurrence(U @ rho0 @ U.conj().T)
                                for U in Us]))
    elapsed = time.perf_counter() - start
    return times, traces[0], traces[1], (alpha, beta, eta, g, delta), elapsed


def test_acceptance_4a_entanglement_onset(onset_traces):
    times, cs, cs_null, (alpha, beta, eta, g, delta), elapsed = onset_traces
    floor = math.sqrt(1.0 - alpha**2)
    max_q = max(abs(q_factor(float(t), 1.0, g)) for t in times)
    growth = 4.0 * eta * abs(beta * g * delta) * max_q
    onset = np.flatnonzero(cs > 0.0)
    first = times[onset[0]] / (2.0 * math.pi) if onset.size else math.nan
    ok = (growth > floor and abs(beta) <= floor and onset.size > 0
          and cs_null.max() < 1e-10)
    report("4a [entanglement onset within 5 periods]", ok,
           f"first C > 0 at {first:.2f} periods, max C {cs.max():.3e}; "
           f"Delta=0 max C {cs_null.max():.2e} < 1e-10", elapsed)
    # (i) the leading-order growth beats the separability threshold
    assert growth > floor, (
        f"4 eta |beta g Delta| max|Q| = {growth:.3g} <= "
        f"sqrt(1 - alpha^2) = {floor:.3g}: no onset is predicted")
    # (ii) exchange alone cannot entangle the state
    assert abs(beta) <= floor, (
        f"|beta| = {abs(beta):.3g} > sqrt(1 - alpha^2) = {floor:.3g}: "
        "the Delta = 0 exchange term alone would entangle the state")
    assert onset.size > 0, (
        "numeric concurrence never becomes positive within 5 periods "
        f"although (i) and (ii) hold: max C = {cs.max():.3e}")
    assert cs_null.max() < 1e-10, (
        f"Delta = 0 control reaches C = {cs_null.max():.3e}: the onset "
        "is not laser-induced")


def test_acceptance_4b_tracks_leading_order_formula(product_trace):
    times, cs, (alpha, beta, eta, g), elapsed = product_trace
    start = time.perf_counter()
    dev = max(abs(c - concurrence_product_analytic(
        float(t), alpha, beta, eta, g, 3.0)) for c, t in zip(cs, times))
    ok = dev < 10.0 * eta * eta
    report("4b [tracks leading-order magnitude]", ok,
           f"max |numeric - analytic| = {dev:.2e} < {10 * eta * eta:.2f}",
           elapsed + time.perf_counter() - start)
    assert ok


def test_acceptance_4c_negative_control():
    start = time.perf_counter()
    laser = LaserParams(eta=0.3, epsilon=0.0)
    kin = modulus_from_params(laser, 1.0)
    bound = BoundStateParams.from_gtildes(4.0, 4.0, g_coupling=0.1)  # Delta = 0
    times = np.linspace(0.0, 10.0 * math.pi, 251)
    Us = propagate(lambda t: spin_hamiltonian(t, laser, kin, bound),
                   times, 1e-8)
    rho0 = product_state(0.999, 0.001)
    worst = max(wootters_concurrence(U @ rho0 @ U.conj().T) for U in Us)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 120.0
    report("4c [Delta=0 control]", ok, f"max concurrence {worst:.2e} < 1e-10",
           elapsed)
    assert worst < 1e-10
    assert elapsed < 120.0


def test_acceptance_5_factorization_and_euler():
    start = time.perf_counter()
    rf = oracle_factorization()
    re_ = oracle_euler()
    elapsed = time.perf_counter() - start
    ok = rf.passed and re_.passed and elapsed < 60.0
    report("5 [appendix factorization]", ok,
           f"||U - WX|| = {rf.max_dev:.2e} < 1e-6, "
           f"euler dev {re_.max_dev:.2e} < 1e-12", elapsed)
    assert rf.passed and re_.passed
    assert elapsed < 60.0


def test_acceptance_6_commutator_oracle_and_pairing():
    start = time.perf_counter()
    r = oracle_commutator()

    # fixture recording which printed sigma-pairing the oracle confirms:
    # in the x-axis convention used here, the axis-type antisymmetric term
    # is s1(x)1 - 1(x)s1 and the cross-type one is s3(x)s2 - s2(x)s3
    eta, p, delta, g, t = 0.1, 0.8, 2.0, 0.03, 5.0
    laser = LaserParams(eta=eta, epsilon=0.0)
    bound = BoundStateParams.from_gtildes(3.0, 1.0, g_coupling=g)
    thm = 0.5 * eta * delta * math.sin(t)
    v_lead = (g / 4.0) * math.sin(thm) * (
        math.cos(g * t) * SIGMA_32 - math.sin(g * t) * SIGMA_10)
    rho_w = werner_state(p)
    brute = 1j * (v_lead @ rho_w - rho_w @ v_lead)
    amp = -(p * g / 4.0) * math.sin(thm)
    pairings = {
        "cos-with-axis, sin-with-cross":
            amp * (math.cos(g * t) * SIGMA_10 + math.sin(g * t) * SIGMA_32),
        "cos-with-cross, sin-with-axis":
            amp * (math.cos(g * t) * SIGMA_32 + math.sin(g * t) * SIGMA_10),
    }
    devs = {name: float(np.abs(brute - cand).max())
            for name, cand in pairings.items()}
    confirmed = min(devs, key=devs.get)
    elapsed = time.perf_counter() - start
    ok = (r.passed and confirmed == "cos-with-axis, sin-with-cross"
          and devs[confirmed] < 1e-12 and elapsed < 10.0)
    report("6 [perturbative commutator]", ok,
           f"closed form dev {r.max_dev:.2e} < 1e-12; "
           f"oracle confirms '{confirmed}' for the state change "
           "(the swapped pairing belongs to the coupling term itself)",
           elapsed)
    assert r.passed
    # the state-change pairing matches the cos<->axis placement; the
    # alternative is decisively rejected
    assert devs["cos-with-axis, sin-with-cross"] < 1e-12
    assert devs["cos-with-cross, sin-with-axis"] > 1e-6
    assert elapsed < 10.0


def test_acceptance_7_state_hygiene():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    scenarios = [
        (LaserParams(eta=0.1, epsilon=0.0), 1.0,
         BoundStateParams.from_gtildes(4.0, 1.0, g_coupling=0.1),
         werner_state(0.8)),
        (LaserParams(eta=0.3, epsilon=0.25), 1.1,
         BoundStateParams.from_gtildes(4.0, 1.0, g_coupling=0.1),
         product_state(0.3, 0.2)),
        (LaserParams(eta=0.5, epsilon=0.45), 1.0,
         BoundStateParams.from_gtildes(2.0, -1.0, g_coupling=0.2),
         random_density_matrix(rng)),
    ]
    worst = {"trace": 0.0, "herm": 0.0, "psd": 0.0, "spec": 0.0}
    for laser, gz, bound, rho0 in scenarios:
        kin = modulus_from_params(laser, gz)
        times = list(np.linspace(0.0, 3.0 * math.pi, 11))
        Us = propagate(lambda t: spin_hamiltonian(t, laser, kin, bound),
                       times, 1e-8)
        ref = np.sort(np.linalg.eigvalsh(rho0))
        for U in Us:
            rho = U @ rho0 @ U.conj().T
            worst["trace"] = max(worst["trace"], abs(np.trace(rho).real - 1.0))
            worst["herm"] = max(worst["herm"], hermiticity_defect(rho))
            ev = np.sort(np.linalg.eigvalsh(rho))
            worst["psd"] = max(worst["psd"], max(0.0, -float(ev.min())))
            worst["spec"] = max(worst["spec"], float(np.abs(ev - ref).max()))
    elapsed = time.perf_counter() - start
    ok = (worst["trace"] < 1e-12 and worst["herm"] < 1e-12
          and worst["psd"] < 1e-10 and worst["spec"] < 1e-8)
    report("7 [state hygiene]", ok,
           f"trace {worst['trace']:.1e}, herm {worst['herm']:.1e}, "
           f"psd {worst['psd']:.1e}, spectrum {worst['spec']:.1e}", elapsed)
    assert ok, worst


def test_acceptance_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    cfg = config_from_dict(base_config(samples=11))
    values = [0.02, 0.05, 0.1]
    run_sweep(cfg, "eta", values, jobs=1, out_dir=str(tmp_path / "j1"))
    run_sweep(cfg, "eta", values, jobs=4, out_dir=str(tmp_path / "j4"))
    identical = all(
        (tmp_path / "j1" / f"point_{k:03d}.csv").read_bytes()
        == (tmp_path / "j4" / f"point_{k:03d}.csv").read_bytes()
        for k in range(3))
    identical &= ((tmp_path / "j1" / "manifest.json").read_bytes()
                  == (tmp_path / "j4" / "manifest.json").read_bytes())
    elapsed = time.perf_counter() - start
    report("8 [cli determinism]", identical,
           "byte-identical outputs across jobs in {1, 4}", elapsed)
    assert identical
