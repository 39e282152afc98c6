import copy
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import laserspin
from laserspin import (BoundStateParams, LaserParams, modulus_from_params,
                       motion_period, product_state, propagate, werner_state,
                       wootters_concurrence)
from laserspin.cli import main
from laserspin.config import config_from_dict, load_config
from laserspin.errors import ConfigError, DomainError, IntegratorError
from laserspin.simulate import (CSV_HEADER, apply_sweep_value, rows_to_csv,
                                run_scenario, run_sweep, scenario_csv)


def factorization_rows(out):
    """The deviation of each row of the factorization oracle, as
    `laserspin validate` prints it."""
    return {label: float(value) for label, value in re.findall(
        r"(U vs W X|X vs S Y) (\S+) \(gate 1e-06\)", out)}


def base_config(**overrides):
    cfg = {
        "schema": 1,
        "laser": {"eta": 0.1, "epsilon": 0.0, "omega_L": 1.0},
        "bound": {"mass_n": 1.0, "mass_p": 1.0, "charge_n": -0.5,
                  "charge_p": -0.5, "g_n": -4.0, "g_p": -1.0,
                  "g_coupling": 0.1},
        "gamma_z": 1.0,
        "initial_state": {"type": "werner", "p": 0.8},
        "t_end": 1.0,
        "samples": 21,
        "tol": 1e-6,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_python(args, **env_changes):
    """Run python with args in a fresh interpreter that imports this
    checkout and return its stdout; a None value in env_changes removes
    that variable from the environment."""
    src = str(Path(laserspin.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout.strip()


class TestConfig:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="etaa"):
            config_from_dict(base_config(laser={"etaa": 0.1, "epsilon": 0.0}))

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="extra_knob"):
            config_from_dict(base_config(extra_knob=1))

    def test_missing_key_named(self):
        raw = base_config()
        del raw["gamma_z"]
        with pytest.raises(ConfigError, match="gamma_z"):
            config_from_dict(raw)

    def test_omitted_optional_key_takes_its_default(self):
        cfg = config_from_dict(base_config(laser={"eta": 0.1,
                                                  "epsilon": 0.0}))
        assert cfg.laser.omega_L == 1.0

    @pytest.mark.parametrize("state, message", [
        ({"p": 0.8}, "missing key 'type' in initial_state"),
        ({"type": "bell"}, "initial_state.type must be 'werner', 'product' "
                           "or 'explicit', got 'bell'"),
        ({"type": "product", "alpha": 0.1}, "missing key 'beta' in "
                                            "initial_state"),
        ({"type": "werner", "p": 0.8, "alpha": 0.1}, "unknown key 'alpha' in "
                                                     "initial_state")])
    def test_initial_state_errors(self, state, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(initial_state=state))
        assert str(info.value) == message

    def test_key_error_surfaces_before_domain_error(self, tmp_path, capsys):
        # a laser the physics rejects (exit 3) beside a typo in bound
        raw = base_config(laser={"eta": 0.5, "epsilon": 0.9})
        raw["bound"]["g_couplnig"] = 0.1
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 2
        assert "unknown key 'g_couplnig' in bound" in capsys.readouterr().err

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema"):
            config_from_dict(base_config(schema=2))

    def test_explicit_matrix_state(self):
        m = [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
             for i in range(4)]
        cfg = config_from_dict(base_config(
            initial_state={"type": "explicit", "matrix": m}))
        assert np.abs(cfg.initial_state.build() - np.eye(4) / 4).max() == 0.0

    @pytest.mark.parametrize("entry", [[0.25, 0.0, 99.0], [0.25], []],
                             ids=["three", "one", "empty"])
    def test_explicit_matrix_entry_not_a_pair_is_2(self, tmp_path, capsys,
                                                    entry):
        raw = base_config(initial_state=copy.deepcopy(_EXPLICIT))
        raw["initial_state"]["matrix"][0][0] = entry
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 2
        assert "4 rows of 4 [re, im] pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        (("samples",), "9", "config.samples must be an integer, got '9'"),
        (("initial_state", "type"), 5,
         "initial_state.type must be a string, got 5"),
        (("laser",), 5, "config.laser must be an object, got 5"),
        (("initial_state", "matrix"), 5,
         "initial_state.matrix must be 4 rows of 4 [re, im] pairs")],
        ids=["samples", "initial_state.type", "laser", "matrix"])
    def test_wrong_type_is_2_naming_the_key(self, tmp_path, capsys, key,
                                            value, message):
        raw = base_config(initial_state=copy.deepcopy(_EXPLICIT))
        node = raw
        for k in key[:-1]:
            node = node[k]
        node[key[-1]] = value
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_missing_config_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config: ")
        assert str(path) in err

    def test_bad_samples_and_tol(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict(base_config(samples=1))
        for tol in (1e-3, 1e-4, 1e-14, 1e-15, 1e-300):
            with pytest.raises(ConfigError):
                config_from_dict(base_config(tol=tol))
        # tolerances the propagator rejects stop at the config boundary
        for tol in (1e-15, 1e-300):
            path = write_config(tmp_path, base_config(tol=tol))
            assert main(["simulate", "--config", path]) == 2

    def test_long_run_tolerance_floor(self, tmp_path, capsys):
        # the floor 1e-14 bounds the half-period budget tol T_m / (2 t_end),
        # which 1e9 laser periods at tol 1e-6 put below it; the edge
        # lies at tol / 2e-14 = 5e7 motion periods, the library's edge
        path = write_config(tmp_path, base_config(t_end=1e9))
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "t_end = 1000000000.0" in err and "tol = 1e-06" in err
        one = config_from_dict(base_config())
        edge = 5e7 * motion_period(
            modulus_from_params(one.laser, one.gamma_z)) / one.span
        config_from_dict(base_config(t_end=edge * (1.0 - 1e-6)))
        path = write_config(tmp_path, base_config(t_end=edge * (1.0 + 1e-6)))
        assert main(["simulate", "--config", path]) == 2
        assert "not above 1e-14" in capsys.readouterr().err
        for t_end in (1e300, 1.7e308):
            with pytest.raises(ConfigError, match="not above 1e-14"):
                config_from_dict(base_config(t_end=t_end))
        # 1e5 periods leave 5e-12 and run in about a second
        path = write_config(tmp_path, base_config(t_end=1e5, samples=3))
        assert main(["simulate", "--config", path]) == 0

    def test_a_run_within_one_period_just_above_the_floor(self, monkeypatch):
        # half a laser period of 11 samples is composed from a quarter
        # period at tol / 4 = 3.75e-15, below the floor of a scenario's
        # tol; it loads and runs, and asks H for no time beyond T_m / 4
        cfg = config_from_dict(base_config(t_end=0.5, samples=11,
                                           tol=1.5e-14))
        exact = laserspin.simulate.spin_hamiltonian
        reach = []

        def counted(t, *args, **kwargs):
            reach.append(t.max())
            return exact(t, *args, **kwargs)
        monkeypatch.setattr("laserspin.simulate.spin_hamiltonian", counted)
        trace = run_scenario(cfg)
        assert max(reach) <= 0.25 * cfg.period
        assert np.all(trace.unitarity_error < 1e-14)


_PRODUCT = {"type": "product", "alpha": 0.3, "beta": 0.2}
_EXPLICIT = {"type": "explicit",
             "matrix": [[[0.25, 0.0] if i == j else [0.0, 0.0]
                         for j in range(4)] for i in range(4)]}
# every float of the schema, as a key path into the raw config
FLOAT_FIELDS = [
    ("laser", "eta"), ("laser", "epsilon"), ("laser", "omega_L"),
    *[("bound", key) for key in ("mass_n", "mass_p", "charge_n", "charge_p",
                                 "g_n", "g_p", "g_coupling")],
    ("gamma_z",), ("t_end",), ("tol",), ("initial_state", "p"),
    ("initial_state", "alpha"), ("initial_state", "beta"),
    ("initial_state", "matrix", 0, 0, 0), ("initial_state", "matrix", 2, 1, 1),
]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path", FLOAT_FIELDS,
                             ids=[".".join(map(str, p)) for p in FLOAT_FIELDS])
    def test_rejected_at_config_boundary(self, tmp_path, path, value):
        state = {"alpha": _PRODUCT, "beta": _PRODUCT,
                 "matrix": _EXPLICIT}.get(path[1] if len(path) > 1 else None)
        raw = base_config(**({"initial_state": copy.deepcopy(state)}
                             if state else {}))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(raw)
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 2

    @pytest.mark.parametrize("value", ["0.25", False], ids=["str", "bool"])
    @pytest.mark.parametrize("path", [("gamma_z",),
                                      ("initial_state", "matrix", 0, 0, 0),
                                      ("initial_state", "matrix", 3, 2, 1)],
                             ids=["gamma_z", "matrix.0.0.0", "matrix.3.2.1"])
    def test_non_number_rejected(self, path, value):
        raw = base_config(**({"initial_state": copy.deepcopy(_EXPLICIT)}
                             if path[0] == "initial_state" else {}))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match="must be a number"):
            config_from_dict(raw)

    def test_integer_beyond_float_range(self):
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(base_config(t_end=10**400))


def set_field(raw, path, value):
    """Set the field at a key path of a raw config; returns the config."""
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def readme_config(path=(), value=None):
    """The scenario of the README, with the field at path set to value."""
    raw = base_config(t_end=2.0, samples=9)
    return set_field(raw, path, value) if path else raw


class TestExtremeButFiniteNumbers:
    """Values the schema admits end with a documented exit code, not a
    numpy traceback."""

    @pytest.mark.parametrize("path, value", [
        (("bound", "g_coupling"), 1e300), (("bound", "g_coupling"), -1e300),
        (("bound", "g_n"), 1e200), (("bound", "mass_n"), 1e-300),
        (("bound", "mass_n"), 1e300), (("laser", "omega_L"), 1e300),
        (("laser", "omega_L"), 1e-300)])
    def test_overflowing_hamiltonian_exits_3(self, tmp_path, capsys, path,
                                             value):
        path = write_config(tmp_path, readme_config(path, value))
        assert main(["simulate", "--config", path]) == 3
        assert "Magnus exponent is not finite on [0, " in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        # omega_L_prime = gamma_z omega_L overflows, so the motion period is 0
        ({("gamma_z",): 1e200, ("laser", "omega_L"): 1e200},
         "omega_L_prime must be finite, got inf"),
        # it underflows, and the motion period would divide by it
        ({("laser", "eta"): 0.0, ("gamma_z",): 1e-200,
          ("laser", "omega_L"): 1e-200}, "omega_L_prime must be > 0, got 0.0")])
    def test_overflowing_kinematics_exit_3(self, tmp_path, capsys, fields,
                                           message):
        raw = readme_config()
        for path, value in fields.items():
            set_field(raw, path, value)
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 3
        err = capsys.readouterr().err
        assert f"domain error: {message}" in err and "Traceback" not in err

    def test_overflow_recorded_by_a_sweep_point(self, tmp_path):
        cfg = config_from_dict(readme_config(("bound", "g_n"), 1e200))
        manifest = run_sweep(cfg, "eta", [0.1], jobs=1,
                             out_dir=str(tmp_path / "s"))
        assert manifest[0]["status"].startswith(
            "error: DomainError: Magnus exponent is not finite")

    def test_overflowing_g_p_fails_its_own_point(self, tmp_path):
        # (gtilde_n - Delta) m_p / e_p = -2e308 overflows on the way to g_p
        cfg = config_from_dict(readme_config())
        manifest = run_sweep(cfg, "Delta-via-g_p", [3.0, -1e308], jobs=1,
                             out_dir=str(tmp_path / "s"))
        assert [m["status"] for m in manifest] == [
            "ok", "error: DomainError: g_p must be finite, got -inf"]

    def test_step_budget_exits_4(self, tmp_path, capsys, monkeypatch):
        # valid, but its field needs far more steps than any budget allows
        monkeypatch.setattr("laserspin.evolution.MAX_STEPS", 100)
        raw = readme_config(("bound", "mass_p"), 1e-14)
        raw["t_end"] = 0.5
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 4
        assert "100 steps on [0, " in capsys.readouterr().err

    def test_real_step_budget_ends_a_stiff_run_in_seconds(self, tmp_path,
                                                           capsys):
        # the case above under the real MAX_STEPS = 2**16 uniform steps
        raw = readme_config(("bound", "mass_p"), 1e-14)
        raw["t_end"] = 0.5
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 4
        assert "65536 steps on [0, " in capsys.readouterr().err

    def test_stiff_run_holds_under_3_2_node_stacks(self, tmp_path, capsys,
                                                   monkeypatch):
        # the finest round holds its nodes, the coarse nodes and the steps
        # _magnus4 returns before they are scanned in place in the nodes;
        # a node stack is (n + 1) complex 4x4 matrices of 256 B
        monkeypatch.setattr("laserspin.evolution.MAX_STEPS", 2**13)
        raw = readme_config(("bound", "mass_p"), 1e-14)
        raw["t_end"] = 0.5
        path = write_config(tmp_path, raw)
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", path]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * (2**13 + 1) * 256

    def test_stiff_run_holds_under_2_2_node_stacks(self, tmp_path, capsys,
                                                   monkeypatch):
        # the Magnus steps go straight into the round's nodes, so the
        # finest round holds its nodes, the coarse nodes, which the
        # halving test overwrites with the difference, and per-interval
        # index arrays and temporaries of one H call
        monkeypatch.setattr("laserspin.evolution.MAX_STEPS", 2**13)
        raw = readme_config(("bound", "mass_p"), 1e-14)
        raw["t_end"] = 0.5
        path = write_config(tmp_path, raw)
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", path]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "8192 steps on [0, " in capsys.readouterr().err
        assert peak < 2.2 * (2**13 + 1) * 256

    def test_stiff_sweep_holds_under_3_2_node_stacks(self, tmp_path,
                                                     monkeypatch):
        # four such points in one batch: a round holds at most
        # BATCH_MATRICES nodes across its points, here the finest grid of
        # one run, so the batch peaks as one run does, and each point
        # fails with the text of its own run
        monkeypatch.setattr("laserspin.evolution.MAX_STEPS", 2**13)
        monkeypatch.setattr("laserspin.evolution.BATCH_MATRICES", 2**13 + 1)
        raw = readme_config(("bound", "mass_p"), 1e-14)
        raw["t_end"] = 0.5
        cfg = config_from_dict(raw)
        values = [0.1, 0.2, 0.3, 0.4]
        tracemalloc.start()
        try:
            manifest = run_sweep(cfg, "g_coupling", values, 1,
                                 str(tmp_path / "s"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * (2**13 + 1) * 256
        for entry, g in zip(manifest, values):
            with pytest.raises(IntegratorError) as alone:
                run_scenario(apply_sweep_value(cfg, "g_coupling", g))
            assert entry["status"] == f"error: IntegratorError: {alone.value}"

    def test_subnormal_span_exits_4(self, tmp_path, capsys):
        # h = span / 8 is subnormal: no grid of such steps tiles the span
        raw = readme_config(("t_end",), 5e-324)
        raw["samples"] = 2
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 4
        assert "step size underflow at t = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [1_000_001, 10**12])
    def test_samples_cap_exits_2(self, tmp_path, capsys, samples):
        path = write_config(tmp_path, readme_config(("samples",), samples))
        assert main(["simulate", "--config", path]) == 2
        assert f"samples must lie in [2, 1000000], got {samples}" \
            in capsys.readouterr().err

    def test_infinite_span_exits_2(self, tmp_path, capsys):
        # t_end 2 pi / omega_L overflows; so does the motion period
        path = write_config(tmp_path, readme_config(("laser", "omega_L"),
                                                    5e-324))
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "t_end = 2.0" in err and "omega_L = 5e-324" in err


class TestRunScenario:
    def test_frozen_dynamics_keeps_initial_concurrence(self):
        raw = base_config(laser={"eta": 0.0, "epsilon": 0.0})
        raw["bound"]["g_coupling"] = 0.0
        trace = run_scenario(config_from_dict(raw))
        assert len(trace.t) == 21
        assert trace.concurrence_numeric == pytest.approx(0.7, abs=1e-12)
        assert np.all(trace.trace_error < 1e-12)
        assert np.all(trace.unitarity_error < 1e-12)

    def test_werner_analytic_column_constant(self):
        trace = run_scenario(config_from_dict(base_config()))
        assert trace.concurrence_analytic == pytest.approx(0.7)
        assert np.all((0.0 <= trace.concurrence_numeric)
                      & (trace.concurrence_numeric <= 1.0))
        assert np.all(np.abs(trace.concurrence_numeric - 0.7) < 10.0 * 0.1**2)

    def test_g_coupling_shares_the_unit_of_omega_L(self):
        # g is an angular frequency in the unit of omega_L, not a multiple
        # of omega_L: doubling both only halves the times, while doubling
        # omega_L alone changes the dynamics
        raw = base_config(initial_state={"type": "product", "alpha": 0.0,
                                         "beta": 1.0},
                          laser={"eta": 0.5, "epsilon": 0.3, "omega_L": 1.0},
                          t_end=2.0, samples=9)
        raw["bound"].update(g_n=-6.0, g_p=-2.0, g_coupling=0.5)
        trace = run_scenario(config_from_dict(raw))
        raw["laser"]["omega_L"] = 2.0
        faster_laser = run_scenario(config_from_dict(raw))
        raw["bound"]["g_coupling"] = 1.0
        both = run_scenario(config_from_dict(raw))
        assert np.array_equal(both.t, trace.t / 2.0)
        for column, scaled in zip(trace[1:], both[1:]):
            assert np.array_equal(column, scaled)
        assert np.abs(faster_laser.concurrence_numeric
                      - trace.concurrence_numeric).max() > 1e-3

    def test_explicit_state_has_empty_analytic_column(self):
        # and so has a product state, whose leading-order formula can
        # exceed 1
        m = [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
             for i in range(4)]
        for state in ({"type": "explicit", "matrix": m},
                      {"type": "product", "alpha": 0.0, "beta": 1.0}):
            cfg = config_from_dict(base_config(initial_state=state))
            trace = run_scenario(cfg)
            assert trace.concurrence_analytic is None
            csv = scenario_csv(cfg)
            assert ",," in csv.splitlines()[1]  # empty analytic field

    def test_csv_format(self):
        csv = scenario_csv(config_from_dict(base_config(samples=3)))
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == ("t,concurrence_numeric,concurrence_analytic,"
                              "purity,trace_error,unitarity_error")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(0.7, abs=1e-9)


def haar_unitaries(rng, n):
    """n Haar-random 4x4 unitaries (Mezzadri, Notices AMS 54, 592 (2007))."""
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def explicit_state(rho):
    """The config entry of an explicit initial state."""
    return {"type": "explicit",
            "matrix": [[[z.real, z.imag] for z in row] for row in rho]}


class TestConcurrenceFromPropagator:
    """run_scenario takes C from the factor U R of U rho0 U^+, rho0 = R R^+;
    wootters_concurrence of the state itself is the oracle."""

    @pytest.fixture
    def haar(self, monkeypatch):
        # the run's propagators are 200 seeded Haar unitaries
        Us = haar_unitaries(np.random.default_rng(2000), 200)
        monkeypatch.setattr("laserspin.simulate.propagate_batch",
                            lambda H, t_grids, tols, periods=None:
                            [Us.copy() for _ in t_grids])
        return Us

    def assert_run_matches_oracle(self, Us, state, rho0):
        trace = run_scenario(config_from_dict(base_config(
            initial_state=state, samples=len(Us))))
        oracle = wootters_concurrence(Us @ rho0 @ Us.conj().swapaxes(-1, -2))
        assert np.abs(trace.concurrence_numeric - oracle).max() <= 1e-12

    @pytest.mark.parametrize("p", [-1.0 / 3.0, 0.0, 1.0 / 3.0, 0.8, 1.0])
    def test_werner(self, haar, p):
        self.assert_run_matches_oracle(haar, {"type": "werner", "p": p},
                                       werner_state(p))

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (1.0, 1.0),
                                             (0.3, 0.8)])
    def test_product(self, haar, alpha, beta):
        self.assert_run_matches_oracle(
            haar, {"type": "product", "alpha": alpha, "beta": beta},
            product_state(alpha, beta))

    def test_explicit_bell_state(self, haar):
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho = np.outer(phi, phi)
        self.assert_run_matches_oracle(haar, explicit_state(rho), rho)

    def test_explicit_full_rank_state(self, haar):
        a = np.random.default_rng(2001).normal(size=(4, 4, 2)) @ [1.0, 1j]
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        # the config keeps what a JSON file would: the numbers as given
        rho0 = config_from_dict(base_config(
            initial_state=explicit_state(rho))).initial_state.build()
        assert np.linalg.eigvalsh(rho0).min() > 1e-3
        self.assert_run_matches_oracle(haar, explicit_state(rho), rho0)


class TestChunks:
    """Per-sample work runs in chunks of evolution._CHUNK samples, whose size
    changes no bit; a trace holds about one (N, 4, 4) stack."""

    # a direct run within a quarter motion period and a composed one
    # beyond it, neither a multiple of 256 samples
    RUNS = {"direct": (0.2, 601), "composed": (3.0, 601)}

    def run(self, t_end, samples):
        cfg = config_from_dict(base_config(
            laser={"eta": 0.3, "epsilon": 0.3, "omega_L": 1.0},
            t_end=t_end, samples=samples))
        kin = modulus_from_params(cfg.laser, cfg.gamma_z)
        Us = laserspin.propagate(
            lambda t: laserspin.spin_hamiltonian(t, cfg.laser, kin, cfg.bound),
            np.linspace(0.0, cfg.span, cfg.samples), cfg.tol,
            motion_period(kin))
        return cfg.span > 0.25 * motion_period(kin), run_scenario(cfg), Us

    @pytest.mark.parametrize("name", RUNS)
    def test_chunk_size_changes_no_bit(self, monkeypatch, name):
        composed, trace, Us = self.run(*self.RUNS[name])
        assert composed == (name == "composed")
        csv = rows_to_csv(trace)
        for chunk in (1, 3, 256, 2**20):
            monkeypatch.setattr("laserspin.evolution._CHUNK", chunk)
            _, chunked, chunked_Us = self.run(*self.RUNS[name])
            assert np.array_equal(chunked_Us, Us)
            for column, expected in zip(chunked, trace):
                assert np.array_equal(column, expected)
            assert rows_to_csv(chunked) == csv

    @pytest.mark.parametrize("breach, message", [
        (math.nan, "density matrix has a non-finite entry at sample 300"),
        (1.0 + 1e-11, "density matrix trace differs from 1 at sample 300")])
    def test_state_checks_name_the_sample_across_chunks(self, monkeypatch,
                                                        breach, message):
        # sample 300 lies in the second chunk of 256; a NaN, or a scale
        # that moves the trace by 2e-11, there and nowhere else
        exact = laserspin.simulate.propagate_batch

        def propagate_batch(*args):
            all_Us = exact(*args)
            for Us in all_Us:
                Us[300] *= breach
            return all_Us
        monkeypatch.setattr("laserspin.simulate.propagate_batch",
                            propagate_batch)
        with pytest.raises(IntegratorError,
                           match=f"^propagated state: {message}$"):
            run_scenario(config_from_dict(base_config(samples=601)))

    @pytest.mark.parametrize("t_end, stacks",
                             [(0.5, 2.0), (5.0, 2.6), (5.0, 1.6)])
    def test_a_long_trace_holds_about_one_stack(self, t_end, stacks):
        # 20 001 samples, composed within one period and over five; the
        # quarter-period run writes U straight into the rows of the result
        # and they are composed there, so a composed run holds one stack,
        # as a direct run does (measured 1.45 stacks, 1.39 direct)
        cfg = config_from_dict(base_config(t_end=t_end, samples=20001))
        tracemalloc.start()
        try:
            scenario_csv(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stacks * 20001 * 256


class TestSweep:
    def test_single_point_matches_simulate(self, tmp_path):
        cfg = config_from_dict(base_config())
        run_sweep(cfg, "eta", [0.1], jobs=1, out_dir=str(tmp_path / "s"))
        point = (tmp_path / "s" / "point_000.csv").read_text()
        assert point == scenario_csv(apply_sweep_value(cfg, "eta", 0.1))

    def test_parallel_determinism(self, tmp_path):
        cfg = config_from_dict(base_config(samples=11))
        values = [0.02, 0.05, 0.1]
        run_sweep(cfg, "eta", values, jobs=1, out_dir=str(tmp_path / "a"))
        run_sweep(cfg, "eta", values, jobs=4, out_dir=str(tmp_path / "b"))
        for k in range(3):
            name = f"point_{k:03d}.csv"
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() \
            == (tmp_path / "b" / "manifest.json").read_bytes()

    # t_end 1.02 laser periods straddles the motion period 4 K(eta): eta 0
    # (mu = 0) and 0.05 compose their samples from a quarter period, while
    # 0.3, 0.5 and 0.9 (moduli of 5 to 7 AGM levels), whose 9 samples lie
    # on the nodes of the 8-step grid within one period, run directly
    STRADDLING_ETAS = [0.0, 0.05, 0.3, 0.5, 0.9]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_batched_points_match_their_own_runs(self, tmp_path, monkeypatch,
                                                 jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = config_from_dict(base_config(t_end=1.02, samples=9))
        etas = self.STRADDLING_ETAS
        periods = [motion_period(modulus_from_params(
            apply_sweep_value(cfg, "eta", eta).laser, 1.0)) for eta in etas]
        assert [T < cfg.span for T in periods] == [True, True, False, False,
                                                    False]
        manifest = run_sweep(cfg, "eta", etas, jobs, str(tmp_path / "s"))
        assert [m["status"] for m in manifest] == ["ok"] * len(etas)
        for k, eta in enumerate(etas):
            assert (tmp_path / "s" / f"point_{k:03d}.csv").read_bytes() \
                == scenario_csv(apply_sweep_value(cfg, "eta", eta)).encode()

    def test_one_batch_asks_h_once_per_round(self, tmp_path, monkeypatch):
        # the points share each halving round's H call; the tail steps of
        # all samples take one more, and every point its own H times
        cfg = config_from_dict(base_config(t_end=1.02, samples=9))
        exact = laserspin.simulate.spin_hamiltonian
        sizes = []

        def counted(t, *args, **kwargs):
            sizes.append(t.size)
            return exact(t, *args, **kwargs)
        monkeypatch.setattr("laserspin.simulate.spin_hamiltonian", counted)
        alone = []
        for eta in self.STRADDLING_ETAS:
            run_scenario(apply_sweep_value(cfg, "eta", eta))
            alone.append(sizes[:])
            sizes.clear()
        run_sweep(cfg, "eta", self.STRADDLING_ETAS, 1, str(tmp_path / "s"))
        assert len(sizes) <= max(len(calls) for calls in alone) + 1
        assert sum(sizes) == sum(sum(calls) for calls in alone)

    def test_batches_hold_at_most_batch_matrices(self, tmp_path,
                                                 monkeypatch):
        # 9 samples a point under a bound of 20: the points run in pairs
        monkeypatch.setattr("laserspin.simulate.BATCH_MATRICES", 20)
        cfg = config_from_dict(base_config(t_end=1.02, samples=9))
        exact = laserspin.simulate.spin_hamiltonian
        batches = set()

        def counted(t, *, drives, point):
            batches.add(tuple(drives.columns.mu.tolist()))
            return exact(t, drives=drives, point=point)
        monkeypatch.setattr("laserspin.simulate.spin_hamiltonian", counted)
        etas = self.STRADDLING_ETAS
        run_sweep(cfg, "eta", etas, 1, str(tmp_path / "s"))
        assert batches == {tuple(etas[:2]), tuple(etas[2:4]), tuple(etas[4:])}
        monkeypatch.undo()
        for k, eta in enumerate(etas):
            assert (tmp_path / "s" / f"point_{k:03d}.csv").read_text() \
                == scenario_csv(apply_sweep_value(cfg, "eta", eta))

    def test_rejected_values_take_no_batch_slot(self, tmp_path,
                                                monkeypatch):
        # -1e308 overflows g_p and fails alone; the four values that build
        # run in pairs under a bound of 20 samples at 9 samples a point
        monkeypatch.setattr("laserspin.simulate.BATCH_MATRICES", 20)
        cfg = config_from_dict(readme_config())
        exact = laserspin.simulate.spin_hamiltonian
        batches = set()

        def counted(t, *, drives, point):
            batches.add(tuple(np.round(drives.columns.gtilde_p, 9).tolist()))
            return exact(t, drives=drives, point=point)
        monkeypatch.setattr("laserspin.simulate.spin_hamiltonian", counted)
        values = [3.0, -1e308, 2.0, 1.0, 0.5]
        manifest = run_sweep(cfg, "Delta-via-g_p", values, 1,
                             str(tmp_path / "s"))
        assert [m["status"] for m in manifest] == [
            "ok", "error: DomainError: g_p must be finite, got -inf",
            "ok", "ok", "ok"]
        assert batches == {(1.0, 2.0), (3.0, 3.5)}
        monkeypatch.undo()
        for k, value in enumerate(values):
            if k != 1:
                assert (tmp_path / "s" / f"point_{k:03d}.csv").read_text() \
                    == scenario_csv(apply_sweep_value(cfg, "Delta-via-g_p",
                                                      value))

    def test_a_point_derives_its_motion_period_once(self, tmp_path,
                                                    monkeypatch):
        # once when the point's config is built, none when it runs
        cfg = config_from_dict(base_config(samples=5))
        exact = laserspin.trajectory.complete_K
        calls = []

        def counted(mu):
            calls.append(mu)
            return exact(mu)
        monkeypatch.setattr("laserspin.trajectory.complete_K", counted)
        run_sweep(cfg, "eta", [0.02, 0.05, 0.1], 1, str(tmp_path / "s"))
        assert len(calls) == 3

    def test_workers_take_strided_batches(self, tmp_path, monkeypatch):
        # value i goes to worker i % workers, so that a cost growing along
        # the grid spreads over the workers; the files keep grid order
        tasks = []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                tasks.extend(work)
                return map(fn, work)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = config_from_dict(base_config(samples=5))
        values = [0.02, 0.04, 0.06, 0.08, 0.1]
        run_sweep(cfg, "eta", values, 2, str(tmp_path / "pooled"))
        assert [task[2] for task in tasks] == [values[0::2], values[1::2]]
        run_sweep(cfg, "eta", values, 1, str(tmp_path / "serial"))
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
        for name in names:
            assert (tmp_path / "pooled" / name).read_bytes() \
                == (tmp_path / "serial" / name).read_bytes()

    def test_failed_points_fail_as_they_do_alone(self, tmp_path,
                                                 monkeypatch):
        # g 1e300 overflows H, and g 120 needs more than the 64 steps
        # allowed here over the quarter period; the good points' CSVs are
        # those of a sweep without the two
        monkeypatch.setattr("laserspin.evolution.MAX_STEPS", 64)
        cfg = config_from_dict(base_config(t_end=1.02, samples=9))
        values = [0.1, 1e300, 0.05, 120.0, 0.02]
        manifest = run_sweep(cfg, "g_coupling", values, 1,
                             str(tmp_path / "mixed"))
        for entry, g in zip(manifest, values):
            try:
                run_scenario(apply_sweep_value(cfg, "g_coupling", g))
                alone = "ok"
            except Exception as exc:
                alone = f"error: {type(exc).__name__}: {exc}"
            assert entry["status"] == alone
        assert manifest[1]["status"].startswith(
            "error: DomainError: Magnus exponent is not finite on [0, ")
        assert manifest[3]["status"].startswith(
            "error: IntegratorError: 64 steps on [0, ")
        run_sweep(cfg, "g_coupling", [0.1, 0.05, 0.02], 1,
                  str(tmp_path / "good"))
        for mixed, good in ((0, 0), (2, 1), (4, 2)):
            assert (tmp_path / "mixed" / f"point_{mixed:03d}.csv"
                    ).read_bytes() \
                == (tmp_path / "good" / f"point_{good:03d}.csv").read_bytes()

    def test_a_raising_hamiltonian_fails_its_own_point(self, tmp_path,
                                                        monkeypatch):
        # an error raised by H names no point, so the batch reruns its
        # points alone
        cfg = config_from_dict(base_config(samples=5))
        good = [scenario_csv(apply_sweep_value(cfg, "eta", eta))
                for eta in (0.05, 0.1)]
        exact = laserspin.simulate.spin_hamiltonian

        def refusing(t, *, drives, point):
            if any(drives.at(p).mu == 0.07 for p in np.unique(point)):
                raise DomainError("no field at eta 0.07")
            return exact(t, drives=drives, point=point)
        monkeypatch.setattr("laserspin.simulate.spin_hamiltonian", refusing)
        manifest = run_sweep(cfg, "eta", [0.05, 0.07, 0.1], 1,
                             str(tmp_path / "s"))
        assert [m["status"] for m in manifest] == [
            "ok", "error: DomainError: no field at eta 0.07", "ok"]
        for k, csv_text in zip((0, 2), good):
            assert (tmp_path / "s" / f"point_{k:03d}.csv").read_text() \
                == csv_text

    def test_a_value_the_records_reject_fails_its_own_point(self, tmp_path):
        cfg = config_from_dict(base_config(samples=5))
        values = [0.05, -0.1, 0.1]
        manifest = run_sweep(cfg, "eta", values, 1, str(tmp_path / "s"))
        assert [m["status"] for m in manifest] == [
            "ok", "error: DomainError: eta must be >= 0, got -0.1", "ok"]
        assert not (tmp_path / "s" / "point_001.csv").exists()
        for k in (0, 2):
            assert (tmp_path / "s" / f"point_{k:03d}.csv").read_text() \
                == scenario_csv(apply_sweep_value(cfg, "eta", values[k]))

    def test_werner_sweep_initial_concurrence(self, tmp_path):
        cfg = config_from_dict(base_config(samples=5))
        values = [0.2, 0.4, 0.6, 0.8, 1.0]
        manifest = run_sweep(cfg, "p", values, jobs=1,
                             out_dir=str(tmp_path / "p"))
        assert all(m["status"] == "ok" for m in manifest)
        for k, p in enumerate(values):
            lines = (tmp_path / "p" / f"point_{k:03d}.csv").read_text().splitlines()
            c0 = float(lines[1].split(",")[1])
            assert c0 == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-9)

    def test_failed_point_recorded_not_fatal(self, tmp_path):
        cfg = config_from_dict(base_config(samples=5))
        manifest = run_sweep(cfg, "p", [0.5, 2.0], jobs=1,
                             out_dir=str(tmp_path / "f"))
        assert manifest[0]["status"] == "ok"
        assert manifest[1]["status"].startswith("error")
        assert (tmp_path / "f" / "point_000.csv").exists()
        assert not (tmp_path / "f" / "point_001.csv").exists()

    def test_failed_point_removes_an_earlier_csv(self, tmp_path):
        cfg = config_from_dict(base_config(samples=5))
        out_dir = tmp_path / "f"
        run_sweep(cfg, "p", [0.5, 0.6], jobs=1, out_dir=str(out_dir))
        manifest = run_sweep(cfg, "p", [0.5, 2.0], jobs=1,
                             out_dir=str(out_dir))
        assert manifest[1]["status"].startswith("error")
        assert (out_dir / "point_000.csv").exists()
        assert not (out_dir / "point_001.csv").exists()

    def test_delta_sweep_adjusts_second_ratio(self):
        cfg = config_from_dict(base_config())
        swept = apply_sweep_value(cfg, "Delta-via-g_p", 1.5)
        assert swept.bound.Delta == pytest.approx(1.5, abs=1e-12)
        assert swept.bound.gtilde("n") == cfg.bound.gtilde("n")

    def test_unknown_parameter(self):
        cfg = config_from_dict(base_config())
        with pytest.raises(ConfigError):
            apply_sweep_value(cfg, "mass_n", 2.0)

    def test_pool_sized_by_work(self, tmp_path, monkeypatch):
        # a serial stand-in records the pool size; no real pool is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        cfg = config_from_dict(base_config(samples=3))
        five = [0.02, 0.04, 0.06, 0.08, 0.1]
        for cpus, jobs, values in ((4, 100000, [0.1]), (4, 3, five),
                                   (4, 100000, five), (None, 8, five[:2])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            manifest = run_sweep(cfg, "eta", values, jobs,
                                 str(tmp_path / f"{cpus}_{jobs}_{len(values)}"))
            assert all(m["status"] == "ok" for m in manifest)
        # the one-worker sweeps run in this process and start no pool
        assert sizes == [3, 4]

    @pytest.mark.parametrize("cpus, jobs, values",
                             [(4, 4, [0.2]), (1, 2, [0.05, 0.1])],
                             ids=["one-value", "one-cpu"])
    def test_one_worker_runs_serially(self, tmp_path, monkeypatch, cpus, jobs,
                                      values):
        cfg = config_from_dict(base_config(samples=5))
        run_sweep(cfg, "eta", values, 1, str(tmp_path / "serial"))

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker sweep started a process pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run_sweep(cfg, "eta", values, jobs, str(tmp_path / "one"))
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() \
                == (tmp_path / "one" / name).read_bytes()


class TestInvariantChecks:
    """simulate and sweep reject the same invariant breaches."""

    @pytest.fixture
    def drifting(self, tmp_path, monkeypatch):
        # propagators scaled by 1 + 2.5e-13 give a trace error of 5e-13 at
        # every sample: above 10 * tol = 4e-13, inside the 1e-12 state
        # checks; 2 laser periods at tol 4e-14 sit just above the floor
        exact = laserspin.simulate.propagate_batch
        monkeypatch.setattr("laserspin.simulate.propagate_batch",
                            lambda *args: [(1.0 + 2.5e-13) * Us
                                           for Us in exact(*args)])
        return write_config(tmp_path, base_config(t_end=2.0, samples=9,
                                                  tol=4e-14))

    def test_simulate_exits_4(self, drifting, capsys):
        assert main(["simulate", "--config", drifting]) == 4
        assert "trace error 5.000e-13 exceeds 10*tol" in capsys.readouterr().err

    def test_sweep_exits_4(self, drifting, tmp_path, capsys):
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--config", drifting, "--param", "eta",
                     "--values", "0.1", "--jobs", "1",
                     "--out-dir", str(out_dir)]) == 4
        status = json.loads((out_dir / "manifest.json").read_text())[0]["status"]
        assert "IntegratorError: trace error 5.000e-13 exceeds 10*tol" in status
        assert not (out_dir / "point_000.csv").exists()

    @pytest.fixture
    def broken(self, tmp_path, monkeypatch):
        # propagators scaled by 1 + 1e-11 give a trace error of 2e-11: far
        # inside 10 * tol = 1e-5, outside the 1e-12 state checks
        exact = laserspin.simulate.propagate_batch
        monkeypatch.setattr("laserspin.simulate.propagate_batch",
                            lambda *args: [(1.0 + 1e-11) * Us
                                           for Us in exact(*args)])
        return write_config(tmp_path, base_config(t_end=2.0, samples=9,
                                                  tol=1e-6))

    def test_simulate_broken_state_exits_4(self, broken, capsys):
        assert main(["simulate", "--config", broken]) == 4
        assert ("integrator error: propagated state: density matrix trace "
                "differs from 1 at sample 0") in capsys.readouterr().err

    def test_sweep_broken_state_exits_4(self, broken, tmp_path, capsys):
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--config", broken, "--param", "eta",
                     "--values", "0.1", "--jobs", "1",
                     "--out-dir", str(out_dir)]) == 4
        status = json.loads((out_dir / "manifest.json").read_text())[0]["status"]
        assert ("IntegratorError: propagated state: density matrix trace "
                "differs from 1 at sample 0") in status

    @pytest.fixture
    def beyond_orbit(self, tmp_path, monkeypatch):
        # 2 |Phi+><00| carries I/4 to |Phi+><Phi+|: unit trace, PSD and
        # C = 1, but the unitary orbit of the Werner p = 0 state holds only
        # separable states
        phi = np.zeros((4, 4), dtype=complex)
        phi[[0, 3], 0] = math.sqrt(2.0)

        def propagate_batch(H, t_grids, tols, periods=None):
            all_Us = [np.repeat(phi[None], len(t_grid), axis=0)
                      for t_grid in t_grids]
            for Us in all_Us:
                Us[0] = np.eye(4)
            return all_Us
        monkeypatch.setattr("laserspin.simulate.propagate_batch",
                            propagate_batch)
        return write_config(tmp_path, base_config(
            initial_state={"type": "werner", "p": 0.0}, samples=5))

    def test_simulate_beyond_unitary_orbit_exits_4(self, beyond_orbit, capsys):
        assert main(["simulate", "--config", beyond_orbit]) == 4
        assert ("exceeds the unitary-orbit bound 0 of the initial state at "
                "t = 1.57") in capsys.readouterr().err

    def test_sweep_beyond_unitary_orbit_exits_4(self, beyond_orbit, tmp_path):
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--config", beyond_orbit, "--param", "eta",
                     "--values", "0.1", "--jobs", "1",
                     "--out-dir", str(out_dir)]) == 4
        status = json.loads((out_dir / "manifest.json").read_text())[0]["status"]
        assert "exceeds the unitary-orbit bound" in status


class TestMainExitCodes:
    def test_simulate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(samples=5))
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_simulate_to_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(samples=3))
        assert main(["simulate", "--config", path]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(typo_key=1))
        assert main(["simulate", "--config", path]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_invalid_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("content", [b'{"t_end": "\xff"}',
                                         b"[" * 200_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_config_is_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config is not valid JSON: ")

    def test_domain_error_is_3(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(
            laser={"eta": 0.5, "epsilon": 0.9}))
        assert main(["simulate", "--config", path]) == 3

    def test_sweep_cli(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(samples=5))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--config", path, "--param", "eta",
                     "--values", "0.05,0.1", "--jobs", "2",
                     "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [m["status"] for m in manifest] == ["ok", "ok"]

    def test_simulate_unwritable_out_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(samples=3))
        out = tmp_path / "missing" / "rows.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert str(out) in err and "Traceback" not in err

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys,
                                                 monkeypatch):
        def run_scenario(cfg):
            raise AssertionError("the run started")
        monkeypatch.setattr("laserspin.simulate.run_scenario", run_scenario)
        path = write_config(tmp_path, base_config(samples=3))
        out = tmp_path / "missing" / "rows.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert "cannot write output: " in capsys.readouterr().err

    def test_failed_run_leaves_no_file(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(
            laser={"eta": 0.5, "epsilon": 0.9}))
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        assert not out.exists()
        # a file already there is left as it was
        out.write_text("kept")
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        assert out.read_text() == "kept"

    def test_sweep_out_dir_on_a_file_is_2(self, tmp_path, capsys,
                                          monkeypatch):
        ran = []
        monkeypatch.setattr("laserspin.simulate.scenario_csv",
                            lambda cfg: ran.append(cfg))
        path = write_config(tmp_path, base_config(samples=3))
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        assert main(["sweep", "--config", path, "--param", "eta",
                     "--values", "0.1", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert str(out_dir) in err and "Traceback" not in err
        assert ran == []

    def test_sweep_bad_values_is_2(self, tmp_path):
        path = write_config(tmp_path, base_config(samples=5))
        assert main(["sweep", "--config", path, "--param", "eta",
                     "--values", "0.1,zap"]) == 2

    @pytest.mark.parametrize("args, message", [
        (["--values", "0.1", "--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["--values", ","], "sweep value grid must be nonempty")],
        ids=["no-jobs", "no-values"])
    def test_sweep_bad_grid_or_jobs_is_2(self, tmp_path, capsys, args,
                                         message):
        path = write_config(tmp_path, base_config(samples=5))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--config", path, "--param", "eta", *args,
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("state, param", [
        (_PRODUCT, "p"), ({"type": "werner", "p": 0.8}, "alpha"),
        ({"type": "werner", "p": 0.8}, "beta")])
    def test_sweep_param_not_of_the_state_is_2(self, tmp_path, capsys,
                                               state, param):
        path = write_config(tmp_path, base_config(samples=5,
                                                  initial_state=state))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--config", path, "--param", param,
                     "--values", "0.5,0.6", "--out-dir", str(out_dir)]) == 2
        assert f"sweeping '{param}' requires" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_delta_sweep_without_charge_p_is_2(self, tmp_path, capsys):
        bound = dict(base_config()["bound"], charge_p=0.0)
        path = write_config(tmp_path, base_config(samples=5, bound=bound))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--config", path, "--param", "Delta-via-g_p",
                     "--values", "1.0,2.0", "--out-dir", str(out_dir)]) == 2
        assert "requires a nonzero charge_p" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("values", ["nan,inf", "0.1,-inf"])
    def test_sweep_non_finite_values_is_2(self, tmp_path, capsys, values):
        path = write_config(tmp_path, base_config(samples=5))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--config", path, "--param", "eta",
                     "--values", values, "--out-dir", str(out_dir)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out_dir / "manifest.json").exists()

    def test_validate_filter_pass(self, capsys):
        assert main(["validate", "--filter", "euler"]) == 0
        assert "[PASS] euler" in capsys.readouterr().out

    def test_validate_concurrence_pass(self, capsys):
        assert main(["validate", "--filter", "concurrence"]) == 0
        line = capsys.readouterr().out
        assert line.startswith("[PASS] concurrence")
        for label in ("werner dev", "tracking dev", "null max C",
                      "werner closed form"):
            assert label in line

    # the gate of every check of the oracles with more than one
    VALIDATE_GATES = {
        "lorentz": {"residual": 1e-6, "invariant drift": 1e-8},
        "factorization": {"U vs W X": 1e-6, "X vs S Y": 1e-6},
        "concurrence": {"werner dev": 0.025, "tracking dev": 0.9,
                        "null max C": 1e-10, "werner closed form": 1e-12}}

    def test_validate_prints_each_check_beside_its_gate(self, monkeypatch,
                                                        capsys):
        from laserspin import validate
        run, results = validate.run_validate, []

        def recorded(*args, **kwargs):
            out = run(*args, **kwargs)
            results.extend(out[0])
            return out

        monkeypatch.setattr(validate, "run_validate", recorded)
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(results) == 6
        for line, r in zip(lines, results):
            assert line.startswith(f"[PASS] {r.name}: ")
            rows = line.split(": ", 1)[1].split(" -- ")[0].split("; ")
            printed = {}
            for row in rows:
                label, rest = row.split(" (gate ")
                printed[label.rsplit(" ", 1)[0]] = float(rest.rstrip(")"))
            gates = {c.label: c.gate for c in r.checks}
            assert printed == pytest.approx(gates, rel=1e-12)
            if r.name in self.VALIDATE_GATES:
                assert gates == pytest.approx(self.VALIDATE_GATES[r.name],
                                              rel=1e-12)

    def test_a_failing_check_fails_its_line(self, monkeypatch, capsys):
        # a Werner deviation of 0.5, within the loosest gate of the oracle
        # (0.9) but not its own (0.025), while the other checks pass
        from laserspin import validate
        scenario = validate.run_scenario

        def shifted(cfg):
            trace = scenario(cfg)
            if cfg.initial_state.kind != "werner":
                return trace
            return trace._replace(
                concurrence_numeric=trace.concurrence_numeric + 0.5)

        monkeypatch.setattr(validate, "run_scenario", shifted)
        assert main(["validate", "--filter", "concurrence"]) == 1
        line = capsys.readouterr().out
        assert line.startswith("[FAIL] concurrence: werner dev 5.00")
        assert "(gate 0.025); tracking dev 0.000e+00 (gate 0.9)" in line

    def test_concurrence_oracle_composes_periods(self, monkeypatch):
        # the product checks and the closed-form Werner check span two
        # laser periods, past the motion period, so run_scenario composes
        # their later samples
        from laserspin.simulate import propagate_batch
        from laserspin.validate import oracle_concurrence
        calls = []

        def spy(H_of_t, t_grids, tols, periods=None):
            calls.extend((period, t_grid[-1])
                         for period, t_grid in zip(periods, t_grids))
            return propagate_batch(H_of_t, t_grids, tols, periods)

        monkeypatch.setattr("laserspin.simulate.propagate_batch", spy)
        assert oracle_concurrence().passed
        assert [period < span for period, span in calls] \
            == [False, True, True, True]

    def test_werner_closed_form_catches_a_concurrence_error(self, monkeypatch,
                                                            capsys):
        # 1e-9 added by the run path's kernel stays far inside the
        # leading-order gates, but not inside the roundoff gate of the
        # closed form in U
        from laserspin import simulate
        kernel = simulate.concurrence_from_factor
        monkeypatch.setattr(simulate, "concurrence_from_factor",
                            lambda B: kernel(B) + 1e-9)
        from laserspin.validate import oracle_concurrence
        row, = (c for c in oracle_concurrence().checks
                if c.label == "werner closed form")
        assert not row.passed and row.deviation == pytest.approx(1e-9,
                                                                 rel=1e-3)
        assert main(["validate", "--filter", "concurrence"]) == 1
        assert "[FAIL] concurrence" in capsys.readouterr().out

    def test_elliptic_oracle_catches_a_quarter_period_error(self,
                                                            monkeypatch,
                                                            capsys):
        # K off by 1e-9 moves the inversion of the first-kind integral by
        # about 1e-8, against a roundoff gate of 1e-12
        from laserspin import elliptic
        exact = elliptic._descent
        monkeypatch.setattr(elliptic, "_descent", lambda moduli: (
            exact(moduli)[0] * (1.0 + 1e-9), *exact(moduli)[1:]))
        assert main(["validate", "--filter", "elliptic"]) == 1
        assert "[FAIL] elliptic" in capsys.readouterr().out

    def test_factorization_oracle_catches_an_exchange_error(self,
                                                            monkeypatch,
                                                            capsys):
        # the sigma . sigma row of H_S off by 1e-5 moves U by about 2.5e-6,
        # while the analytic W X keeps the exact g
        from laserspin import spinfield
        operators = spinfield._OPERATORS.copy()
        operators[-1] *= 1.0 + 1e-5
        monkeypatch.setattr(spinfield, "_OPERATORS", operators)
        assert main(["validate", "--filter", "factorization"]) == 1
        rows = factorization_rows(capsys.readouterr().out)
        assert rows["X vs S Y"] < 1e-6 < rows["U vs W X"]

    def test_factorization_oracle_catches_a_psi_error(self, monkeypatch,
                                                      capsys):
        # psi off by 1e-4 in S = exp(-i g/4 psi S) moves the X row to about
        # 2.5e-5, while the U row, which takes no psi, stays at 3.3e-10
        from laserspin import validate
        exact = validate.psi_integral
        monkeypatch.setattr(validate, "psi_integral",
                            lambda t, *a: exact(t, *a) * (1.0 + 1e-4))
        assert main(["validate", "--filter", "factorization"]) == 1
        rows = factorization_rows(capsys.readouterr().out)
        assert rows["U vs W X"] < 1e-6 < rows["X vs S Y"]

    def test_factorization_oracle_batches_its_u_runs(self, monkeypatch):
        # the eight U runs of H_S share each halving round's H call
        from laserspin import validate
        exact, points = validate.spin_hamiltonian, []

        def spy(t, *, drives, point):
            points.append(set(point.tolist()))
            return exact(t, drives=drives, point=point)

        monkeypatch.setattr(validate, "spin_hamiltonian", spy)
        assert validate.oracle_factorization().passed
        assert points[0] == set(range(8)) and len(points) < 8

    def test_factorization_oracle_batches_its_x_and_y_runs(self,
                                                           monkeypatch):
        # one batch each for U, X and Y, no run of one point; X and Y keep
        # the bits of their own propagate runs
        from laserspin import validate
        from laserspin.validate import (interaction_picture_hamiltonian,
                                        interaction_term)
        exact, batches = validate.propagate_batch, []

        def spy(H_of_t, t_grids, tols, periods=None):
            batches.append(exact(H_of_t, t_grids, tols, periods))
            return batches[-1]

        def alone(*args):
            raise AssertionError("a run of one point")

        monkeypatch.setattr(validate, "propagate_batch", spy)
        monkeypatch.setattr(validate, "propagate", alone)
        assert validate.oracle_factorization().passed
        assert [len(batch) for batch in batches] == [8, 8, 8]
        times = np.linspace(0.0, 2.0 * math.pi, 9)
        # the oracle's last two points: eta 0.2, Delta 1.5
        for p, g in ((6, 0.02), (7, 0.08)):
            laser = LaserParams(eta=0.2, epsilon=0.0)
            point = (laser, modulus_from_params(laser, 1.0),
                     BoundStateParams.from_gtildes(2.0, 0.5, g))
            assert np.array_equal(batches[1][p], propagate(
                lambda t: interaction_picture_hamiltonian(t, *point), times,
                1e-12))
            assert np.array_equal(batches[2][p], propagate(
                lambda t: interaction_term(t, *point), times, 1e-8))

    def test_validate_unknown_filter_is_2(self, capsys):
        assert main(["validate", "--filter", "bogus"]) == 2

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, laserspin.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_python(["-c", code]) == "[]"

    def test_cli_import_loads_no_process_pool(self):
        # only a sweep with --jobs > 1 needs the pool, and loading it costs
        # every other run start-up time
        code = ("import sys, laserspin.cli; print(sorted(m for m in "
                "sys.modules if m.startswith(('concurrent.futures', "
                "'multiprocessing'))))")
        assert run_python(["-c", code]) == "[]"

    def test_package_import_loads_no_numpy(self):
        # nor does a library import touch the BLAS settings
        code = ("import os, sys, laserspin; print('numpy' in sys.modules); "
                "laserspin.propagate; print('numpy' in sys.modules, "
                "os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert run_python(["-c", code], OPENBLAS_NUM_THREADS=None) \
            == "False\nTrue None"

    def test_cli_import_loads_no_validate(self):
        code = "import sys, laserspin.cli; print('laserspin.validate' in " \
               "sys.modules)"
        assert run_python(["-c", code]) == "False"

    def test_layer_import_loads_no_upper_layer(self):
        # the propagator needs no drive, trajectory or oracle, and the
        # states and their checks need no propagator
        for module, upper in (
                ("evolution", ("elliptic", "spinfield", "trajectory",
                               "validate")),
                ("entanglement", ("evolution",))):
            code = (f"import sys, laserspin.{module}; print(sorted(m for m "
                    f"in {upper!r} if 'laserspin.' + m in sys.modules))")
            assert run_python(["-c", code]) == "[]", module

    def test_cli_runs_blas_on_one_thread(self):
        code = ("import os, laserspin.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        expected = ["1"]
        if sys.platform.startswith("linux"):
            # numpy is loaded by now, with no BLAS thread beside the main one
            code += ("; print(*[line.split()[1] for line in "
                     "open('/proc/self/status') if line.startswith('Threads:')])")
            expected.append("1")
        assert run_python(["-c", code], OPENBLAS_NUM_THREADS=None,
                          MKL_NUM_THREADS=None).split() == expected

    def test_user_blas_threads_win(self):
        code = ("import os, laserspin.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert run_python(["-c", code], OPENBLAS_NUM_THREADS="2") == "2"

    def test_simulate_identical_across_blas_threads(self, tmp_path):
        path = write_config(tmp_path, base_config(samples=41))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"rows-{threads}.csv"
            run_python(["-m", "laserspin", "simulate", "--config", path,
                        "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].decode().startswith(CSV_HEADER)

    def test_every_exported_name_resolves(self):
        for name in laserspin.__all__:
            assert getattr(laserspin, name) is not None
        assert set(laserspin.__all__) <= set(dir(laserspin))
        with pytest.raises(AttributeError, match="no_such_name"):
            laserspin.no_such_name

    def test_validate_negative_control(self, capsys):
        # deliberately perturbed modulus must trip the lorentz oracle
        assert main(["validate", "--filter", "lorentz",
                     "--inject-mu-error", "0.001"]) == 1
        assert "[FAIL] lorentz" in capsys.readouterr().out
