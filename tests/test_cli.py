import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import laserspin
from laserspin.cli import main
from laserspin.config import config_from_dict, load_config
from laserspin.errors import ConfigError
from laserspin.simulate import (CSV_HEADER, apply_sweep_value, run_scenario,
                                run_sweep, scenario_csv)


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
        # one motion period is integrated at tol T_m / t_end, which 1e9
        # laser periods at tol 1e-6 put below the floor 1e-14
        path = write_config(tmp_path, base_config(t_end=1e9))
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "t_end = 1000000000.0" in err and "tol = 1e-06" in err
        for t_end in (1e300, 1.7e308):
            with pytest.raises(ConfigError, match="not above 1e-14"):
                config_from_dict(base_config(t_end=t_end))
        # 1e5 periods leave 1e-11 and run in about a second
        path = write_config(tmp_path, base_config(t_end=1e5, samples=3))
        assert main(["simulate", "--config", path]) == 0


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

    def test_overflow_recorded_by_a_sweep_point(self, tmp_path):
        cfg = config_from_dict(readme_config(("bound", "g_n"), 1e200))
        manifest = run_sweep(cfg, "eta", [0.1], jobs=1,
                             out_dir=str(tmp_path / "s"))
        assert manifest[0]["status"].startswith(
            "error: DomainError: Magnus exponent is not finite")

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
        m = [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
             for i in range(4)]
        cfg = config_from_dict(base_config(
            initial_state={"type": "explicit", "matrix": m}))
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
        assert sizes == [1, 3, 4, 1]


class TestInvariantChecks:
    """simulate and sweep reject the same invariant breaches."""

    @pytest.fixture
    def drifting(self, tmp_path, monkeypatch):
        # propagators scaled by 1 + 2.5e-13 give a trace error of 5e-13 at
        # every sample: above 10 * tol = 2e-13, inside the 1e-12 state checks
        exact = laserspin.simulate.propagate
        monkeypatch.setattr("laserspin.simulate.propagate",
                            lambda *args: (1.0 + 2.5e-13) * exact(*args))
        return write_config(tmp_path, base_config(t_end=2.0, samples=9,
                                                  tol=2e-14))

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
        exact = laserspin.simulate.propagate
        monkeypatch.setattr("laserspin.simulate.propagate",
                            lambda *args: (1.0 + 1e-11) * exact(*args))
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

        def propagate(H, t_grid, tol, period=None):
            Us = np.repeat(phi[None], len(t_grid), axis=0)
            Us[0] = np.eye(4)
            return Us
        monkeypatch.setattr("laserspin.simulate.propagate", propagate)
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

    def test_validate_unknown_filter_is_2(self, capsys):
        assert main(["validate", "--filter", "bogus"]) == 2

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(laserspin.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, laserspin.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        assert out.stdout.strip() == "[]"

    def test_cli_import_loads_no_process_pool(self):
        # only a sweep with --jobs > 1 needs the pool, and loading it costs
        # every other run start-up time
        src = str(Path(laserspin.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, laserspin.cli; print(sorted(m for m in "
                "sys.modules if m.startswith(('concurrent.futures', "
                "'multiprocessing'))))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        assert out.stdout.strip() == "[]"

    def test_validate_negative_control(self, capsys):
        # deliberately perturbed modulus must trip the lorentz oracle
        assert main(["validate", "--filter", "lorentz",
                     "--inject-mu-error", "0.001"]) == 1
        assert "[FAIL] lorentz" in capsys.readouterr().out
