"""Scenario configuration: strict, versioned JSON in, dataclasses out.

Unknown keys are hard errors naming the offending key; silent typos in
physics parameters are the main user hazard this guards against.  Unit
convention at the boundary: omega_L is the frequency unit (default 1.0),
the coupling g is entered in units of omega_L and t_end in laser periods.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigError, DomainError
from .evolution import TOL_BOUNDS, period_tolerance
from .spinfield import BoundStateParams
from .trajectory import LaserParams, modulus_from_params, motion_period

SCHEMA_VERSION = 1
# samples per scenario; at about 1.3 kB each a run stays near 1.3 GB
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class InitialState:
    """Tagged initial-state choice: werner(p), product(alpha, beta), explicit."""

    kind: str
    p: float | None = None
    alpha: float | None = None
    beta: float | None = None
    matrix: tuple | None = None

    def build(self) -> np.ndarray:
        from .entanglement import product_state, werner_state
        if self.kind == "werner":
            return werner_state(self.p)
        if self.kind == "product":
            return product_state(self.alpha, self.beta)
        return np.array([[complex(re, im) for re, im in row]
                         for row in self.matrix])


@dataclass(frozen=True)
class ScenarioConfig:
    laser: LaserParams
    bound: BoundStateParams
    gamma_z: float
    initial_state: InitialState
    t_end: float          # in laser periods
    samples: int
    tol: float

    def __post_init__(self):
        if not 2 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"samples must lie in [2, {MAX_SAMPLES}], "
                              f"got {self.samples}")
        if not (TOL_BOUNDS[0] < self.tol < TOL_BOUNDS[1]):
            raise ConfigError(f"tol must lie in {TOL_BOUNDS}, got {self.tol}")
        if self.t_end <= 0.0 or math.isnan(self.t_end):
            raise ConfigError(f"t_end must be > 0, got {self.t_end}")
        self._check_periods()

    def _check_periods(self) -> None:
        """A run beyond one motion period integrates that period at the
        `period_tolerance` of tol; reject a t_end that puts it on the floor,
        or a time span that is not finite."""
        try:
            kin = modulus_from_params(self.laser, self.gamma_z)
        except DomainError:
            return      # reported as a physics-domain error by the run
        # the same floating-point operations as run_scenario and propagate
        span = self.t_end * (2.0 * math.pi / self.laser.omega_L)
        period = motion_period(kin)
        if span > period:
            try:
                period_tolerance(self.tol, period, span)
            except DomainError as exc:
                raise ConfigError(f"t_end = {self.t_end} laser periods at "
                                  f"tol = {self.tol}: {exc}") from None
        if not math.isfinite(span):
            raise ConfigError(f"t_end = {self.t_end} laser periods at omega_L "
                              f"= {self.laser.omega_L} span {span} time units")


def _take(mapping: dict, context: str, required: dict[str, type],
          optional: dict[str, Any] | None = None) -> dict:
    """Extract keys with type checks; unknown keys are errors."""
    optional = optional or {}
    out = {}
    for key in mapping:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key '{key}' in {context}")
    for key, typ in required.items():
        if key not in mapping:
            raise ConfigError(f"missing key '{key}' in {context}")
        out[key] = _coerce(mapping[key], typ, f"{context}.{key}")
    for key, default in optional.items():
        if key in mapping:
            out[key] = _coerce(mapping[key], type(default) if default is not None
                               else object, f"{context}.{key}")
        else:
            out[key] = default
    return out


def _coerce(value, typ, where: str):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        # rejects NaN, +-Infinity and integers beyond the float range
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    if typ is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        return value
    return value


def _parse_initial_state(raw: dict) -> InitialState:
    kind = _coerce(raw.get("type"), str, "initial_state.type") if "type" in raw \
        else None
    if kind is None:
        raise ConfigError("missing key 'type' in initial_state")
    if kind == "werner":
        got = _take(raw, "initial_state", {"type": str, "p": float})
        return InitialState(kind="werner", p=got["p"])
    if kind == "product":
        got = _take(raw, "initial_state",
                    {"type": str, "alpha": float, "beta": float})
        return InitialState(kind="product", alpha=got["alpha"], beta=got["beta"])
    if kind == "explicit":
        got = _take(raw, "initial_state", {"type": str, "matrix": object})
        m = got["matrix"]
        entry = lambda x: _coerce(x, float, "initial_state.matrix")
        try:
            rows = tuple(tuple((entry(e[0]), entry(e[1])) for e in row)
                         for row in m)
        except (TypeError, LookupError):
            raise ConfigError(
                "initial_state.matrix must be 4 rows of 4 [re, im] pairs")
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ConfigError(
                "initial_state.matrix must be 4 rows of 4 [re, im] pairs")
        return InitialState(kind="explicit", matrix=rows)
    raise ConfigError(
        f"initial_state.type must be 'werner', 'product' or 'explicit', "
        f"got {kind!r}")


def config_from_dict(raw: dict) -> ScenarioConfig:
    top = _take(raw, "config", {
        "schema": int, "laser": dict, "bound": dict, "gamma_z": float,
        "initial_state": dict, "t_end": float, "samples": int, "tol": float,
    })
    if top["schema"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema version {top['schema']}, expected {SCHEMA_VERSION}")

    laser_raw = _take(top["laser"], "laser",
                      {"eta": float, "epsilon": float},
                      {"omega_L": 1.0})
    bound_raw = _take(top["bound"], "bound", {
        "mass_n": float, "mass_p": float, "charge_n": float, "charge_p": float,
        "g_n": float, "g_p": float, "g_coupling": float,
    })
    laser = LaserParams(**laser_raw)
    bound = BoundStateParams(**bound_raw)
    state = _parse_initial_state(top["initial_state"])
    return ScenarioConfig(
        laser=laser, bound=bound, gamma_z=top["gamma_z"],
        initial_state=state, t_end=top["t_end"],
        samples=top["samples"], tol=top["tol"],
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)
