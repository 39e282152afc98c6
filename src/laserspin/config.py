"""Scenario configuration: strict, versioned JSON in, dataclasses out.

Unknown keys are hard errors naming the offending key; silent typos in
physics parameters are the main user hazard this guards against.  Unit
convention at the boundary: omega_L (default 1.0) and the coupling g are
angular frequencies in one common unit, the inverse of the time unit, and
t_end is in laser periods.  Changing omega_L at a fixed g changes the
dynamics; scaling both by one factor only rescales time.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entanglement import product_state, werner_state
from .errors import ConfigError, DomainError
from .evolution import TOL_BOUNDS, period_tolerance
from .spinfield import BoundStateParams
from .trajectory import LaserParams, modulus_from_params, motion_period

SCHEMA_VERSION = 1
# samples per scenario; a run holds one (N, 4, 4) stack, composed or not
# (`evolution._compose`), and peaks at 0.37 kB a sample (tracemalloc of
# scenario_csv at 20 001 samples), so stays below 0.4 GB
MAX_SAMPLES = 1_000_000

# the keys of each section of a scenario file, each with its type, or
# (type, default) for an optional key
SECTION_KEYS = {
    "config": {"schema": int, "laser": dict, "bound": dict, "gamma_z": float,
               "initial_state": dict, "t_end": float, "samples": int,
               "tol": float},
    "laser": {"eta": float, "epsilon": float, "omega_L": (float, 1.0)},
    "bound": {"mass_n": float, "mass_p": float, "charge_n": float,
              "charge_p": float, "g_n": float, "g_p": float,
              "g_coupling": float},
}
# the parameters of each initial-state kind, beside its 'type'
STATE_KEYS = {"werner": {"p": float},
              "product": {"alpha": float, "beta": float},
              "explicit": {"matrix": object}}


@dataclass(frozen=True)
class InitialState:
    """Tagged initial-state choice: werner(p), product(alpha, beta), explicit."""

    kind: str
    p: float | None = None
    alpha: float | None = None
    beta: float | None = None
    matrix: tuple | None = None

    def build(self) -> np.ndarray:
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

    @property
    def span(self) -> float:
        """The run's time span: t_end laser periods in time units."""
        return self.t_end * (2.0 * math.pi / self.laser.omega_L)

    @cached_property
    def period(self) -> float:
        """The drive's :func:`motion_period`, derived once; every access
        raises the DomainError of invalid kinematics."""
        return motion_period(modulus_from_params(self.laser, self.gamma_z))

    def _check_periods(self) -> None:
        """Reject a time span that is not finite, or a t_end whose budget
        `period_tolerance` puts on the tolerance floor."""
        try:
            period = self.period
        except DomainError:
            return      # reported as a physics-domain error by the run
        span = self.span
        if not math.isfinite(span):
            raise ConfigError(f"t_end = {self.t_end} laser periods at omega_L "
                              f"= {self.laser.omega_L} span {span} time units")
        if span > period:
            try:
                period_tolerance(self.tol, period, span)
            except DomainError as exc:
                raise ConfigError(f"t_end = {self.t_end} laser periods at "
                                  f"tol = {self.tol}: {exc}") from None


def _take(mapping: dict, context: str, keys: dict) -> dict:
    """Extract the keys of a section table with type checks; unknown keys
    are errors, and a key missing from mapping takes its default."""
    out = {}
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"unknown key '{key}' in {context}")
    for key, spec in keys.items():
        typ, *default = spec if isinstance(spec, tuple) else (spec,)
        if key in mapping:
            out[key] = _coerce(mapping[key], typ, f"{context}.{key}")
        elif default:
            out[key] = default[0]
        else:
            raise ConfigError(f"missing key '{key}' in {context}")
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
    if "type" not in raw:
        raise ConfigError("missing key 'type' in initial_state")
    kind = _coerce(raw["type"], str, "initial_state.type")
    if kind not in STATE_KEYS:
        *others, last = map(repr, STATE_KEYS)
        raise ConfigError(f"initial_state.type must be {', '.join(others)} "
                          f"or {last}, got {kind!r}")
    got = _take(raw, "initial_state", {"type": str, **STATE_KEYS[kind]})
    del got["type"]
    if kind == "explicit":
        entry = lambda x: _coerce(x, float, "initial_state.matrix")
        try:
            got["matrix"] = tuple(tuple(tuple(map(entry, e)) for e in row)
                                  for row in got["matrix"])
        except TypeError:
            raise ConfigError(
                "initial_state.matrix must be 4 rows of 4 [re, im] pairs")
        if len(got["matrix"]) != 4 or any(
                len(r) != 4 or any(len(e) != 2 for e in r)
                for r in got["matrix"]):
            raise ConfigError(
                "initial_state.matrix must be 4 rows of 4 [re, im] pairs")
    return InitialState(kind=kind, **got)


def config_from_dict(raw: dict) -> ScenarioConfig:
    top = _take(raw, "config", SECTION_KEYS["config"])
    if top["schema"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema version {top['schema']}, expected {SCHEMA_VERSION}")
    # both sections are parsed before either record is built, so that a
    # key error in bound exits 2 ahead of a domain error of the laser
    laser, bound = (_take(top[name], name, SECTION_KEYS[name])
                    for name in ("laser", "bound"))
    return ScenarioConfig(
        laser=LaserParams(**laser), bound=BoundStateParams(**bound),
        gamma_z=top["gamma_z"],
        initial_state=_parse_initial_state(top["initial_state"]),
        t_end=top["t_end"], samples=top["samples"], tol=top["tol"],
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bytes that are not UTF-8;
        # RecursionError, arrays or objects nested too deep to parse
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)
