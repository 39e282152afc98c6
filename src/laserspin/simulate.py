"""Scenario execution: concurrence traces, CSV output, parameter sweeps.

Every sweep point is an independent pure computation; the CSV bytes of a
point depend only on its configuration, never on scheduling, which makes
sweep outputs byte-identical across parallelism degrees.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import STATE_KEYS, ScenarioConfig
from .entanglement import (concurrence_product_analytic,
                           concurrence_werner_analytic, unitary_orbit_bound,
                           wootters_concurrence)
from .errors import ConfigError, IntegratorError, InvalidStateError
from .evolution import propagate, validate_density_matrix
from .pauli import IDENTITY4
from .spinfield import spin_hamiltonian
from .trajectory import modulus_from_params, motion_period

# each sweepable parameter, with the record it sets: the laser, the bound
# system, or the initial state of the kind in STATE_KEYS it needs
SWEEPABLE = {"eta": "laser", "epsilon": "laser", "p": "werner",
             "alpha": "product", "beta": "product", "g_coupling": "bound",
             "Delta-via-g_p": "bound"}


class Trace(NamedTuple):
    """The CSV columns of a run, one (N,) array per sample time; the
    analytic column is None for an explicit initial state."""

    t: np.ndarray
    concurrence_numeric: np.ndarray
    concurrence_analytic: np.ndarray | None
    purity: np.ndarray
    trace_error: np.ndarray
    unitarity_error: np.ndarray


CSV_HEADER = ",".join(Trace._fields)
_CSV_ROW = "%.12g,%.12g,%s,%.12g,%.12g,%.12g"


def rows_to_csv(trace: Trace) -> str:
    """The header and one line per sample, 12 significant digits, the
    analytic field left empty when there is no analytic column."""
    columns = [[None] * len(trace.t) if c is None else c.tolist()
               for c in trace]
    lines = [CSV_HEADER]
    for t, numeric, analytic, *rest in zip(*columns):
        lines.append(_CSV_ROW % (t, numeric, "" if analytic is None
                                 else "%.12g" % analytic, *rest))
    return "\n".join(lines) + "\n"


def _analytic_column(cfg: ScenarioConfig,
                     t_grid: np.ndarray) -> np.ndarray | None:
    state = cfg.initial_state
    if state.kind == "werner":
        return np.full(t_grid.shape, concurrence_werner_analytic(state.p))
    if state.kind == "product":
        return concurrence_product_analytic(
            t_grid, state.alpha, state.beta, cfg.laser.eta,
            cfg.bound.g_coupling, cfg.bound.Delta, cfg.laser.omega_L)
    return None


def run_scenario(cfg: ScenarioConfig) -> Trace:
    """Evolve the configured initial state and return its CSV columns,
    each evaluated on the whole time grid at once.

    The drive is periodic in the motion period, so a run of many periods
    integrates one of them (see :func:`propagate`).  Raises
    IntegratorError when a propagated state fails the state checks, a
    trace error reaches 10 * tol or a concurrence exceeds the
    unitary-orbit bound of rho0 by 10 * tol, naming the first such
    sample.
    """
    kin = modulus_from_params(cfg.laser, cfg.gamma_z)
    rho0 = validate_density_matrix(cfg.initial_state.build())
    t_grid = np.linspace(0.0, cfg.span, cfg.samples)

    H = lambda t: spin_hamiltonian(t, cfg.laser, kin, cfg.bound)
    Us = propagate(H, t_grid, cfg.tol, motion_period(kin))
    unitarity_error = np.abs(Us @ Us.conj().swapaxes(-1, -2)
                             - IDENTITY4).max(axis=(-2, -1))
    rhos = Us @ rho0 @ Us.conj().swapaxes(-1, -2)
    # free the propagators before the concurrence allocates its
    # temporaries, so that a long trace peaks one (N, 4, 4) stack lower
    del Us
    try:
        concurrence = wootters_concurrence(rhos)
    except InvalidStateError as exc:
        # rho0 passed the same checks, so the propagation broke the state
        raise IntegratorError(f"propagated state: {exc}") from exc
    trace_error = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    drifted = np.flatnonzero(trace_error >= 10.0 * cfg.tol)
    if drifted.size:
        k = drifted[0]
        raise IntegratorError(f"trace error {trace_error[k]:.3e} exceeds "
                              f"10*tol at t = {float(t_grid[k])}")
    bound = unitary_orbit_bound(rho0)
    above = np.flatnonzero(concurrence > bound + 10.0 * cfg.tol)
    if above.size:
        k = above[0]
        raise IntegratorError(f"concurrence {concurrence[k]} exceeds the "
                              f"unitary-orbit bound {bound:.6g} of the initial "
                              f"state at t = {float(t_grid[k])}")

    return Trace(t_grid, concurrence, _analytic_column(cfg, t_grid),
                 np.trace(rhos @ rhos, axis1=-2, axis2=-1).real,
                 trace_error, unitarity_error)


def scenario_csv(cfg: ScenarioConfig) -> str:
    return rows_to_csv(run_scenario(cfg))


def write_output(path, text: str) -> None:
    """Write text to the file at path; an unwritable path is a
    ConfigError that names it."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _check_sweep_param(cfg: ScenarioConfig, param: str) -> None:
    """Raise ConfigError unless param is sweepable on cfg's initial state."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter '{param}'; "
                          f"choose from {', '.join(SWEEPABLE)}")
    record = SWEEPABLE[param]
    if record in STATE_KEYS and record != cfg.initial_state.kind:
        raise ConfigError(f"sweeping '{param}' requires a {record} "
                          f"initial state")


def apply_sweep_value(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return a copy of cfg with one sweepable parameter replaced."""
    _check_sweep_param(cfg, param)
    record = SWEEPABLE[param]
    if record in STATE_KEYS:
        record = "initial_state"
    if param == "Delta-via-g_p":
        # adjust g_p so that gtilde_n - gtilde_p equals the value
        b = cfg.bound
        param, value = "g_p", ((b.gtilde("n") - value)
                               * (b.mass_p / b.charge_p) * (b.q_B / b.M_B))
    return replace(cfg, **{record: replace(getattr(cfg, record),
                                           **{param: value})})


def _sweep_point(args: tuple) -> tuple[str | None, str | None]:
    cfg, param, value = args
    try:
        return scenario_csv(apply_sweep_value(cfg, param, value)), None
    except Exception as exc:          # a failed point must not abort the sweep
        return None, f"{type(exc).__name__}: {exc}"


def run_sweep(cfg: ScenarioConfig, param: str, values: list[float],
              jobs: int, out_dir: str) -> list[dict]:
    """Run one scenario per grid value, one CSV per point, plus a manifest.

    Outputs are deterministic and independent of the parallelism degree:
    workers only compute CSV text, all files are written sequentially in
    grid order by the caller.  jobs > 1 runs the points in a process pool
    of at most min(jobs, len(values), cpu count) workers.
    """
    if not values:
        raise ConfigError("sweep value grid must be nonempty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"sweep values must be finite, got {values}")
    _check_sweep_param(cfg, param)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    tasks = [(cfg, param, v) for v in values]

    if jobs <= 1:
        results = [_sweep_point(task) for task in tasks]
    else:
        # imported here, so that only a pooled sweep pays its start-up cost
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(values), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))

    manifest = []
    for index, ((csv_text, error), value) in enumerate(zip(results, values)):
        name = f"point_{index:03d}.csv"
        entry = {"point": {param: value}, "file": name,
                 "status": "ok" if error is None else f"error: {error}"}
        if csv_text is not None:
            write_output(out / name, csv_text)
        manifest.append(entry)
    write_output(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return manifest
