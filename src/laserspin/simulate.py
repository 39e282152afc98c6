"""Scenario execution: concurrence traces, CSV output, parameter sweeps.

Every sweep point is an independent pure computation; the CSV bytes of a
point depend only on its configuration, never on scheduling, which makes
sweep outputs byte-identical across parallelism degrees.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import InitialState, ScenarioConfig
from .entanglement import (concurrence_product_analytic,
                           concurrence_werner_analytic, unitary_orbit_bound,
                           wootters_concurrence)
from .errors import ConfigError, IntegratorError, InvalidStateError
from .evolution import propagate, validate_density_matrix
from .pauli import IDENTITY4
from .spinfield import spin_hamiltonian
from .trajectory import modulus_from_params, motion_period

CSV_HEADER = ("t,concurrence_numeric,concurrence_analytic,"
              "purity,trace_error,unitarity_error")

SWEEPABLE = ("eta", "epsilon", "p", "alpha", "beta", "g_coupling",
             "Delta-via-g_p")


@dataclass(frozen=True)
class ResultRow:
    t: float
    concurrence_numeric: float
    concurrence_analytic: float | None
    purity: float
    trace_error: float
    unitarity_error: float


def _fmt(x: float) -> str:
    return format(x, ".12g")


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        ana = "" if r.concurrence_analytic is None else _fmt(r.concurrence_analytic)
        lines.append(",".join([
            _fmt(r.t), _fmt(r.concurrence_numeric), ana,
            _fmt(r.purity), _fmt(r.trace_error), _fmt(r.unitarity_error),
        ]))
    return "\n".join(lines) + "\n"


def _analytic_concurrence(cfg: ScenarioConfig, t: float) -> float | None:
    state = cfg.initial_state
    if state.kind == "werner":
        return concurrence_werner_analytic(state.p)
    if state.kind == "product":
        return concurrence_product_analytic(
            t, state.alpha, state.beta, cfg.laser.eta,
            cfg.bound.g_coupling, cfg.bound.Delta, cfg.laser.omega_L)
    return None


def run_scenario(cfg: ScenarioConfig) -> list[ResultRow]:
    """Evolve the configured initial state and report one row per sample.

    The drive is periodic in the motion period, so a run of many periods
    integrates one of them (see :func:`propagate`).  Raises
    IntegratorError when a propagated state fails the state checks, a
    trace error reaches 10 * tol or a concurrence exceeds the
    unitary-orbit bound of rho0 by 10 * tol, naming the first such
    sample.
    """
    kin = modulus_from_params(cfg.laser, cfg.gamma_z)
    rho0 = validate_density_matrix(cfg.initial_state.build())
    period = 2.0 * math.pi / cfg.laser.omega_L
    t_grid = np.linspace(0.0, cfg.t_end * period, cfg.samples)

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

    times = t_grid.tolist()
    return [ResultRow(*row) for row in zip(
        times, concurrence.tolist(), [_analytic_concurrence(cfg, t) for t in times],
        np.trace(rhos @ rhos, axis1=-2, axis2=-1).real.tolist(),
        trace_error.tolist(), unitarity_error.tolist())]


def scenario_csv(cfg: ScenarioConfig) -> str:
    return rows_to_csv(run_scenario(cfg))


def apply_sweep_value(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return a copy of cfg with one sweepable parameter replaced."""
    if param == "eta":
        return replace(cfg, laser=replace(cfg.laser, eta=value))
    if param == "epsilon":
        return replace(cfg, laser=replace(cfg.laser, epsilon=value))
    if param == "g_coupling":
        return replace(cfg, bound=replace(cfg.bound, g_coupling=value))
    if param == "Delta-via-g_p":
        # adjust g_p so that gtilde_n - gtilde_p equals the requested value
        target_gtilde_p = cfg.bound.gtilde("n") - value
        g_p = target_gtilde_p * (cfg.bound.mass_p / cfg.bound.charge_p) \
            * (cfg.bound.q_B / cfg.bound.M_B)
        return replace(cfg, bound=replace(cfg.bound, g_p=g_p))
    if param == "p":
        if cfg.initial_state.kind != "werner":
            raise ConfigError("sweeping 'p' requires a werner initial state")
        return replace(cfg, initial_state=InitialState(kind="werner", p=value))
    if param in ("alpha", "beta"):
        if cfg.initial_state.kind != "product":
            raise ConfigError(f"sweeping '{param}' requires a product initial state")
        alpha = value if param == "alpha" else cfg.initial_state.alpha
        beta = value if param == "beta" else cfg.initial_state.beta
        return replace(cfg, initial_state=InitialState(
            kind="product", alpha=alpha, beta=beta))
    raise ConfigError(
        f"unknown sweep parameter '{param}'; choose from {', '.join(SWEEPABLE)}")


def _sweep_point(args: tuple) -> tuple[int, str | None, str | None]:
    index, cfg, param, value = args
    try:
        return index, scenario_csv(apply_sweep_value(cfg, param, value)), None
    except Exception as exc:          # a failed point must not abort the sweep
        return index, None, f"{type(exc).__name__}: {exc}"


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
    if param not in SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter '{param}'; choose from {', '.join(SWEEPABLE)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(i, cfg, param, v) for i, v in enumerate(values)]

    if jobs <= 1:
        results = [_sweep_point(task) for task in tasks]
    else:
        workers = min(jobs, len(values), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    results.sort(key=lambda r: r[0])

    manifest = []
    for (index, csv_text, error), value in zip(results, values):
        name = f"point_{index:03d}.csv"
        entry = {"point": {param: value}, "file": name,
                 "status": "ok" if error is None else f"error: {error}"}
        if csv_text is not None:
            (out / name).write_text(csv_text)
        manifest.append(entry)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest
