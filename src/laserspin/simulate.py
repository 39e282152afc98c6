"""Scenario execution: concurrence traces, CSV output, parameter sweeps.

Every sweep point is an independent pure computation; the CSV bytes of a
point depend only on its configuration, never on scheduling, which makes
sweep outputs byte-identical across parallelism degrees.  A sweep cuts
each worker's points into batches of at most `BATCH_MATRICES` samples
(:func:`_sweep_point`); the points of a batch share each H call of the
propagation (:func:`run_batch`), and each keeps the bits of its own
:func:`run_scenario`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .config import STATE_KEYS, ScenarioConfig
from . import evolution
from .entanglement import (concurrence_from_factor,
                           concurrence_werner_analytic, density_factor,
                           has_unit_trace, unitary_orbit_bound,
                           validate_density_matrix)
from .errors import ConfigError, IntegratorError, InvalidStateError
from .evolution import BATCH_MATRICES, propagate_batch
from .pauli import IDENTITY4
from .spinfield import DriveTable, spin_hamiltonian
from .trajectory import modulus_from_params

# each sweepable parameter, with the record it sets: the laser, the bound
# system, or the initial state of the kind in STATE_KEYS it needs
SWEEPABLE = {"eta": "laser", "epsilon": "laser", "p": "werner",
             "alpha": "product", "beta": "product", "g_coupling": "bound",
             "Delta-via-g_p": "bound"}


class Trace(NamedTuple):
    """The CSV columns of a run, one (N,) array per sample time; the
    analytic column is None but for a Werner initial state (`entanglement`
    says why not for a product state)."""

    t: np.ndarray
    concurrence_numeric: np.ndarray
    concurrence_analytic: np.ndarray | None
    purity: np.ndarray
    trace_error: np.ndarray
    unitarity_error: np.ndarray


CSV_HEADER = ",".join(Trace._fields)
_CSV_ROW = "%.12g,%.12g,%s,%.12g,%.12g,%.12g\n"


def rows_to_csv(trace: Trace) -> str:
    """The header and one line per sample, 12 significant digits, the
    analytic field left empty when there is no analytic column; rendered
    `evolution._CHUNK` rows at a time."""
    parts = [CSV_HEADER + "\n"]
    for i in range(0, len(trace.t), evolution._CHUNK):
        rows = slice(i, i + evolution._CHUNK)
        columns = [[None] * len(trace.t[rows]) if c is None
                   else c[rows].tolist() for c in trace]
        parts.append("".join(_CSV_ROW % (t, numeric, "" if analytic is None
                                         else "%.12g" % analytic, *rest)
                             for t, numeric, analytic, *rest in zip(*columns)))
    return "".join(parts)


def run_scenario(cfg: ScenarioConfig) -> Trace:
    """Evolve the configured initial state and return its CSV columns.

    H_S is periodic in the motion period, time-reversal symmetric,
    H_S(-t) = H_S(t)*, and shifted by P = s3 (x) s3 over half a period,
    H_S(t + T/2) = P H_S(t) P, so a run longer than a quarter period
    integrates that quarter once and composes every sample from it, at
    a quarter of tol within one period; of those, only a run within one
    period whose samples all lie on the nodes of a power-of-two grid of
    the span, which takes no tail step, is integrated over its whole span
    (see :func:`propagate`).  The columns come from the propagators U
    and one factor rho0 = R R^+, `evolution._CHUNK` samples at a time,
    with no state formed: B = U R gives the concurrence
    (:func:`concurrence_from_factor`), and G = B^+ B the trace tr G and
    the purity tr G^2 of rho = B B^+.  Raises IntegratorError, naming
    the first such sample, when a propagated state has a non-finite
    entry or a trace off 1 by more than 1e-12 (the state checks), when
    a trace error reaches 10 * tol, or when a concurrence exceeds the
    unitary-orbit bound of rho0 by 10 * tol.  rho = B B^+ is Hermitian
    and PSD for any U, a congruence of the validated rho0, so the
    Hermiticity and positivity checks of a state are not made per
    sample; a U that is not unitary shows in the trace and the
    unitary-orbit checks and in the unitarity_error column.  This is
    the batch of one of :func:`run_batch`.
    """
    trace, = run_batch([cfg])
    if isinstance(trace, Exception):
        raise trace
    return trace


def run_batch(cfgs: Sequence[ScenarioConfig]) -> list[Trace | Exception]:
    """:func:`run_scenario` for each scenario of cfgs, propagated as one
    batch (:func:`propagate_batch`): each halving round and the tail steps
    ask `spin_hamiltonian` once for every point still running.  The caller
    sizes the batch: :func:`_sweep_point` gives it one point, or points of
    at most `evolution.BATCH_MATRICES` samples in all, the bound of each
    of a batch's stacks.

    Returns, per scenario, the Trace of its :func:`run_scenario`, bit for
    bit, or the exception that it raises; a failed point does not stop
    the others.  When `spin_hamiltonian` itself raises, which names no
    point, each point of a batch of more than one runs again alone, so
    that the error is its own.
    """
    results = [None] * len(cfgs)
    runs = []
    for i, cfg in enumerate(cfgs):
        try:
            runs.append((i, modulus_from_params(cfg.laser, cfg.gamma_z),
                         validate_density_matrix(cfg.initial_state.build())))
        except Exception as exc:
            results[i] = exc
    if not runs:
        return results
    batch = [cfgs[i] for i, _, _ in runs]
    drives = DriveTable([c.laser for c in batch], [kin for _, kin, _ in runs],
                        [c.bound for c in batch])
    t_grids = [np.linspace(0.0, c.span, c.samples) for c in batch]
    H = lambda t, point: spin_hamiltonian(t, drives=drives, point=point)
    try:
        all_Us = propagate_batch(H, t_grids, [c.tol for c in batch],
                                 [c.period for c in batch])
    except Exception as exc:
        for i, _, _ in runs:
            results[i] = exc if len(runs) == 1 else run_batch([cfgs[i]])[0]
        return results
    for (i, _, rho0), t_grid in zip(runs, t_grids):
        # taken out of the list, so that each is freed with its trace
        Us = all_Us.pop(0)
        try:
            results[i] = (Us if isinstance(Us, Exception)
                          else _trace(cfgs[i], rho0, t_grid, Us))
        except Exception as exc:
            results[i] = exc
    return results


def _trace(cfg: ScenarioConfig, rho0: np.ndarray, t_grid: np.ndarray,
           Us: np.ndarray) -> Trace:
    """The CSV columns of one run from its propagators, after the checks of
    :func:`run_scenario`.

    They are filled `evolution._CHUNK` samples at a time from B = U R,
    rho0 = R R^+: rho = B B^+ shares its trace and purity with
    G = B^+ B, and its concurrence is that of the factor B, so no state
    is formed.
    """
    R = density_factor(rho0)
    concurrence, purity, trace_error, unitarity_error = (
        np.empty(t_grid.size) for _ in range(4))
    unit_trace = np.empty(t_grid.size, dtype=bool)
    try:
        for i in range(0, t_grid.size, evolution._CHUNK):
            rows = slice(i, i + evolution._CHUNK)
            U = Us[rows]
            unitarity_error[rows] = np.abs(U @ U.conj().swapaxes(-1, -2)
                                           - IDENTITY4).max(axis=(-2, -1))
            B = U @ R
            InvalidStateError.unless(np.isfinite(B).all(axis=(-2, -1)),
                                     "density matrix has a non-finite entry",
                                     first=i)
            G = B.conj().swapaxes(-1, -2) @ B
            trace = np.trace(G, axis1=-2, axis2=-1)
            unit_trace[rows] = has_unit_trace(trace)
            trace_error[rows] = np.abs(trace - 1.0)
            purity[rows] = np.trace(G @ G, axis1=-2, axis2=-1).real
            concurrence[rows] = concurrence_from_factor(B)
        InvalidStateError.unless(unit_trace,
                                 "density matrix trace differs from 1")
    except InvalidStateError as exc:
        # rho0 passed the same checks, so the propagation broke the state
        raise IntegratorError(f"propagated state: {exc}") from exc
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

    state = cfg.initial_state
    analytic = (np.full(t_grid.shape, concurrence_werner_analytic(state.p))
                if state.kind == "werner" else None)
    return Trace(t_grid, concurrence, analytic, purity, trace_error,
                 unitarity_error)


def scenario_csv(cfg: ScenarioConfig) -> str:
    return rows_to_csv(run_scenario(cfg))


def check_output(path) -> None:
    """Raise the ConfigError of :func:`write_output` before a run, when
    path cannot be opened for writing; a file that did not exist is not
    left behind."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    if not existed:
        os.unlink(path)


def write_output(path, text: str) -> None:
    """Write text to the file at path; an unwritable path is a
    ConfigError that names it."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _check_sweep_param(cfg: ScenarioConfig, param: str) -> None:
    """Raise ConfigError unless param is sweepable on cfg: on its initial
    state, and for Delta-via-g_p with a nonzero charge_p."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter '{param}'; "
                          f"choose from {', '.join(SWEEPABLE)}")
    record = SWEEPABLE[param]
    if record in STATE_KEYS and record != cfg.initial_state.kind:
        raise ConfigError(f"sweeping '{param}' requires a {record} "
                          f"initial state")
    if param == "Delta-via-g_p" and cfg.bound.charge_p == 0.0:
        raise ConfigError(f"sweeping '{param}' requires a nonzero charge_p: "
                          f"gtilde_p is 0 for every g_p")


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


def _sweep_point(args: tuple) -> list[tuple[str | None, str | None]]:
    """CSV text or error status of each value of one worker's share of a
    sweep.  The configs that build run in grid order, one batch
    (:func:`run_batch`) at a time of `BATCH_MATRICES` // samples points and
    at least one; no sweep parameter sets samples, so all share cfg's."""
    cfg, param, values = args
    cfgs = []
    for value in values:
        try:
            cfgs.append(apply_sweep_value(cfg, param, value))
        except Exception as exc:      # a failed point must not abort the sweep
            cfgs.append(exc)
    built = [c for c in cfgs if not isinstance(c, Exception)]
    size = max(1, BATCH_MATRICES // cfg.samples)
    traces = (trace for i in range(0, len(built), size)
              for trace in run_batch(built[i:i + size]))
    out = []
    for c in cfgs:
        result = c if isinstance(c, Exception) else next(traces)
        if isinstance(result, Exception):
            out.append((None, f"{type(result).__name__}: {result}"))
        else:
            out.append((rows_to_csv(result), None))
    return out


def run_sweep(cfg: ScenarioConfig, param: str, values: list[float],
              jobs: int, out_dir: str) -> list[dict]:
    """Run one scenario per grid value, one CSV per point, plus a manifest.

    A point that fails has no CSV: one left in out_dir under its name by
    an earlier sweep is removed.  Outputs are deterministic and independent
    of the parallelism degree: workers only compute CSV text, all files are
    written sequentially in grid order by the caller, and a point's CSV
    has the bits of its own run.  The grid splits into
    workers = min(jobs, len(values), cpu count) strided shares, values
    k, k + workers, k + 2 workers, ..., so that a cost that grows along
    the grid spreads evenly; each runs in batches of at most
    `BATCH_MATRICES` samples (:func:`_sweep_point`) in a worker of a
    process pool, or in this process when there is one worker.
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

    workers = min(jobs, len(values), os.cpu_count() or 1)
    tasks = [(cfg, param, values[k::workers]) for k in range(workers)]
    if workers <= 1:
        batches = [_sweep_point(task) for task in tasks]
    else:
        # imported here, so that only a pooled sweep pays its start-up cost
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_sweep_point, tasks))
    # back in grid order: value i is entry i // workers of batch i % workers
    results = [batches[i % workers][i // workers] for i in range(len(values))]

    manifest = []
    for index, ((csv_text, error), value) in enumerate(zip(results, values)):
        name = f"point_{index:03d}.csv"
        entry = {"point": {param: value}, "file": name,
                 "status": "ok" if error is None else f"error: {error}"}
        if csv_text is not None:
            write_output(out / name, csv_text)
        else:
            # a CSV of an earlier sweep must not pass for this point's
            try:
                (out / name).unlink(missing_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot write output: {exc}") from None
        manifest.append(entry)
    write_output(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return manifest
