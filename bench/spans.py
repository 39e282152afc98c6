"""Per-module numbers from the span files of one traced run.

A span's self time is its duration minus the time covered by its direct
child spans in the same process; spans in pool workers run beside, not
inside, the parent's open span, so they are never subtracted from it.
None of the wrapped functions calls itself through a wrapped name, so
summed durations per name do not double count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from child import TARGETS, short

NAMES = [short(t) for t in TARGETS]

# every per-module metric of a traced run, with its unit
UNITS = {
    "elliptic.jacobi_calls": "count",
    "elliptic.jacobi_s": "s",
    "elliptic.jacobi_us_per_call": "us",
    "spinfield.h_calls": "count",
    "spinfield.h_self_s": "s",
    "spinfield.h_us_per_call": "us",
    "evolution.propagate_s": "s",
    "evolution.propagate_self_s": "s",
    "evolution.expm_calls": "count",
    "evolution.expm_s": "s",
    "evolution.expm_us_per_call": "us",
    "evolution.err_vs_ref": "1",
    "evolution.factorized_calls": "count",
    "evolution.factorized_s": "s",
    "entanglement.concurrence_calls": "count",
    "entanglement.concurrence_s": "s",
    "entanglement.concurrence_us_per_call": "us",
    "simulate.scenario_self_s": "s",
    "simulate.csv_s": "s",
    "simulate.point_s_p50": "s",
    "simulate.point_s_max": "s",
    "simulate.pool_efficiency": "1",
    "simulate.sweep_overhead_s": "s",
    "config.load_s": "s",
    "config.roundtrip_s": "s",
    "validate.numeric_s": "s",
    "validate.analytic_s": "s",
    "trace.overhead_frac": "1",
    "trace.remainder_s": "s",
}


@dataclass
class Process:
    is_main: bool
    target: np.ndarray    # index into NAMES
    parent: np.ndarray    # index into this process's arrays, -1 for a root
    t0: np.ndarray        # ns, CLOCK_MONOTONIC
    dur: np.ndarray       # s
    self_s: np.ndarray    # s

    def of(self, name: str) -> np.ndarray:
        return self.target == NAMES.index(name)


def load(outdir: Path, main_pid: int) -> list[Process]:
    procs = []
    for path in sorted(outdir.glob("spans-*.npz")):
        with np.load(path) as z:
            ids, parents = z["id"], z["parent"]
            target, t0, t1 = z["target"], z["t0"], z["t1"]
        order = np.argsort(ids)
        pos = np.searchsorted(ids[order], parents)
        pos = np.minimum(pos, len(ids) - 1)
        has_parent = (parents >= 0) & (ids[order][pos] == parents)
        parent = np.where(has_parent, order[pos], -1)
        dur = (t1 - t0) * 1e-9
        covered = np.zeros(len(ids))
        np.add.at(covered, parent[has_parent], dur[has_parent])
        pid = int(path.stem.split("-")[1])
        procs.append(Process(pid == main_pid, target, parent, t0, dur,
                             dur - covered))
    return procs


def _total(procs, name, field="dur", mask=None) -> float:
    return float(sum(getattr(p, field)[p.of(name) if mask is None
                                       else p.of(name) & mask(p)].sum()
                     for p in procs))


def _calls(procs, name) -> int:
    return int(sum(p.of(name).sum() for p in procs))


def _per_call_us(total_s: float, calls: int) -> float:
    return total_s / calls * 1e6 if calls else 0.0


def module_metrics(procs: list[Process], jobs: int) -> dict[str, float]:
    """Per-module metrics of one traced run (0 where a layer did not run)."""
    m = {}
    calls = {name: _calls(procs, name) for name in NAMES}
    m["elliptic.jacobi_calls"] = calls["elliptic.jacobi"]
    m["elliptic.jacobi_s"] = _total(procs, "elliptic.jacobi")
    m["elliptic.jacobi_us_per_call"] = _per_call_us(
        m["elliptic.jacobi_s"], calls["elliptic.jacobi"])

    h = "spinfield.spin_hamiltonian"
    m["spinfield.h_calls"] = calls[h]
    m["spinfield.h_self_s"] = _total(procs, h, "self_s")
    m["spinfield.h_us_per_call"] = _per_call_us(m["spinfield.h_self_s"],
                                                calls[h])

    m["evolution.propagate_s"] = _total(procs, "evolution._propagate_grid")
    m["evolution.propagate_self_s"] = _total(procs, "evolution._propagate_grid",
                                             "self_s")
    m["evolution.expm_calls"] = calls["evolution.expm_hermitian"]
    m["evolution.expm_s"] = _total(procs, "evolution.expm_hermitian")
    m["evolution.expm_us_per_call"] = _per_call_us(
        m["evolution.expm_s"], calls["evolution.expm_hermitian"])
    m["evolution.factorized_calls"] = calls["evolution.factorized_propagator"]
    m["evolution.factorized_s"] = _total(procs,
                                         "evolution.factorized_propagator")

    c = "entanglement.wootters_concurrence"
    m["entanglement.concurrence_calls"] = calls[c]
    m["entanglement.concurrence_s"] = _total(procs, c)
    m["entanglement.concurrence_us_per_call"] = _per_call_us(
        m["entanglement.concurrence_s"], calls[c])

    m["simulate.scenario_self_s"] = _total(procs, "simulate.run_scenario",
                                           "self_s")
    m["simulate.csv_s"] = _total(procs, "simulate.rows_to_csv")
    m.update(_sweep_metrics(procs, jobs))

    load_idx = NAMES.index("config.load_config")
    m["config.load_s"] = _total(procs, "config.load_config")
    m["config.roundtrip_s"] = _total(procs, "config.config_to_dict") + _total(
        procs, "config.config_from_dict",
        mask=lambda p: (p.parent < 0) | (p.target[p.parent] != load_idx))

    def in_validate(p: Process) -> np.ndarray:
        inside = np.zeros(len(p.t0), dtype=bool)
        v = p.of("validate.run_validate")
        for start, d in zip(p.t0[v], p.dur[v]):
            inside |= (p.t0 >= start) & (p.t0 <= start + d * 1e9)
        return inside
    m["validate.numeric_s"] = _total(procs, "evolution._propagate_grid",
                                     mask=in_validate)
    m["validate.analytic_s"] = _total(procs, "evolution.factorized_propagator",
                                      mask=in_validate)
    return m


def _sweep_metrics(procs: list[Process], jobs: int) -> dict[str, float]:
    point = "simulate._sweep_point"
    durs = np.concatenate([p.dur[p.of(point)] for p in procs] or [[]])
    sweep_wall = _total(procs, "simulate.run_sweep")
    if len(durs) == 0 or sweep_wall == 0.0:
        return {"simulate.point_s_p50": 0.0, "simulate.point_s_max": 0.0,
                "simulate.pool_efficiency": 0.0,
                "simulate.sweep_overhead_s": 0.0}
    busiest = max(p.dur[p.of(point)].sum() for p in procs)
    return {
        "simulate.point_s_p50": float(np.median(durs)),
        "simulate.point_s_max": float(durs.max()),
        "simulate.pool_efficiency": float(durs.sum() / (jobs * sweep_wall)),
        "simulate.sweep_overhead_s": float(sweep_wall - busiest),
    }


def main_self_times(procs: list[Process]) -> dict[str, float]:
    """Self time per wrapped name in the main process (adds up to its
    traced share of the wall time)."""
    main = [p for p in procs if p.is_main]
    return {name: _total(main, name, "self_s") for name in NAMES}

