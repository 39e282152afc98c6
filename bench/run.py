"""laserspin benchmark: time to solution of simulate, sweep and validate.

Usage:
  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in bench/workloads.py, or `all`.  Each run of
the laserspin CLI is a child process (bench/child.py) started from a fresh
interpreter; one client runs them back to back (a closed loop) until the
next one would end after --seconds.  Every output is checked against an
independent reference (bench/reference.py) computed outside the timed
region and cached per scenario.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs and prints the per-module metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import spans
from workloads import (CONFIRM_SEED, DEFAULT_SEED, JITTER, JOBS, WORKLOADS,
                       Inputs, cli_args, make_inputs, write_inputs)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_PROBES = 3
# a run must end within 180 s; a child that hangs is killed well before
CHILD_TIMEOUT_S = 120.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "h_evals": "count"}
# counts that must repeat exactly for one source tree and seed
GUARDED = ("spinfield.spin_hamiltonian", "evolution.expm_hermitian",
           "entanglement.wootters_concurrence", "elliptic.jacobi")


@dataclass
class Child:
    """One finished child process."""

    outdir: Path
    exit: int
    wall_s: float
    cpu_s: float
    started_ns: int
    info: dict            # main.json, empty when the child wrote none
    counts: dict          # call counts summed over its processes
    peak_rss_mb: float    # largest VmHWM over its processes
    problems: list = field(default_factory=list)


def spawn(mode: str, outdir: Path, args: list[str]) -> Child:
    """Run bench/child.py to completion and collect what it recorded.

    The child leads its own process group, so a timeout kills its pool
    workers too.  CPU time comes from wait4, which includes every
    descendant the child reaped.  Peak RSS comes from each process's own
    record: wait4's ru_maxrss would also carry this (larger) process's
    peak, which Linux keeps across the child's exec.
    """
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(outdir), "--",
           *args]
    with open(outdir / "stdout", "wb") as out, \
            open(outdir / "stderr", "wb") as err:
        started = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: take the child down with us
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        ended = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:   # anything the child left behind in its group
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    main_json = outdir / "main.json"
    counts: dict[str, int] = {}
    peak_kb = 0
    for path in outdir.glob("proc-*.json"):
        record = json.loads(path.read_text())
        peak_kb = max(peak_kb, record["vmhwm_kb"])
        for key, n in record["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return Child(outdir, proc.returncode, (ended - started) * 1e-9,
                 usage.ru_utime + usage.ru_stime, started,
                 json.loads(main_json.read_text()) if main_json.exists()
                 else {}, counts, peak_kb / 1024.0)


def setup_time(config: Path) -> float:
    """Seconds from spawning an interpreter to a loaded scenario."""
    child = spawn("setup", WORK / "runs" / "setup",
                  ["simulate", "--config", str(config), "--out", os.devnull])
    loaded = child.outdir / "setup.json"
    if child.exit != 0 or not loaded.exists():
        raise RuntimeError(f"set-up probe failed (exit {child.exit}): "
                           f"{(child.outdir / 'stderr').read_text()[-2000:]}")
    return (json.loads(loaded.read_text())["loaded_ns"]
            - child.started_ns) * 1e-9


def references(inputs: Inputs) -> list[dict]:
    """Reference rows per scenario (sweep: per point), cached on disk
    under a key of the scenario and the reference code."""
    code = Path(reference.__file__).read_bytes()
    out = []
    for scenario in inputs.points or (inputs.scenario,):
        key = hashlib.sha256(json.dumps(scenario, sort_keys=True).encode()
                             + code).hexdigest()[:24]
        path = WORK / "ref" / f"{key}.npz"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.stem + ".tmp.npz")
            np.savez(tmp, **reference.reference_rows(scenario))
            tmp.replace(path)
        with np.load(path) as z:
            out.append({k: z[k] for k in z.files})
    return out


def gate(name: str, inputs: Inputs, refs: list[dict], child: Child) -> list[str]:
    """Reasons the run failed: exit code, sweep status, oracle, reference."""
    problems = []
    if child.exit != 0:
        err = (child.outdir / "stderr").read_text().strip().splitlines()
        problems.append(f"exit {child.exit}" + (f": {err[-1]}" if err else ""))
    if "exit" not in child.info:
        problems.append("child wrote no result record")
        return problems
    command = WORKLOADS[name].command
    tol = inputs.scenario["tol"]
    if command == "simulate":
        csv = child.outdir / "rows.csv"
        if not csv.exists():
            return problems + ["no CSV written"]
        problems += reference.check_rows(csv.read_text(), refs[0], tol)
    elif command == "sweep":
        sweep = child.outdir / "sweep"
        try:
            manifest = json.loads((sweep / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"no readable manifest: {exc}"]
        if len(manifest) != len(inputs.points):
            problems.append(f"manifest has {len(manifest)} points, "
                            f"expected {len(inputs.points)}")
        for entry, ref in zip(manifest, refs):
            if entry["status"] != "ok":
                problems.append(f"{entry['file']}: {entry['status']}")
                continue
            problems += [f"{entry['file']}: {p}" for p in reference.check_rows(
                (sweep / entry["file"]).read_text(), ref, tol)]
    else:
        text = (child.outdir / "stdout").read_text()
        if "[FAIL]" in text or "[PASS]" not in text:
            problems.append("oracle did not pass: " + text.strip()[-500:])
    return problems


def guard(name: str, inputs: Inputs, counts: list[dict]) -> list[str]:
    """Flag any guarded count that differs between runs of one source tree
    and one set of inputs, this run's or an earlier one's (kept in
    .work/counts)."""
    h = hashlib.sha256(json.dumps([name, inputs.scenario,
                                   inputs.sweep_values]).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    record = WORK / "counts" / f"{name}-{h.hexdigest()[:24]}.json"
    known = json.loads(record.read_text()) if record.exists() else {}
    problems = []
    for c in counts:
        for key in GUARDED:
            if key not in c:
                continue
            if key in known and known[key] != c[key]:
                problems.append(f"nondeterministic count {key}: "
                                f"{c[key]} != {known[key]}")
            known.setdefault(key, c[key])
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(known, sort_keys=True))
    return problems


@dataclass
class Result:
    metrics: dict          # name -> (value, unit)
    attempted: int
    failed: int
    problems: list
    notes: list


def count_failed(runs: list[Child]) -> int:
    """Runs that failed any check of the gate."""
    return sum(1 for r in runs if r.problems)


def _closed_loop(seconds: float, one_round) -> None:
    """Call one_round until the next call would end after `seconds`."""
    start = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        one_round()
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return


def _median(values) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    inputs = make_inputs(name, seed)
    workdir = WORK / f"{name}-{seed}"
    config = write_inputs(inputs, workdir)
    refs = references(inputs)
    notes = [f"workload {name}, seed {seed} (default {DEFAULT_SEED}, "
             f"confirmation seed {CONFIRM_SEED}), jitter +-{JITTER:.1%}"]

    def run(mode: str) -> Child:
        out = WORK / "runs" / f"{name}-{mode}"
        child = spawn(mode, out, cli_args(name, inputs, config, out))
        child.problems = gate(name, inputs, refs, child)
        return child

    plain: list[Child] = []
    traced: list[tuple[Child, list]] = []
    if trace:
        def one_round():
            plain.append(run("plain"))
            child = run("trace")
            traced.append((child, spans.load(child.outdir,
                                              child.info.get("pid", -1))))
    else:
        setups = [setup_time(config) for _ in range(SETUP_PROBES)]

        def one_round():
            plain.append(run("plain"))
    _closed_loop(seconds, one_round)
    shutil.rmtree(WORK / "runs", ignore_errors=True)

    runs = plain + [child for child, _ in traced]
    problems = [f"run {k}: {p}" for k, r in enumerate(runs) for p in r.problems]
    problems += guard(name, inputs, [r.counts for r in runs])
    missing = sorted({m for r in runs for m in r.info.get("missing", [])})
    notes += [f"missing wrapped name: {m}" for m in missing]
    failed = count_failed(runs)
    walls = sorted(r.wall_s for r in plain)
    notes.append(f"untraced wall_s over {len(walls)} runs: min {walls[0]:.4f}"
                 f", median {_median(walls):.4f}, max {walls[-1]:.4f}")

    if not trace:
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median(walls),
            "cpu_s": _median([r.cpu_s for r in plain]),
            "peak_rss_mb": _median([r.peak_rss_mb for r in plain]),
            "h_evals": _median([r.counts.get("spinfield.spin_hamiltonian", 0)
                                for r in plain]),
        }
        return Result({k: (v, END_TO_END[k]) for k, v in metrics.items()},
                      len(runs), failed, problems, notes)

    per_run = [spans.module_metrics(procs, JOBS) for _, procs in traced]
    metrics = {key: _median([m[key] for m in per_run]) for key in per_run[0]}
    metrics["evolution.err_vs_ref"] = err_vs_ref(name, inputs, refs, workdir)
    traced_wall = _median([child.wall_s for child, _ in traced])
    metrics["trace.overhead_frac"] = (traced_wall - _median(walls)) \
        / _median(walls)
    self_times = [spans.main_self_times(procs) for _, procs in traced]
    remainders = [child.wall_s - sum(st.values())
                  for (child, _), st in zip(traced, self_times)]
    metrics["trace.remainder_s"] = _median(remainders)
    mid = sorted(range(len(traced)), key=lambda i: traced[i][0].wall_s)[
        len(traced) // 2]
    notes.append(f"traced run {traced[mid][0].wall_s:.3f} s = self time in "
                 "the main process, "
                 + " + ".join(f"{n} {v:.3f}" for n, v in self_times[mid].items()
                              if v >= 5e-4)
                 + f", + untraced remainder {remainders[mid]:.3f} (interpreter,"
                 " imports, CLI glue, writing the trace)")
    return Result({k: (v, spans.UNITS[k]) for k, v in metrics.items()},
                  len(runs), failed, problems, notes)


def err_vs_ref(name: str, inputs: Inputs, refs: list[dict],
               workdir: Path) -> float:
    """max |rho - rho_ref| of the public evolve_von_neumann on the
    workload's last reference scenario."""
    scenario = (inputs.points or (inputs.scenario,))[-1]
    config = workdir / "err_scenario.json"
    config.write_text(json.dumps(scenario))
    child = spawn("evolve", WORK / "runs" / f"{name}-evolve",
                  ["--config", str(config)])
    rhos = child.outdir / "rhos.npy"
    if child.exit != 0 or not rhos.exists():
        raise RuntimeError(f"evolve_von_neumann run failed: "
                           f"{(child.outdir / 'stderr').read_text()[-2000:]}")
    error = reference.max_rho_error(np.load(rhos), scenario, refs[-1])
    shutil.rmtree(child.outdir)
    return error


def report(name: str, result: Result) -> None:
    for note in result.notes:
        print(f"# {note}")
    rows = [*result.metrics.items(),
            ("fail_frac", (result.failed / result.attempted, "1"))]
    for key, (value, unit) in rows:
        print(f"{name:24s} {key:40s} {value:14.6g} {unit}")
    for problem in result.problems:
        print(f"FAILED {name}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "laserspin" / "cli.py").is_file():
        print(f"no laserspin sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds,
                                bool(args.trace))
        report(name, results[name])
    single = len(names) == 1
    out = {
        "correct": all(not r.problems for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": {(k if single else f"{n}.{k}"): {"value": v, "unit": u}
                    for n, r in results.items()
                    for k, (v, u) in r.metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
