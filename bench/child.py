"""One benchmark child process: runs `laserspin.cli.main` from this checkout.

Usage: python3 bench/child.py MODE OUTDIR -- LASERSPIN_ARGS...

MODE is one of
  setup   stop as soon as `load_config` returns and record the moment
          (the set-up probe: fresh interpreter -> import -> argparse ->
          loaded scenario);
  plain   run the command, counting only `spin_hamiltonian` calls;
  trace   run the command with a timed span around every call into the
          wrapped functions listed in TARGETS;
  evolve  no CLI: evolve the scenario of `--config FILE` with the public
          `evolve_von_neumann` and save the density matrices.

Wrappers replace every `laserspin.*` module attribute that holds the
original function, which is the name each caller looks up.  A target that
no longer exists is recorded as missing by name.  Pool workers are forked
with the wrappers in place; each writes its own records when it exits.
Records go to OUTDIR: main.json (exit code, missing names), one
proc-<pid>.json per process (call counts, peak RSS) and, when tracing, one
spans-<pid>.npz per process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

H_TARGET = "laserspin.spinfield.spin_hamiltonian"
TARGETS = (
    "laserspin.config.load_config",
    "laserspin.config.config_from_dict",
    "laserspin.config.config_to_dict",
    "laserspin.elliptic.jacobi",
    H_TARGET,
    "laserspin.evolution._propagate_grid",
    "laserspin.evolution.expm_hermitian",
    "laserspin.evolution.factorized_propagator",
    "laserspin.entanglement.wootters_concurrence",
    "laserspin.simulate.run_scenario",
    "laserspin.simulate.rows_to_csv",
    "laserspin.simulate.run_sweep",
    "laserspin.simulate._sweep_point",
    "laserspin.validate.run_validate",
)


def short(target: str) -> str:
    """'laserspin.evolution.expm_hermitian' -> 'evolution.expm_hermitian'."""
    return target.split(".", 1)[1]


def _patch(target: str, make_wrapper) -> bool:
    """Replace every laserspin module attribute bound to target's function."""
    module_name, attr = target.rsplit(".", 1)
    try:
        original = getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError):
        return False
    wrapper = functools.wraps(original)(make_wrapper(original))
    for name, module in list(sys.modules.items()):
        if name == "laserspin" or name.startswith("laserspin."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return True


class Recorder:
    """Call counts and optional spans of one process.

    A span is (id, parent id, target index, start ns, end ns); ids are
    per process, and a worker's first spans have parent -1 with the
    parent process's open span kept in `fork_parent`.
    """

    def __init__(self, outdir: Path, targets: tuple, spans: bool):
        self.outdir = outdir
        self.targets = targets
        self.spans = spans
        self.counts = [0] * len(targets)
        self.stack = [-1]
        self.next_id = [0]
        self.cols = {"id": array("q"), "parent": array("q"),
                     "target": array("b"), "t0": array("q"), "t1": array("q")}
        self.fork_parent = None
        self.missing = []

    def install(self) -> None:
        for index, target in enumerate(self.targets):
            make = self._span_wrapper if self.spans else self._count_wrapper
            if not _patch(target, functools.partial(make, index)):
                self.missing.append(short(target))
        import multiprocessing.util
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _count_wrapper(self, index: int, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[index] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, index: int, fn):
        counts, stack, next_id = self.counts, self.stack, self.next_id
        ids, parents, targets = (self.cols["id"], self.cols["parent"],
                                 self.cols["target"])
        starts, ends = self.cols["t0"], self.cols["t1"]
        clock = time.monotonic_ns

        def wrapper(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                counts[index] += 1
                ids.append(sid)
                parents.append(parent)
                targets.append(index)
                starts.append(t0)
                ends.append(t1)
        return wrapper

    def _after_fork(self) -> None:
        # runs in a freshly forked multiprocessing child: drop the parent's
        # records, then write this process's own when it exits
        import multiprocessing.util
        self.fork_parent = [os.getppid(), self.stack[-1]]
        del self.stack[1:]
        for i in range(len(self.counts)):
            self.counts[i] = 0
        for col in self.cols.values():
            del col[:]
        multiprocessing.util.Finalize(None, self.write, exitpriority=10)

    def write(self) -> None:
        pid = os.getpid()
        meta = {"pid": pid, "fork_parent": self.fork_parent,
                "vmhwm_kb": _peak_rss_kb(),
                "counts": {short(t): n for t, n in zip(self.targets,
                                                       self.counts)}}
        if self.spans:
            import numpy as np
            np.savez(self.outdir / f"spans-{pid}.npz",
                     **{k: np.frombuffer(v, dtype=v.typecode)
                        for k, v in self.cols.items()})
        (self.outdir / f"proc-{pid}.json").write_text(json.dumps(meta))


def _peak_rss_kb() -> int:
    """This process's peak resident set (VmHWM) since its exec or fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class _Loaded(BaseException):
    """Raised by the set-up probe once the scenario is loaded."""


def _setup_probe(outdir: Path) -> None:
    def make(fn):
        def wrapper(*args, **kwargs):
            fn(*args, **kwargs)
            (outdir / "setup.json").write_text(
                json.dumps({"loaded_ns": time.monotonic_ns()}))
            raise _Loaded
        return wrapper
    if not _patch("laserspin.config.load_config", make):
        raise SystemExit("set-up probe: laserspin.config.load_config missing")


def _evolve(config: str, outdir: Path) -> None:
    import math
    import numpy as np
    from laserspin import (evolve_von_neumann, modulus_from_params,
                           spin_hamiltonian)
    from laserspin.config import load_config
    cfg = load_config(config)
    kin = modulus_from_params(cfg.laser, cfg.gamma_z)
    t_grid = np.linspace(0.0, cfg.t_end * 2.0 * math.pi / cfg.laser.omega_L,
                         cfg.samples)
    rhos = evolve_von_neumann(
        cfg.initial_state.build(),
        lambda t: spin_hamiltonian(t, cfg.laser, kin, cfg.bound),
        t_grid, cfg.tol)
    np.save(outdir / "rhos.npy", np.array(rhos))


def main(argv: list[str]) -> int:
    mode, outdir, sep, *cli_args = argv
    if sep != "--" or mode not in ("setup", "plain", "trace", "evolve"):
        raise SystemExit(__doc__)
    outdir = Path(outdir)
    sys.path.insert(0, str(SRC))
    import laserspin.cli
    if Path(laserspin.__file__).resolve().parent != SRC / "laserspin":
        raise SystemExit(f"laserspin imported from {laserspin.__file__}, "
                         f"not from {SRC}")
    if mode == "evolve":
        _evolve(cli_args[cli_args.index("--config") + 1], outdir)
        return 0
    if mode == "setup":
        _setup_probe(outdir)
        try:
            laserspin.cli.main(cli_args)
        except _Loaded:
            return 0
        raise SystemExit("set-up probe: the command never loaded a scenario")

    recorder = Recorder(outdir, TARGETS if mode == "trace" else (H_TARGET,),
                        spans=mode == "trace")
    recorder.install()
    code = laserspin.cli.main(cli_args)
    recorder.write()
    (outdir / "main.json").write_text(json.dumps(
        {"exit": code, "pid": os.getpid(), "missing": recorder.missing}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
