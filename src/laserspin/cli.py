"""Command-line driver: simulate, sweep, validate.

Exit codes: 0 success, 1 oracle/validation failure, 2 config error,
3 physics-domain error, 4 integrator failure or invariant breach.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, DomainError, IntegratorError
from .simulate import SWEEPABLE, run_sweep, scenario_csv, write_output
from .validate import run_validate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laserspin",
        description="Two-spin entanglement dynamics in a strong plane wave.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a single configured scenario")
    sim.add_argument("--config", required=True, help="JSON scenario file")
    sim.add_argument("--out", help="output CSV path (default: stdout)")

    swp = sub.add_parser("sweep", help="run a parameter sweep")
    swp.add_argument("--config", required=True, help="JSON scenario file")
    swp.add_argument("--param", required=True,
                     help=f"swept parameter, one of: {', '.join(SWEEPABLE)}")
    swp.add_argument("--values", required=True,
                     help="comma-separated value grid")
    swp.add_argument("--jobs", type=int, default=1, help="parallel workers")
    swp.add_argument("--out-dir", default="sweep_out", help="output directory")

    val = sub.add_parser("validate", help="run the built-in oracle suite")
    val.add_argument("--filter", help="run a single oracle by name")
    val.add_argument("--inject-mu-error", type=float, default=0.0,
                     help="test hook: perturb the modulus fed to the "
                          "Lorentz oracle (negative control)")
    return parser


def _cmd_simulate(args) -> int:
    text = scenario_csv(load_config(args.config))
    if args.out:
        write_output(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be a comma-separated list of "
                          f"numbers, got {args.values!r}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    manifest = run_sweep(cfg, args.param, values, args.jobs, args.out_dir)
    failed = [m for m in manifest if m["status"] != "ok"]
    for m in manifest:
        print(f"{m['file']}: {m['status']}")
    return 0 if not failed else 4


def _cmd_validate(args) -> int:
    results, code = run_validate(args.filter, mu_error=args.inject_mu_error)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: max deviation {r.max_dev:.3e} "
              f"(tol {r.tol:.0e}) {r.detail}")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except IntegratorError as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
