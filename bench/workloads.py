"""Workload definitions: seeded scenario files and the CLI command per workload.

A seed jitters the physics parameters of each scenario (eta, eps, g and the
sweep grid) by a relative amount drawn uniformly from [-JITTER, +JITTER], so
that a claim can be confirmed on inputs nobody tuned against, while the
cost of a run moves by far less than the benchmark's bounds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
# A second seed, kept out of tuning, for confirming a later claim.
CONFIRM_SEED = 7919
JITTER = 0.005
JOBS = 2

# Werner-state bound system of the README example: gtilde_n = 4,
# gtilde_p = 1 (Delta = 3).
_WERNER_BOUND = {"mass_n": 1.0, "mass_p": 1.0, "charge_n": -0.5,
                 "charge_p": -0.5, "g_n": -4.0, "g_p": -1.0}
# Elliptic product-state system of scripts/run_product_entanglement.py:
# gtildes (6, 2), Delta = 4.
_PRODUCT_BOUND = {"mass_n": 1.0, "mass_p": 1.0, "charge_n": -0.5,
                  "charge_p": -0.5, "g_n": -6.0, "g_p": -2.0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str   # laserspin subcommand
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("long_elliptic", "simulate",
             "integrator-bound 2-period elliptic run: step control, H_S(t) "
             "and expm dominate"),
    Workload("dense_trace", "simulate",
             "4001-sample Werner trace: the sample grid sets the steps; "
             "concurrence and CSV layers are hot"),
    Workload("sweep_eta", "sweep",
             "8-point eta sweep on 2 workers: process pool, per-point config "
             "round trip and manifest"),
    Workload("validate_factorization", "validate",
             "factorization oracle: the only run of the analytic U = W X "
             "path beside the numeric propagator"),
)}


def _scenario(eta, eps, bound, g, state, periods, samples, tol) -> dict:
    return {
        "schema": 1,
        "laser": {"eta": eta, "epsilon": eps, "omega_L": 1.0},
        "bound": dict(bound, g_coupling=g),
        "gamma_z": 1.0,
        "initial_state": state,
        "t_end": periods,
        "samples": samples,
        "tol": tol,
    }


def _jitter(rng: random.Random, x: float) -> float:
    return x * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one (workload, seed).

    scenario: the scenario the CLI runs (for sweep_eta the base scenario;
    for validate_factorization a fixture-shaped scenario used only by the
    set-up probe and the public-API error check).  points: one scenario per
    sweep value, in grid order, for the reference gate.
    """

    scenario: dict
    sweep_values: tuple = ()
    points: tuple = ()


def make_inputs(name: str, seed: int) -> Inputs:
    # str seeds hash deterministically in random.Random (sha512 based)
    rng = random.Random(f"{name}:{seed}")
    if name == "long_elliptic":
        return Inputs(_scenario(
            _jitter(rng, 0.5), _jitter(rng, 0.3), _PRODUCT_BOUND,
            _jitter(rng, 0.5), {"type": "product", "alpha": 0.0, "beta": 1.0},
            2.0, 33, 1e-6))
    if name == "dense_trace":
        return Inputs(_scenario(
            _jitter(rng, 0.1), _jitter(rng, 0.2), _WERNER_BOUND,
            _jitter(rng, 0.1), {"type": "werner", "p": 0.8},
            1.0, 4001, 1e-6))
    if name == "sweep_eta":
        base = _scenario(
            0.1, _jitter(rng, 0.3), _WERNER_BOUND, _jitter(rng, 0.1),
            {"type": "werner", "p": 0.8}, 0.5, 11, 1e-7)
        values = tuple(round(_jitter(rng, 0.05 * k), 9) for k in range(1, 9))
        points = tuple(dict(base, laser=dict(base["laser"], eta=v))
                       for v in values)
        return Inputs(base, values, points)
    if name == "validate_factorization":
        # the oracle's own grid is fixed; this mirrors one of its points
        return Inputs(_scenario(
            _jitter(rng, 0.2), 0.0, {**_WERNER_BOUND, "g_n": -2.0, "g_p": -0.5},
            _jitter(rng, 0.08), {"type": "werner", "p": 0.8},
            1.0, 9, 1e-8))
    raise KeyError(name)


def write_inputs(inputs: Inputs, workdir: Path) -> Path:
    """Write the scenario file and return its path."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "scenario.json"
    path.write_text(json.dumps(inputs.scenario, indent=1) + "\n")
    return path


def cli_args(name: str, inputs: Inputs, config: Path, out: Path) -> list[str]:
    """laserspin arguments of one workload run writing under out."""
    if name in ("long_elliptic", "dense_trace"):
        return ["simulate", "--config", str(config), "--out",
                str(out / "rows.csv")]
    if name == "sweep_eta":
        return ["sweep", "--config", str(config), "--param", "eta",
                "--values", ",".join(repr(v) for v in inputs.sweep_values),
                "--jobs", str(JOBS), "--out-dir", str(out / "sweep")]
    if name == "validate_factorization":
        return ["validate", "--filter", "factorization"]
    raise KeyError(name)

