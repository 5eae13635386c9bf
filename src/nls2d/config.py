"""Experiment configuration: JSON key-tree, schema validation, defaults.

A single config file drives every CLI entry point, so each artifact is
reproducible from one document plus a seed.  Validation collects every
offending key before failing.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple

from .evolution import StepControls


class ConfigError(ValueError):
    """Raised with the full list of config problems."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


class Item(NamedTuple):
    types: tuple
    doc: str
    check: Callable[[Any], str | None] | None = None


def _positive(x) -> str | None:
    return None if x > 0 else "must be positive"


def _nonnegative(x) -> str | None:
    return None if x >= 0 else "must be nonnegative"


def _power_of_two(x) -> str | None:
    if x >= 16 and (x & (x - 1)) == 0:
        return None
    return "must be a power of two >= 16"


def _fraction(x) -> str | None:
    return None if 0.0 < x <= 1.0 else "must lie in (0, 1]"


_FAMILIES = ("scaled_q", "perturbed_q", "gaussian", "boosted")

SCHEMA: dict[str, Any] = {
    "grid": {
        "n": Item((int,), "points per axis, power of two >= 16", _power_of_two),
        "L": Item((int, float), "box half-width; domain is [-L/2, L/2)^2", _positive),
    },
    "ground_state": {
        "cache": Item((str, type(None)), "path to a cached profile (null: solve fresh)"),
        "n": Item((int,), "solver grid points per axis", _power_of_two),
        "L": Item((int, float), "solver box size", _positive),
        "tol": Item((float,), "fixed-point relative residual target", _fraction),
        "shooting_tol": Item((float,), "bisection tolerance of the radial oracle", _fraction),
        "max_iter": Item((int,), "fixed-point iteration cap", _positive),
    },
    "initial_data": {
        "family": Item((str,), "one of " + ", ".join(_FAMILIES),
                       lambda v: None if v in _FAMILIES else f"must be one of {_FAMILIES}"),
        "params": Item((dict,), "family parameters (validated by the constructor)"),
    },
    "controls": {
        "dt0": Item((float,), "initial step size", _positive),
        "dt_min": Item((float,), "smallest allowed step", _positive),
        "dt_max": Item((float,), "largest allowed step", _positive),
        "cfl_c": Item((float,), "nonlinear phase budget per step: dt <= c/||u||_inf^4", _fraction),
        "tail_max": Item((float,), "spectral tail fraction treated as resolution loss", _fraction),
        "grad_blowup_factor": Item((float,), "gradient growth factor that signals blow-up",
                                   lambda v: None if v > 1 else "must exceed 1"),
    },
    "probes": {
        "cadence": Item((float,), "time between recorded samples", _positive),
        "variance": Item((bool,), "record the variance column (needs compact support)"),
        "snapshot_every": Item((int, type(None)), "virial trace stride in probes (null: 4)",
                               lambda v: None if v is None or v > 0 else "must be positive"),
    },
    "t_end": Item((int, float), "integration horizon", _positive),
    "boundary_tol": Item((float,), "admissibility: boundary sup <= tol * field sup", _fraction),
    "diagnostics": {
        "virial": Item((bool,), "emit virial.csv from the stored snapshots"),
        "virial_R": Item((int, float, type(None)), "cutoff radius for z_R (null: L/4)",
                         lambda v: None if v is None or v > 0 else "must be positive"),
        "scattering": Item((bool,), "run the scattering detector on completed runs"),
        "window": Item((list, type(None)), "[T1, T2] detector window (null: [0, t_end])",
                       lambda v: None if v is None or (
                           len(v) == 2 and all(isinstance(x, (int, float)) for x in v)
                           and 0 <= v[0] < v[1]) else "must be [T1, T2] with 0 <= T1 < T2"),
        "blowup_bound": Item((bool,), "evaluate the localized-variance time bound at t = 0"),
        "bound_R": Item((int, float, type(None)), "cutoff radius for the time bound (null: L/4)",
                        lambda v: None if v is None or v > 0 else "must be positive"),
        "kappa": Item((float,), "exterior-gradient budget of the time bound", _fraction),
        "kappa0": Item((float,), "cap on admissible kappa", _fraction),
    },
    "seed": Item((int,), "base seed for randomized perturbations", _nonnegative),
    "workers": Item((int, type(None)), "sweep parallelism (null: cpu count)",
                    lambda v: None if v is None or v > 0 else "must be positive"),
    "output_dir": Item((str, type(None)), "artifact directory (CLI --out overrides)"),
    "sweep": {
        "lambdas": Item((list,), "scaling parameters, one run per value",
                        lambda v: None if all(isinstance(x, (int, float)) and x > 0 for x in v)
                        else "entries must be positive numbers"),
        "family": Item((str,), "scaled_q or perturbed_q",
                       lambda v: None if v in ("scaled_q", "perturbed_q")
                       else "must be scaled_q or perturbed_q"),
        "eps": Item((float,), "perturbation size for perturbed_q rows", _positive),
    },
}

DEFAULTS: dict[str, Any] = {
    "grid": {"n": 512, "L": 32.0},
    "ground_state": {
        "cache": None, "n": 512, "L": 48.0,
        "tol": 1e-10, "shooting_tol": 1e-12, "max_iter": 500,
    },
    "initial_data": {"family": "scaled_q", "params": {"lam": 0.9}},
    "controls": {
        "dt0": 1e-3, "dt_min": 1e-7, "dt_max": 1e-2, "cfl_c": 0.25,
        "tail_max": 1e-2, "grad_blowup_factor": 25.0,
    },
    "probes": {"cadence": 0.05, "variance": False, "snapshot_every": None},
    "t_end": 5.0,
    "boundary_tol": 1e-6,
    "diagnostics": {
        "virial": False, "virial_R": None,
        "scattering": False, "window": None,
        "blowup_bound": False, "bound_R": None,
        "kappa": 0.05, "kappa0": 0.1,
    },
    "seed": 0,
    "workers": None,
    "output_dir": None,
    "sweep": {"lambdas": [], "family": "scaled_q", "eps": 1e-3},
}


def _walk(schema, user, path, problems, merged):
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            problems.append(f"{here}: unknown key")
            continue
        node = schema[key]
        if isinstance(node, dict):
            if not isinstance(value, dict):
                problems.append(f"{here}: expected an object")
                continue
            _walk(node, value, here, problems, merged[key])
            continue
        if isinstance(value, int) and not isinstance(value, bool) \
                and float in node.types and int not in node.types:
            value = float(value)
        if isinstance(value, bool) and bool not in node.types:
            problems.append(f"{here}: expected {_type_names(node.types)}, got bool")
            continue
        if not isinstance(value, node.types):
            problems.append(
                f"{here}: expected {_type_names(node.types)}, "
                f"got {type(value).__name__}"
            )
            continue
        if node.check is not None and value is not None:
            msg = node.check(value)
            if msg:
                problems.append(f"{here}: {msg}")
                continue
        merged[key] = value


def _type_names(types) -> str:
    return "/".join("null" if t is type(None) else t.__name__ for t in types)


def validate_config(user: dict) -> dict:
    """Merge a user key-tree over the defaults; raise ConfigError listing
    every offending key."""
    if not isinstance(user, dict):
        raise ConfigError(["top level: expected an object"])
    problems: list[str] = []
    merged = json.loads(json.dumps(DEFAULTS))  # deep copy
    _walk(SCHEMA, user, "", problems, merged)
    try:
        StepControls(**merged["controls"])
    except ValueError as exc:
        problems.append(f"controls: {exc}")
    d = merged["diagnostics"]
    if not (d["kappa"] < d["kappa0"]):
        problems.append("diagnostics: need kappa < kappa0")
    if d["window"] is not None and d["window"][1] > merged["t_end"]:
        problems.append("diagnostics.window: T2 exceeds t_end")
    if problems:
        raise ConfigError(problems)
    return merged


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    return validate_config(user)


def _explain(schema, defaults, path, lines):
    for key, node in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            _explain(node, defaults[key], here, lines)
        else:
            lines.append(f"  {here:32s} {node.doc}")
            lines.append(f"  {'':32s} default: {json.dumps(defaults[key])}")


def explain_config() -> str:
    """Human-readable schema plus the full default tree as valid JSON."""
    lines = ["Configuration keys (JSON key-tree):", ""]
    _explain(SCHEMA, DEFAULTS, "", lines)
    lines += ["", "Defaults as a complete config:", "", json.dumps(DEFAULTS, indent=2)]
    return "\n".join(lines)
