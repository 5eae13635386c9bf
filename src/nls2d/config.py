"""Experiment configuration: JSON key-tree, schema validation, defaults.

A single config file drives every CLI entry point, so each artifact is
reproducible from one document plus a seed.  Each key's type, default,
doc and check are declared once, in SCHEMA; the `controls` defaults are
StepControls's own.  A threshold that no run varies is a constant of the
module that reads it, not a key: the datum's boundary tolerance
(`ground_state.BOUNDARY_TOL`), the fixed-point solver's tolerance and
iteration cap (`solve_petviashvili`'s defaults), the blow-up detector's
gradient factor (`evolution.GRAD_BLOWUP_FACTOR`) and the cap on kappa
(`diagnostics.KAPPA0`).  Validation collects every offending key before
failing.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple

from .diagnostics import KAPPA0
from .evolution import StepControls


class ConfigError(ValueError):
    """Raised with the full list of config problems."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


class Item(NamedTuple):
    types: tuple
    default: Any
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

# a check never sees null: _walk admits it by type alone
SCHEMA: dict[str, Any] = {
    "grid": {
        "n": Item((int,), 512, "points per axis, power of two >= 16", _power_of_two),
        "L": Item((int, float), 32.0, "box side length; domain is [-L/2, L/2)^2",
                  _positive),
    },
    "ground_state": {
        "cache": Item((str, type(None)), None,
                      "path to a cached profile (null: solve fresh)"),
        "n": Item((int,), 512, "solver grid points per axis", _power_of_two),
        "L": Item((int, float), 48.0, "solver box size", _positive),
    },
    "initial_data": {
        "family": Item((str,), "scaled_q", "one of " + ", ".join(_FAMILIES),
                       lambda v: None if v in _FAMILIES else f"must be one of {_FAMILIES}"),
        "params": Item((dict,), {"lam": 0.9},
                       "family parameters (validated by the constructor)"),
    },
    "controls": {
        "dt_min": Item((float,), StepControls.dt_min, "smallest allowed step", _positive),
        "dt_max": Item((float,), StepControls.dt_max, "largest allowed step", _positive),
        "cfl_c": Item((float,), StepControls.cfl_c,
                      "nonlinear phase budget per step: dt <= c/||u||_inf^4", _fraction),
        "tail_max": Item((float,), StepControls.tail_max,
                         "spectral tail fraction treated as resolution loss", _fraction),
    },
    "probes": {
        "cadence": Item((float,), 0.05, "time between recorded samples", _positive),
        "variance": Item((bool,), False,
                         "record the variance column (needs compact support)"),
        "snapshot_every": Item((int, type(None)), None,
                               "virial trace stride in probes (null: 4)", _positive),
    },
    "t_end": Item((int, float), 5.0, "integration horizon", _positive),
    "diagnostics": {
        "virial": Item((bool,), False, "emit virial.csv from the stored snapshots"),
        "virial_R": Item((int, float, type(None)), None,
                         "cutoff radius for z_R (null: L/4)", _positive),
        "scattering": Item((bool,), False, "run the scattering detector on completed runs"),
        "window": Item((list, type(None)), None,
                       "[T1, T2] detector window (null: [0, t_end])",
                       lambda v: None if (
                           len(v) == 2 and all(isinstance(x, (int, float)) for x in v)
                           and 0 <= v[0] < v[1]) else "must be [T1, T2] with 0 <= T1 < T2"),
        "blowup_bound": Item((bool,), False,
                             "evaluate the localized-variance time bound at t = 0"),
        "bound_R": Item((int, float, type(None)), None,
                        "cutoff radius for the time bound (null: L/4)", _positive),
        "kappa": Item((float,), 0.05, "exterior-gradient budget of the time bound",
                      lambda v: None if 0.0 < v < KAPPA0
                      else f"must lie in (0, {KAPPA0:g})"),
    },
    "seed": Item((int,), 0, "base seed for randomized perturbations", _nonnegative),
    "workers": Item((int, type(None)), None, "sweep parallelism (null: cpu count)",
                    _positive),
    "output_dir": Item((str, type(None)), None, "artifact directory (CLI --out overrides)"),
    "sweep": {
        "lambdas": Item((list,), [], "scaling parameters, one run per value",
                        lambda v: None if all(isinstance(x, (int, float)) and x > 0 for x in v)
                        else "entries must be positive numbers"),
        "family": Item((str,), "scaled_q", "scaled_q or perturbed_q",
                       lambda v: None if v in ("scaled_q", "perturbed_q")
                       else "must be scaled_q or perturbed_q"),
        "eps": Item((float,), 1e-3, "perturbation size for perturbed_q rows", _positive),
    },
}


def _defaults(schema: dict) -> dict:
    return {key: _defaults(node) if isinstance(node, dict) else node.default
            for key, node in schema.items()}


DEFAULTS: dict[str, Any] = _defaults(SCHEMA)


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
    window = merged["diagnostics"]["window"]
    if window is not None and window[1] > merged["t_end"]:
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


def _explain(schema, path, lines):
    for key, node in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            _explain(node, here, lines)
        else:
            lines.append(f"  {here:32s} {node.doc}")
            lines.append(f"  {'':32s} default: {json.dumps(node.default)}")


def explain_config() -> str:
    """Human-readable schema plus the full default tree as valid JSON."""
    lines = ["Configuration keys (JSON key-tree):", ""]
    _explain(SCHEMA, "", lines)
    lines += ["", "Defaults as a complete config:", "", json.dumps(DEFAULTS, indent=2)]
    return "\n".join(lines)
