"""Command line entry point.

Subcommands: ground, run, sweep, explain-config, verify.
Exit codes: 0 ok, 2 config validation, 3 certification failure, 4 run failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, explain_config, load_config
from .ground_state import CertificationError
from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_RUN = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nls2d",
        description=(
            "Pseudospectral laboratory for the 2D focusing quintic "
            "Schrodinger equation: ground states, trajectories, and the "
            "scatter/blow-up dichotomy."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", metavar="PATH", required=needs_config,
                       help="JSON config file (see explain-config)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides output_dir)")
        p.add_argument("--seed", metavar="U64", type=int, default=None,
                       help="override the config seed")

    p_ground = sub.add_parser("ground", help="solve, certify, and cache the ground state")
    common(p_ground)

    p_run = sub.add_parser("run", help="classify + evolve one datum, write artifacts")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="one run per sweep.lambdas entry; region map CSV")
    common(p_sweep)
    p_sweep.add_argument("--workers", metavar="N", type=int, default=None,
                         help="parallel worker processes")

    sub.add_parser("explain-config", help="print the config schema and defaults")

    sub.add_parser("verify", help="identity/inequality self-test battery")

    return parser


def _resolve_out(cfg: dict, args) -> str:
    out = args.out or cfg.get("output_dir")
    if not out:
        raise ConfigError(["output_dir: required (set it or pass --out DIR)"])
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "explain-config":
            print(explain_config())
            return EXIT_OK

        if args.command == "verify":
            return EXIT_OK if harness.cmd_verify() else EXIT_CERTIFICATION

        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(["seed: must be nonnegative"])
            cfg["seed"] = args.seed
        if args.command == "sweep" and args.workers is not None and args.workers < 1:
            raise ConfigError(["workers: must be positive"])
        out = _resolve_out(cfg, args)

        if args.command == "ground":
            harness.cmd_ground(cfg, out)
            return EXIT_OK
        if args.command == "run":
            harness.cmd_run(cfg, out)
            return EXIT_OK
        if args.command == "sweep":
            harness.cmd_sweep(cfg, out, workers=args.workers)
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")

    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
