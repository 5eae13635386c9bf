#!/usr/bin/env python3
"""Reference figures for benchmark/README.md, outside the benchmark's bounds.

    python3 benchmark/reference.py

Prints the median of 7 calls of each standalone kernel at n = 256 and 512,
on scaled_q lam = 1.2 in the L = 32 box of the blow-up rows, and the wall
time of the blowup-sweep workload's sweep with one worker and with two.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from nls2d import cli  # noqa: E402
from nls2d.evolution import step_strang  # noqa: E402
from nls2d.functionals import conserved  # noqa: E402
from nls2d.grid import SpectralGrid  # noqa: E402
from nls2d.ground_state import load_ground_state, make_initial_data  # noqa: E402

import workloads  # noqa: E402


def median_ms(fn) -> float:
    return workloads.median_ms(fn, reps=7)


def main() -> int:
    tmp = os.path.join(os.path.dirname(HERE), ".bench_runs",
                       f"reference-{os.getpid()}")
    os.makedirs(tmp)
    try:
        cfg = os.path.join(tmp, "ground.json")
        with open(cfg, "w") as fh:
            fh.write("{}")
        code = cli.main(["ground", "--config", cfg, "--out", tmp])
        if code != 0:
            return code
        cache = os.path.join(tmp, "ground_state.nls2")
        gs = load_ground_state(cache)
        dt = 1e-3
        for n in (256, 512):
            grid = SpectralGrid(n, 32.0)
            f = make_initial_data("scaled_q", {"lam": 1.2}, grid, gs=gs)
            v = f.values
            figures = {
                "step_strang": median_ms(lambda: step_strang(f, dt)),
                "fft2 + ifft2": median_ms(lambda: np.fft.ifft2(np.fft.fft2(v))),
                "multiplier exp": median_ms(
                    lambda: np.exp(-0.5j * dt * grid.K2)),
                "nonlinear phase": median_ms(
                    lambda: v * np.exp(1j * dt * np.abs(v) ** 4)),
                "conserved": median_ms(lambda: conserved(f)),
            }
            print(f"n = {n}: " + ", ".join(
                f"{k} {ms:.1f} ms" for k, ms in figures.items()))

        s = workloads.spec("blowup-sweep", 0)
        cfg = workloads._write_config(s, cache, tmp)
        for workers in (1, 2):
            out = os.path.join(tmp, f"sweep_{workers}")
            t0 = time.perf_counter()
            code = cli.main(["sweep", "--config", cfg, "--out", out,
                             "--workers", str(workers)])
            print(f"blow-up sweep, {len(s['lambdas'])} rows, --workers {workers}: "
                  f"{time.perf_counter() - t0:.1f} s (exit {code})")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
