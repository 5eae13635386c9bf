#!/usr/bin/env python3
"""Per-layer timings of the split-step kernels and the cold path at n = 512.

    python3 scripts/kernels.py

Takes no options and runs in well under a minute on one core. It imports
`nls2d` from the checkout's `src/` and writes `BENCH_kernels.json` at the
root of the checkout: the median, in ms, of repeated calls of each kernel
on a focusing Gaussian hump (amplitude 2.5, width 1) on the 512/32 grid of
the blow-up sweep. At that amplitude sup|u|^4 = 39 exceeds cfl_c / dt_max =
25, so every adaptive step forms the boundary field, as a collapsing run
does. A step figure is the time of `_advance` over several steps divided
by the steps it took.

The cold path a run pays before its first step has three rows: loading a
ground-state cache that the script solves and writes once (512/48),
`q_of` on the 512/32 grid's radii, and the wall time of `import nls2d.cli`
in a fresh interpreter that has numpy loaded already (median of 5).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np
import scipy
from scipy import fft

from nls2d import (Field, SpectralGrid, StepControls, load_ground_state,
                   moments, save_ground_state, solve_petviashvili,
                   solve_radial_shooting)
from nls2d import evolution

N, L, DT = 512, 32.0, 1e-3


def median_ms(call, prepare=lambda: None, repeats=25):
    """Median wall time of call(prepare()) in ms; prepare is not timed."""
    times = []
    for _ in range(repeats):
        arg = prepare()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def step_ms(w, v, controls, target, repeats):
    """Median time per step of `_advance` from t = 0 to target."""
    per_step = []
    for _ in range(repeats):
        wc = w.copy()
        t0 = time.perf_counter()
        _, _, steps = evolution._advance(wc, v, 0.0, target, controls, grid.k1d)
        per_step.append((time.perf_counter() - t0) / steps)
    return 1e3 * statistics.median(per_step)


def import_ms(repeats=5):
    """Median wall time of `import nls2d.cli` in a fresh interpreter."""
    code = ("import sys, time, numpy; sys.path.insert(0, {src!r}); "
            "t0 = time.perf_counter(); import nls2d.cli; "
            "print(time.perf_counter() - t0)").format(src=os.path.join(ROOT, "src"))
    times = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(repeats)]
    return 1e3 * statistics.median(times)


grid = SpectralGrid(N, L)
v = (2.5 * np.exp(-grid.R**2 / 2.0)).astype(np.complex128)
w = fft.fft2(v)
rows = min(evolution.BLOCK_ROWS, N)
buffers = (np.empty((rows, N)), np.empty((rows, N)),
           np.empty((rows, N), dtype=np.complex128))
fixed = StepControls(dt_min=DT, dt_max=DT)

medians = {
    "free_flow": median_ms(lambda x: evolution.free_flow(x, 0.5 * DT, grid.k1d),
                           w.copy, repeats=50),
    "phase_stage": median_ms(lambda x: evolution._phase(x, DT, *buffers),
                             v.copy, repeats=50),
    "strang_fixed_step": step_ms(w, v, fixed, 10 * DT, repeats=7),
    "strang_adaptive_step": step_ms(w, v, StepControls(), 0.05, repeats=7),
    "kahan_li6_step": step_ms(w, v, StepControls(dt_min=DT, dt_max=DT,
                                                 scheme="kahan_li6"),
                              3 * DT, repeats=5),
    "moments": median_ms(lambda f: moments(f, w), lambda: Field(grid, v)),
    "ifft2": median_ms(fft.ifft2, lambda: w),
}
with tempfile.TemporaryDirectory() as tmp:
    cache = os.path.join(tmp, "ground_state.nls2")
    gs = solve_petviashvili(SpectralGrid(512, 48.0), profile=solve_radial_shooting())
    save_ground_state(gs, cache)
    medians["load_ground_state"] = median_ms(load_ground_state, lambda: cache,
                                             repeats=7)
medians["q_of"] = median_ms(gs.radial_profile.q_of, lambda: grid.R, repeats=7)
medians["import_nls2d_cli"] = import_ms()
result = {
    "grid": {"n": N, "L": L}, "datum": "gaussian amplitude 2.5 width 1",
    "dt_fixed": DT, "unit": "ms", "medians": medians,
    "numpy": np.__version__, "scipy": scipy.__version__,
    "python": sys.version.split()[0],
}
with open(os.path.join(ROOT, "BENCH_kernels.json"), "w") as fh:
    json.dump(result, fh, indent=2)
for name, ms in medians.items():
    print(f"{name:22s} {ms:8.2f} ms")
