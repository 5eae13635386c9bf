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
by the steps it took. The hump is even in x and in y, so a run steps it on
its 257^2 quadrant: the `quadrant_` rows time the DCT-I pair, a phase
stage, the three steps and a probe there; the full-grid rows time the FFT
path that data even about no grid point take. A probe is what `evolve`
runs at each probe time after the first: the inverse transform of the
spectrum and `weighted_moments` of the field and spectrum in that basis.

The benchmark's `scatter-row` datum (`scaled_q` at lam = 0.8 on the 512/64
grid) has two rows: `classify` on it, and `scattering_detect` over the nine
kept snapshots of its run (window [0, 1], probes every 0.05, default step
controls), which are quadrant samples, as `nls2d run` keeps them.
`evolve_peak_mib` is `evolve`'s `tracemalloc` peak, in MiB, over that run
with those nine snapshots kept.

The set-up of a ground state and the cold path a run pays before its first
step have six rows: `solve_radial_shooting` (median of 5 after one warm
call, so the `scipy.integrate` import is not timed; the script also prints
how many shots it takes), `solve_petviashvili` on the 512/48 grid from the
shooting profile (its certification included, the radial shooting not),
`_basis` on that Q rolled by (37, 101) grid points (the centre search that
puts it on the quadrant), loading a ground-state cache that the script
solves and writes once (512/48), `q_of` on the 512/32 grid's radii, and
the wall time of `import nls2d.cli` in a fresh interpreter that has numpy
loaded already (median of 5).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np
import scipy
from scipy import fft

from nls2d import (Field, ProbeSpec, SpectralGrid, StepControls, classify,
                   evolve, load_ground_state, make_initial_data, moments,
                   save_ground_state, scattering_detect, solve_petviashvili,
                   solve_radial_shooting)
from nls2d import evolution, ground_state
from nls2d.grid import fold, weighted_moments
from nls2d.harness import _aligned_snapshot_times

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


def step_ms(basis, v, controls, target, repeats):
    """Median time per step of `_advance` in basis from the field v at t = 0
    to target."""
    per_step = []
    for _ in range(repeats):
        wc = basis.forward(v)
        t0 = time.perf_counter()
        _, _, steps = evolution._advance(wc, v, 0.0, target, controls, basis)
        per_step.append((time.perf_counter() - t0) / steps)
    return 1e3 * statistics.median(per_step)


def probe(basis, wc):
    """A probe of `evolve` in basis at the spectrum wc."""
    return weighted_moments(grid, basis.inverse(wc), wc, basis.weight)


def import_ms(repeats=5):
    """Median wall time of `import nls2d.cli` in a fresh interpreter."""
    code = ("import sys, time, numpy; sys.path.insert(0, {src!r}); "
            "t0 = time.perf_counter(); import nls2d.cli; "
            "print(time.perf_counter() - t0)").format(src=os.path.join(ROOT, "src"))
    times = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(repeats)]
    return 1e3 * statistics.median(times)


def buffers(m):
    """The phase's block buffers for an m x m field."""
    rows = min(evolution.BLOCK_ROWS, m)
    return (np.empty((rows, m)), np.empty((rows, m)),
            np.empty((rows, m), dtype=np.complex128))


grid = SpectralGrid(N, L)
v = (2.5 * np.exp(-grid.R**2 / 2.0)).astype(np.complex128)
w = fft.fft2(v)
# the hump is even, so it steps on the quadrant; the full grid's basis is
# the one it gets tilted by a plane wave, which keeps |u| but leaves it even
# about no grid point
quadrant = evolution._basis(Field(grid, v))
vq = fold(v, quadrant.c)
wq = quadrant.forward(vq)
full = evolution._basis(Field(grid, v * np.exp(2j * np.pi * grid.X / L)))
assert full.forward is fft.fft2
fixed = StepControls(dt_min=DT, dt_max=DT)
kahan_li6 = StepControls(dt_min=DT, dt_max=DT, scheme="kahan_li6")

medians = {
    "free_flow": median_ms(lambda x: evolution.free_flow(x, 0.5 * DT, grid.k1d),
                           w.copy, repeats=50),
    "phase_stage": median_ms(lambda x: evolution._phase(x, DT, *buffers(N)),
                             v.copy, repeats=50),
    "strang_fixed_step": step_ms(full, v, fixed, 10 * DT, repeats=7),
    "strang_adaptive_step": step_ms(full, v, StepControls(), 0.05, repeats=7),
    "kahan_li6_step": step_ms(full, v, kahan_li6, 3 * DT, repeats=5),
    "moments": median_ms(lambda f: moments(f, w), lambda: Field(grid, v)),
    "probe": median_ms(lambda x: probe(full, x), lambda: w),
    "ifft2": median_ms(fft.ifft2, lambda: w),
    "quadrant_dct1_pair": median_ms(
        lambda x: quadrant.inverse(quadrant.forward(x)), lambda: vq, repeats=50),
    "quadrant_phase_stage": median_ms(
        lambda x: evolution._phase(x, DT, *buffers(len(vq))), vq.copy, repeats=50),
    "quadrant_fixed_step": step_ms(quadrant, vq, fixed, 10 * DT, repeats=7),
    "quadrant_adaptive_step": step_ms(quadrant, vq, StepControls(), 0.05,
                                      repeats=7),
    "quadrant_kahan_li6_step": step_ms(quadrant, vq, kahan_li6, 3 * DT,
                                       repeats=5),
    "quadrant_probe": median_ms(lambda x: probe(quadrant, x), lambda: wq),
}
shots, mismatch = [], ground_state._mismatch
ground_state._mismatch = lambda a: shots.append(a) or mismatch(a)
profile = solve_radial_shooting()  # warm: pays the scipy.integrate import
ground_state._mismatch = mismatch
medians["solve_radial_shooting"] = median_ms(
    lambda _: solve_radial_shooting(), repeats=5)
with tempfile.TemporaryDirectory() as tmp:
    cache = os.path.join(tmp, "ground_state.nls2")
    grid_q = SpectralGrid(512, 48.0)
    medians["solve_petviashvili"] = median_ms(
        lambda p: solve_petviashvili(grid_q, profile=p), lambda: profile,
        repeats=7)
    gs = solve_petviashvili(grid_q, profile=profile)
    save_ground_state(gs, cache)
    rolled_q = Field(grid_q, np.roll(gs.field.values, (37, 101), axis=(0, 1)))
    assert len(evolution._basis(rolled_q).k) == grid_q.n // 2 + 1
    medians["basis_rolled_q"] = median_ms(evolution._basis, lambda: rolled_q,
                                          repeats=7)
    medians["load_ground_state"] = median_ms(load_ground_state, lambda: cache,
                                             repeats=7)
medians["q_of"] = median_ms(gs.radial_profile.q_of, lambda: grid.R, repeats=7)
window = (0.0, 1.0)
scatter_times = _aligned_snapshot_times(0.0, window, 0.05)
datum = make_initial_data("scaled_q", {"lam": 0.8}, SpectralGrid(512, 64.0),
                          gs=gs)
medians["classify"] = median_ms(lambda f: classify(f, gs), lambda: datum,
                                repeats=15)
tracemalloc.start()
rec = evolve(datum, window[1], StepControls(), gs,
             ProbeSpec(cadence=0.05, snapshot_times=scatter_times))
evolve_peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
snaps = rec.snapshots_at(scatter_times)
assert len(snaps) == 9 and len(snaps[0].samples) == 257
medians["scattering_detect"] = median_ms(
    lambda s: scattering_detect(rec, window, s), lambda: snaps, repeats=15)
medians["import_nls2d_cli"] = import_ms()
result = {
    "grid": {"n": N, "L": L}, "datum": "gaussian amplitude 2.5 width 1",
    "dt_fixed": DT, "unit": "ms", "medians": medians,
    "shooting_shots": len(shots), "evolve_peak_mib": evolve_peak_mib,
    "numpy": np.__version__, "scipy": scipy.__version__,
    "python": sys.version.split()[0],
}
with open(os.path.join(ROOT, "BENCH_kernels.json"), "w") as fh:
    json.dump(result, fh, indent=2)
for name, ms in medians.items():
    print(f"{name:22s} {ms:8.2f} ms")
print(f"solve_radial_shooting: {len(shots)} shots, then the profile integration")
print(f"evolve with nine snapshots kept: tracemalloc peak {evolve_peak_mib:.1f} MiB")
