"""The three workloads: their inputs, their timed bodies and their checks.

A body runs in a fresh interpreter (see `body.py`), so its peak
resident memory is its own, and a traced body patches only that process.
All three run at n = 512.

* scatter-row: criterion 05's scatter row, `nls2d run` on scaled_q at
  512/64 with the scattering detector, default Strang step, dt pinned at
  dt_max = 0.01 and one probe per five steps.  --seed sets lam in
  [0.78, 0.82]; every lam there takes exactly the same 100 steps.
* blowup-sweep: criterion 05's blow-up sweep cut to its two fastest rows,
  `nls2d sweep --workers 2` on perturbed_q lam in {1.2, 1.3}, eps = 1e-3,
  seed 7, adaptive dt.  The bump radius of a row comes from the config seed
  and moves its step count (419-425 steps over four seeds), so the sweep
  keeps criterion 05's seed 7 and its counts repeat exactly.
* soliton-kl6: criterion 03's fidelity run on the certified Q at 512/48
  under the sixth-order `kahan_li6` step at fixed dt = 1e-3, over t = 0.03.
  It calls `evolve` directly: the config schema has no `scheme` key.
  --seed sets a global phase and a whole-grid-point translation of Q, both
  exact symmetries, so the work is the same for every seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import time
import traceback

import numpy as np

import checks
import tracing

WORKERS = 2  # one per core of the reference machine, one per sweep row


def spec(workload: str, seed: int) -> dict:
    """The inputs of one workload, made from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "scatter-row":
        lam = float(0.78 + 0.04 * rng.random())
        config = {
            "grid": {"n": 512, "L": 64.0},
            "initial_data": {"family": "scaled_q", "params": {"lam": lam}},
            "t_end": 1.0,
            "probes": {"cadence": 0.05},
            "diagnostics": {"scattering": True},
        }
        return {"lam": lam, "t_end": 1.0, "grid": config["grid"],
                "config": config}
    if workload == "blowup-sweep":
        sweep = {"lambdas": [1.2, 1.3], "family": "perturbed_q", "eps": 1e-3}
        config = {
            "grid": {"n": 512, "L": 32.0},
            "t_end": 1.0,
            "probes": {"cadence": 0.01},
            "sweep": sweep,
            "seed": 7,
        }
        return {"lambdas": sweep["lambdas"], "eps": sweep["eps"], "t_end": 1.0,
                "grid": config["grid"], "config": config}
    if workload == "soliton-kl6":
        # the grid of the cached ground state, on which Q is evolved
        return {"grid": {"n": 512, "L": 48.0},
                "t_end": 0.03, "dt": 1e-3, "cadence": 0.03,
                "phase": float(2.0 * np.pi * rng.random()),
                "shift": [int(v) for v in rng.integers(0, 512, size=2)]}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scatter-row", "blowup-sweep", "soliton-kl6")


def _cli(argv: list[str], out_dir: str) -> dict:
    from nls2d import cli

    with open(os.path.join(out_dir, "cli.log"), "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = cli.main(argv)
    return {"exit_code": code}


def _write_config(s: dict, cache: str, out_dir: str) -> str:
    cfg = json.loads(json.dumps(s["config"]))
    cfg["ground_state"] = {"cache": cache}
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def soliton_datum(q: np.ndarray, s: dict) -> np.ndarray:
    return np.roll(np.exp(1j * s["phase"]) * q, s["shift"], axis=(0, 1))


def _soliton(s: dict, cache: str, out_dir: str) -> dict:
    from nls2d import evolution, ground_state
    from nls2d.grid import Field

    gs = ground_state.load_ground_state(cache)
    f = Field(gs.field.grid, soliton_datum(gs.field.values, s))
    dt = s["dt"]
    controls = evolution.StepControls(dt0=dt, dt_min=dt, dt_max=dt,
                                      scheme="kahan_li6")
    probes = evolution.ProbeSpec(cadence=s["cadence"],
                                 snapshot_times=(s["t_end"],))
    rec = evolution.evolve(f, s["t_end"], controls, gs, probes)
    evolution.write_trajectory_csv(rec, os.path.join(out_dir, "trajectory.csv"))
    return {"final": rec.snapshots[-1]}


def _body(workload: str, s: dict, cache: str, out_dir: str) -> dict:
    """The timed part: from the config to the last artifact written."""
    if workload == "soliton-kl6":
        return _soliton(s, cache, out_dir)
    cfg_path = _write_config(s, cache, out_dir)
    if workload == "scatter-row":
        return _cli(["run", "--config", cfg_path, "--out", out_dir], out_dir)
    sweep_dir = os.path.join(out_dir, "sweep")
    return _cli(["sweep", "--config", cfg_path, "--out", sweep_dir,
                 "--workers", str(WORKERS)], out_dir)


def _kernel_datum(workload: str, s: dict, cache: str):
    """A field at the workload's grid, for the standalone kernel timings."""
    from nls2d.grid import Field, SpectralGrid
    from nls2d.ground_state import load_ground_state, make_initial_data

    gs = load_ground_state(cache)
    if workload == "soliton-kl6":
        return Field(gs.field.grid, soliton_datum(gs.field.values, s))
    grid = SpectralGrid(s["grid"]["n"], s["grid"]["L"])
    if workload == "scatter-row":
        return make_initial_data("scaled_q", {"lam": s["lam"]}, grid, gs=gs)
    return make_initial_data("perturbed_q", {"lam": s["lambdas"][0],
                                             "eps": s["eps"]}, grid, gs=gs)


def median_ms(fn, reps: int = 5) -> float:
    """Median wall time of ``reps`` calls, in ms, after one warm-up call."""
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def kernel_timings(workload: str, s: dict, cache: str) -> dict:
    """One public `step_strang` and one `conserved` at the workload's grid."""
    from nls2d.evolution import step_strang
    from nls2d.functionals import conserved

    f = _kernel_datum(workload, s, cache)
    return {"step_strang_ms": median_ms(lambda: step_strang(f, 1e-3)),
            "conserved_ms": median_ms(lambda: conserved(f))}


def body_process(workload: str, s: dict, cache: str, out_dir: str,
                 trace: bool) -> dict:
    """Run one body in this process, which `body.py` started for it alone.

    Returns a dict: run_s, peak_rss_mb (the largest of this process and the
    sweep workers it waited for) and, when traced, the spans and the
    standalone kernel timings; or the traceback of a failure.
    """
    try:
        tracer = None
        if trace:
            spool = os.path.join(out_dir, "spans")
            os.makedirs(spool)
            tracer = tracing.Tracer(spool)
            tracing.install(tracer)
        t0 = time.perf_counter()
        out = _body(workload, s, cache, out_dir)
        run_s = time.perf_counter() - t0
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result = {"run_s": run_s, "peak_rss_mb": peak_kb / 1024.0,
                  "exit_code": out.get("exit_code", 0)}
        if "final" in out:
            np.save(os.path.join(out_dir, "final.npy"), out["final"].values)
        if tracer is not None:
            result["spans"] = tracer.collect()
            result.update(kernel_timings(workload, s, cache))
    except Exception:
        result = {"error": traceback.format_exc()}
    return result


def check(workload: str, s: dict, cache: str, out_dir: str,
          first_map: bytes | None) -> list:
    """Run the checks of one finished body; see `checks`.

    ``first_map`` is the first repetition's sweep region map.
    """
    if workload == "scatter-row":
        return checks.scatter_row(out_dir, s["lam"])
    if workload == "blowup-sweep":
        return checks.blowup_sweep(os.path.join(out_dir, "sweep"),
                                   s["lambdas"], s["eps"], s["t_end"], first_map)
    from nls2d.grid import read_checkpoint

    q = read_checkpoint(cache).values
    u = np.load(os.path.join(out_dir, "final.npy"))
    drift = checks.read_columns(os.path.join(out_dir, "trajectory.csv"))["mass_drift"]
    return checks.soliton(u, soliton_datum(q, s), s["t_end"], drift)
