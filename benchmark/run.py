#!/usr/bin/env python3
"""Benchmark of nls2d: time to a checked verdict, set-up time, peak memory.

    python3 benchmark/run.py --workload scatter-row --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
One run sets up the certified ground state three times (`nls2d ground`),
then repeats the workload body, each time in a fresh process and a fresh
output directory under `.bench_runs/`, until `--seconds` have passed (at
least once), and checks every body's outputs.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: run_s and peak_rss_mb (medians
over the bodies) and setup_s (median over the set-ups).  --trace 1 runs
each round twice, once plain and once traced, and reports the per-layer
metrics (medians over the traced bodies).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BODY = os.path.join(HERE, "body.py")
SETUPS = 3
BODY_TIMEOUT_S = 120.0


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(run_dir: str) -> tuple[list[float], str]:
    """`nls2d ground` SETUPS times; returns the wall times and a cache path."""
    from nls2d import cli

    cfg = os.path.join(run_dir, "ground.json")
    with open(cfg, "w") as fh:
        json.dump({}, fh)
    times = []
    for i in range(SETUPS):
        out = os.path.join(run_dir, f"setup_{i}")
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t0 = time.perf_counter()
            code = cli.main(["ground", "--config", cfg, "--out", out])
            times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"nls2d ground exited with {code}:\n{log.getvalue()}")
    return times, os.path.join(out, "ground_state.nls2")


def run_body(workload: str, s: dict, cache: str, out_dir: str, trace: bool) -> dict:
    """One body in a fresh interpreter, `body.py`, waited for on every path.

    The interpreter is started with `subprocess`, not `multiprocessing`: a
    `spawn` start would leave multiprocessing's resource-tracker process
    running after this process has exited.  It leads a process group of its
    own, which is killed on the way out, so that sweep workers cannot outlive
    a body that failed or timed out.
    """
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "request.json"), "w") as fh:
        json.dump({"workload": workload, "spec": s, "cache": cache,
                   "trace": trace}, fh)
    log_path = os.path.join(out_dir, "body.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, BODY, out_dir],
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=BODY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the body's group holds its sweep workers too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    result_path = os.path.join(out_dir, "result.pkl")
    if code is None:
        return {"error": f"no result within {BODY_TIMEOUT_S:g} s"}
    if code != 0 or not os.path.exists(result_path):
        with open(log_path) as fh:
            return {"error": f"body process exited with {code}:\n{fh.read()}"}
    with open(result_path, "rb") as fh:
        return pickle.load(fh)


def layer_metrics(r: dict) -> dict:
    """Per-layer metrics of one traced body."""
    spans = r["spans"]
    evolve_s = tracing.total(spans, "evolution.evolve")
    steps = tracing.count(spans, "evolution.evolve", "steps")
    rows = [tracing.duration(s) for s in spans
            if s["name"] == "harness.sweep_row"]
    return {
        "ground_state.load_ms":
            1e3 * tracing.total(spans, "ground_state.load"),
        "ground_state.initial_data_ms":
            1e3 * tracing.total(spans, "ground_state.initial_data"),
        "grid.spectral_grid_ms":
            1e3 * tracing.total(spans, "grid.spectral_grid"),
        "functionals.conserved_ms": r["conserved_ms"],
        "classifier.classify_ms":
            1e3 * tracing.total(spans, "classifier.classify"),
        "evolution.evolve_s": evolve_s,
        "evolution.steps": steps,
        "evolution.probes": tracing.count(spans, "evolution.evolve", "probes"),
        "evolution.ms_per_step": 1e3 * evolve_s / steps if steps else 0.0,
        "evolution.step_strang_ms": r["step_strang_ms"],
        "evolution.evolve_share": evolve_s / r["run_s"],
        "diagnostics.scattering_detect_ms":
            1e3 * tracing.total(spans, "diagnostics.scattering_detect"),
        "harness.artifacts_ms":
            1e3 * tracing.total(spans, "harness.artifacts"),
        "harness.row_s_max": max(rows, default=0.0),
        "harness.pool_efficiency":
            sum(rows) / (workloads.WORKERS * r["run_s"]) if rows else 0.0,
    }


def setup_metrics(spans: list[dict]) -> dict:
    shooting = [tracing.duration(s) for s in spans
                if s["name"] == "ground_state.shooting"]
    petviashvili = [tracing.self_time(s, spans) for s in spans
                    if s["name"] == "ground_state.petviashvili"]
    return {"ground_state.shooting_s": statistics.median(shooting),
            "ground_state.petviashvili_s": statistics.median(petviashvili)}


def grid_mb(s: dict) -> float:
    """Bytes of the arrays a SpectralGrid holds at the workload's grid."""
    from nls2d.grid import SpectralGrid

    grid = SpectralGrid(s["grid"]["n"], s["grid"]["L"])
    return sum(v.nbytes for v in vars(grid).values()
               if isinstance(v, np.ndarray)) / 2**20


def print_trace(r: dict) -> None:
    print(f"traced body {r['run_s']:.3f} s; self time by span:")
    for name, calls, self_s in tracing.self_table(r["spans"]):
        print(f"  {name:32s} {calls:4d} calls {self_s:9.4f} s")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "nls2d", "__init__.py")):
        print(f"error: no nls2d package under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv, workloads.WORKLOADS)
    with open(BENCHMARK_JSON) as fh:
        benchmark = json.load(fh)  # the metric names and units to report
    trace = bool(args.trace)
    s = workloads.spec(args.workload, args.seed)
    os.makedirs(RUNS, exist_ok=True)
    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    keep = False
    try:
        tracer = None
        if trace:
            os.makedirs(os.path.join(run_dir, "setup_spans"))
            tracer = tracing.Tracer(os.path.join(run_dir, "setup_spans"))
            tracing.install(tracer)
        setup_times, cache = set_up(run_dir)
        setup_spans = tracer.collect() if tracer is not None else []

        plain, traced = [], []
        attempted = failed = 0
        correct = True
        first_map = None
        rep = 0
        t0 = time.perf_counter()
        while not plain or time.perf_counter() - t0 < args.seconds:
            modes = (False, True) if trace else (False,)
            if len(plain) % 2:
                modes = modes[::-1]
            for mode in modes:
                out_dir = os.path.join(run_dir, f"rep_{rep:03d}")
                rep += 1
                r = run_body(args.workload, s, cache, out_dir, mode)
                attempted += 1
                if "error" in r or r["exit_code"] != 0:
                    failed += 1
                    keep = True
                    print(f"rep {rep - 1}: body failed: {r.get('error', r)}",
                          file=sys.stderr)
                    continue
                if args.workload == "blowup-sweep":
                    sweep_dir = os.path.join(out_dir, "sweep")
                    rows = checks.read_rows(sweep_dir)
                    attempted += len(rows)
                    failed += sum(row["outcome"].startswith("failed") for row in rows)
                    if first_map is None:
                        first_map = checks.region_map(sweep_dir)
                results = workloads.check(args.workload, s, cache, out_dir, first_map)
                attempted += len(results)
                bad = [c for c in results if not c[1]]
                failed += len(bad)
                if bad:
                    correct = False
                    keep = True
                    for name, _, detail in bad:
                        print(f"rep {rep - 1}: check failed: {name}: {detail}",
                              file=sys.stderr)
                (traced if mode else plain).append(r)
                print(f"rep {rep - 1}{' traced' if mode else ''}: run_s "
                      f"{r['run_s']:.3f} s, peak {r['peak_rss_mb']:.1f} MB, "
                      f"{len(results) - len(bad)}/{len(results)} checks passed")
            if not plain:
                break  # every body failed; there is nothing to measure

        if not plain or (trace and not traced):
            return 1
        run_s = statistics.median(r["run_s"] for r in plain)
        if trace:
            per_body = [layer_metrics(r) for r in traced]
            values = {k: statistics.median(m[k] for m in per_body)
                      for k in per_body[0]}
            values.update(setup_metrics(setup_spans))
            values["grid.spectral_grid_mb"] = grid_mb(s)
            traced_s = statistics.median(r["run_s"] for r in traced)
            values["trace.overhead_s"] = traced_s - run_s
            print_trace(traced[-1])
            print(f"run_s plain {run_s:.3f} s, traced {traced_s:.3f} s")
        else:
            values = {
                "run_s": run_s,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }
        declared = benchmark["per_layer" if trace else "end_to_end"]
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in declared}
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        if keep:
            print(f"outputs kept in {run_dir}", file=sys.stderr)
        else:
            shutil.rmtree(run_dir, ignore_errors=True)



if __name__ == "__main__":
    sys.exit(main())
