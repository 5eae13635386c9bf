"""Experiment orchestration: cached ground states, single runs, sweeps.

One trajectory is a strictly ordered task; distinct trajectories share no
mutable state, so sweeps fan out across processes.  All artifacts (CSV and
JSON) are written with repr-exact floats in input order, making outputs
bit-identical for identical config + seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import traceback

import numpy as np
from scipy import fft

from .grid import (SpectralGrid, atomic_open, write_checkpoint, read_checkpoint,
                   Field, moments, write_float_csv)
from .functionals import renormalized, window_check
from .ground_state import (
    CertificationError,
    gn_inequality_check,
    load_ground_state,
    make_initial_data,
    save_ground_state,
    solve_petviashvili,
)
from .evolution import (
    RAN_TO_T_END,
    ProbeSpec,
    StepControls,
    evolve,
    step_strang,
    write_trajectory_csv,
)
from .diagnostics import (
    Cutoff,
    blowup_time_bound,
    scattering_detect,
    virial_check_full,
    write_scattering_json,
    write_virial_csv,
)
from .classifier import classify, reconcile, write_verdict_json


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def prepare_ground_state(cfg: dict):
    """Load the configured cache, or solve and certify from scratch."""
    gscfg = cfg["ground_state"]
    if gscfg["cache"]:
        gs = load_ground_state(gscfg["cache"])
    else:
        grid = SpectralGrid(gscfg["n"], gscfg["L"])
        gs = solve_petviashvili(grid)
    if not gs.certified:
        raise CertificationError(
            "ground state failed certification: residuals "
            + ", ".join(f"{r:.3e}" for r in gs.residuals)
            + f", sup error vs radial oracle {gs.sup_err_vs_oracle:.3e}"
        )
    return gs


def cmd_ground(cfg: dict, out_dir: str) -> str:
    """Solve + certify the ground state, cache it under out_dir.

    Returns the cache path.  Raises CertificationError when the identity
    residuals or the radial-oracle comparison fail their gates.
    """
    _ensure_dir(out_dir)
    gs = prepare_ground_state(cfg)
    path = os.path.join(out_dir, "ground_state.nls2")
    save_ground_state(gs, path)
    print(f"ground state on n={gs.field.grid.n}, L={gs.field.grid.L:g}")
    print(f"  peak height     {float(np.max(np.abs(gs.field.values))):.12f}")
    print(f"  mass            {gs.massQ:.12f}")
    print(f"  grad norm sq    {gs.gradQ_sq:.12f}")
    print(f"  L6 norm^6       {gs.l6Q_6:.12f}")
    print(f"  sharp constant  {gs.c_gn:.12e}")
    print(f"  identity residuals  " + " ".join(f"{r:.2e}" for r in gs.residuals))
    print(f"  vs radial oracle    {gs.sup_err_vs_oracle:.2e}")
    print(f"  certified       {gs.certified}")
    print(f"  cache           {path}")
    return path


def _aligned_snapshot_times(t0: float, window, cadence: float, count: int = 9):
    """Snapshot times inside the window, aligned to the probe cadence."""
    k1 = int(np.ceil((window[0] - t0) / cadence - 1e-9))
    k2 = int(np.floor((window[1] - t0) / cadence + 1e-9))
    if k2 - k1 < 2:
        raise ValueError("detector window too narrow for the probe cadence")
    ks = np.unique(np.round(np.linspace(k1, k2, count)).astype(int))
    return tuple(t0 + float(k) * cadence for k in ks)


def run_single(cfg: dict, gs, out_dir: str, seed: int) -> dict:
    """Classify, evolve, diagnose, reconcile; write all artifacts.

    Returns the report dict (also written to report.json).
    """
    _ensure_dir(out_dir)
    grid = SpectralGrid(cfg["grid"]["n"], cfg["grid"]["L"])
    family = cfg["initial_data"]["family"]
    params = cfg["initial_data"]["params"]
    f = make_initial_data(family, params, grid, gs=gs, seed=seed)

    verdict = classify(f, gs)
    write_verdict_json(verdict, os.path.join(out_dir, "verdict.json"))

    diag = cfg["diagnostics"]
    bound_info = None
    if diag["blowup_bound"]:
        try:
            t_b, info = blowup_time_bound(f, gs, diag["bound_R"], diag["kappa"])
            bound_info = {"t_b": t_b, **{k: v for k, v in info.items()}}
        except ValueError as exc:
            bound_info = {"t_b": None, "reason": str(exc)}

    cadence = cfg["probes"]["cadence"]
    scatter_times: tuple = ()
    if diag["scattering"]:
        window = tuple(map(float, diag["window"] or (0.0, cfg["t_end"])))
        scatter_times = _aligned_snapshot_times(f.t, window, cadence)
    virial_times: tuple = ()
    if diag["virial"]:
        every = cfg["probes"]["snapshot_every"] or 4
        k_end = int(np.floor((cfg["t_end"] - f.t) / cadence + 1e-9))
        virial_times = tuple(f.t + k * cadence for k in range(0, k_end + 1, every))
    probes = ProbeSpec(
        cadence=cadence,
        variance=cfg["probes"]["variance"],
        snapshot_times=tuple(sorted(set(scatter_times + virial_times))),
    )
    rec = evolve(f, cfg["t_end"], StepControls(**cfg["controls"]), gs, probes)
    write_trajectory_csv(rec, os.path.join(out_dir, "trajectory.csv"))

    scatter_report = None
    scatter_note = None
    if diag["scattering"]:
        if rec.outcome == RAN_TO_T_END:
            try:
                scatter_report = scattering_detect(
                    rec, window, rec.snapshots_at(scatter_times))
                write_scattering_json(
                    scatter_report, os.path.join(out_dir, "scattering.json"))
            except ValueError as exc:
                scatter_note = str(exc)
        else:
            scatter_note = f"trajectory ended early: {rec.outcome}"

    virial_note = None
    if diag["virial"]:
        try:
            trace = virial_check_full(rec.snapshots_at(virial_times),
                                      R=diag["virial_R"])
            write_virial_csv(trace, os.path.join(out_dir, "virial.csv"))
            guarded = int(np.sum(np.isnan(trace.V)))
            if guarded:
                virial_note = (f"V and Vp_formula are NaN on {guarded} of {len(trace.V)}"
                               " snapshots: boundary mass fraction exceeds 1e-10")
        except ValueError as exc:
            virial_note = str(exc)

    agreement = reconcile(verdict, rec, scatter_report)

    report = {
        "family": family,
        "params": params,
        "seed": int(seed),
        "verdict": verdict.to_json(),
        "outcome": {"outcome": rec.outcome, "t": rec.outcome_t,
                    "steps": rec.steps_taken},
        "agreement": agreement,
        "t_star": rec.t_star,
        "blowup_bound": bound_info,
        "scattering": scatter_report.to_json() if scatter_report else None,
        "scattering_note": scatter_note,
        "virial_note": virial_note,
    }
    with atomic_open(os.path.join(out_dir, "report.json")) as fh:
        json.dump(report, fh, indent=2)
    return report


def cmd_run(cfg: dict, out_dir: str) -> dict:
    _ensure_dir(out_dir)
    gs = prepare_ground_state(cfg)
    report = run_single(cfg, gs, out_dir, cfg["seed"])
    print(f"verdict    {report['verdict']['case']}")
    print(f"outcome    {report['outcome']['outcome']} at t = {report['outcome']['t']:g}")
    print(f"agreement  {report['agreement']}")
    print(f"artifacts  {out_dir}")
    return report


# ---------------------------------------------------------------------------
# sweeps

# region_map.csv's columns; a row is a tuple of its cells in this order
REGION_COLUMNS = ("lambda", "ME", "G0_sq", "verdict", "outcome",
                  "t_star_or_decay")


def _row_config(cfg: dict, lam: float) -> dict:
    row = json.loads(json.dumps(cfg))  # deep copy via JSON round-trip
    del row["sweep"]  # a row's config names its own lambda, not the others
    fam = cfg["sweep"]["family"]
    params = {"lam": float(lam)}
    if fam == "perturbed_q":
        params["eps"] = cfg["sweep"]["eps"]
    row["initial_data"] = {"family": fam, "params": params}
    return row


def _finished_report(row_dir: str, key: str) -> dict | None:
    """The row's report if a finished run recorded `key` (its row config
    and seed) in row.json; None when the row must run."""
    try:
        with open(os.path.join(row_dir, "row.json")) as fh:
            if fh.read() != key:
                return None
        with open(os.path.join(row_dir, "report.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _sweep_worker(payload: dict) -> tuple[int, tuple]:
    """One sweep row in a worker process; never raises.  A failed row
    leaves its traceback in error.txt in the row directory."""
    i = payload["index"]
    key_path = os.path.join(payload["out_dir"], "row.json")
    error_path = os.path.join(payload["out_dir"], "error.txt")
    try:
        # row.json follows the report, so a half-replaced row never resumes
        for stale in (key_path, error_path):
            if os.path.exists(stale):
                os.remove(stale)
        report = run_single(payload["cfg"], payload["gs"], payload["out_dir"],
                            payload["seed"])
        with atomic_open(key_path) as fh:
            fh.write(payload["key"])
        return i, _row_from_report(payload["lam"], report)
    except Exception as exc:  # recorded per-row, sweep continues
        with contextlib.suppress(OSError):
            _ensure_dir(payload["out_dir"])
            with atomic_open(error_path) as fh:
                fh.write(traceback.format_exc())
        return i, (payload["lam"], None, None, "", f"failed: {exc}", None)


def _row_from_report(lam: float, report: dict) -> tuple:
    v = report["verdict"]
    if report["t_star"] is not None:
        extra = report["t_star"]
    elif report["scattering"] is not None:
        extra = report["scattering"]["l6_decay_factor"]
    else:
        extra = None
    return (float(lam), v["ME"], v["G0"] ** 2, v["case"],
            report["outcome"]["outcome"], extra)


def cmd_sweep(cfg: dict, out_dir: str, workers: int | None = None) -> str:
    """Run one trajectory per sweep lambda; emit region_map.csv.

    Every row takes the ground state that this process loaded or solved,
    in memory; the sweep writes no copy of the cache.  Rows land in input
    order regardless of scheduling.  A row directory whose report.json
    parses and whose row.json records the same row config and seed is
    loaded, not rerun, so an interrupted sweep resumes where it stopped;
    any other row runs afresh.
    """
    lambdas = cfg["sweep"]["lambdas"]
    if not lambdas:
        raise ValueError("sweep.lambdas is empty")
    _ensure_dir(out_dir)
    gs = prepare_ground_state(cfg)

    ss = np.random.SeedSequence(cfg["seed"])
    children = ss.spawn(len(lambdas))
    rows: dict[int, tuple] = {}
    pending = []
    for i, lam in enumerate(lambdas):
        row_cfg = _row_config(cfg, lam)
        seed = int(children[i].generate_state(1, dtype=np.uint64)[0])
        payload = {
            "index": i,
            "lam": float(lam),
            "cfg": row_cfg,
            "gs": gs,
            "out_dir": os.path.join(out_dir, f"row_{i:03d}"),
            "seed": seed,
            "key": json.dumps({"config": row_cfg, "seed": seed}, indent=2),
        }
        report = _finished_report(payload["out_dir"], payload["key"])
        if report is None:
            pending.append(payload)
        else:
            rows[i] = _row_from_report(lam, report)

    if pending:
        n_workers = workers or cfg["workers"] or os.cpu_count() or 1
        n_workers = min(n_workers, len(pending))
        if n_workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                for i, row in pool.map(_sweep_worker, pending):
                    rows[i] = row
        else:
            for payload in pending:
                i, row = _sweep_worker(payload)
                rows[i] = row

    path = os.path.join(out_dir, "region_map.csv")
    write_float_csv(path, REGION_COLUMNS, (rows[i] for i in range(len(lambdas))))
    print(f"region map {path} ({len(lambdas)} rows)")
    return path


# ---------------------------------------------------------------------------
# self-test battery

def cmd_verify() -> bool:
    """Identity/inequality battery on the 512/48 grid; prints PASS/FAIL lines."""
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str):
        checks.append((name, ok, detail))
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    grid = SpectralGrid(512, 48.0)
    gs = solve_petviashvili(grid, tol=1e-10)
    worst = float(np.max(np.abs(gs.residuals)))
    record("identity residuals", worst <= 1e-6, f"max {worst:.2e}")
    record("radial oracle agreement", gs.sup_err_vs_oracle <= 1e-5,
           f"sup {gs.sup_err_vs_oracle:.2e}")

    slack_q = gn_inequality_check(gs.field, gs)
    scale = gs.c_gn * gs.massQ**2 * gs.gradQ_sq
    record("interpolation equality at the optimizer",
           abs(slack_q) <= 1e-6 * scale, f"relative {slack_q / scale:.2e}")

    rng = np.random.default_rng(7)
    min_slack = np.inf
    smooth_1d = np.exp(-0.05 * grid.k1d**2)  # exp(-0.05 |k|^2) factors
    smooth = np.outer(smooth_1d, smooth_1d)
    for _ in range(20):
        env = np.exp(-grid.R**2 / rng.uniform(2.0, 12.0))
        vals = (rng.normal(size=grid.R.shape) + 1j * rng.normal(size=grid.R.shape)) * env
        sm = fft.ifft2(fft.fft2(vals) * smooth)
        h = Field(grid, sm)
        min_slack = min(min_slack, gn_inequality_check(h, gs))
    record("interpolation inequality on random fields", min_slack >= -1e-12,
           f"min slack {min_slack:.2e}")

    cut = Cutoff(8.0, grid)
    inner = grid.R <= cut.R
    cut_err = float(np.max(np.abs(cut.w[inner] - grid.R[inner] ** 2))) / cut.R**2
    cut_ok = cut_err <= 1e-12 and bool(np.all(cut.w[grid.R >= 2.0 * cut.R] == 0.0))
    record("cutoff constraints", cut_ok,
           f"|x|^2 inside R to {cut_err:.1e} relative, zero beyond 2R")

    vr = moments(gs.field).virial
    record("soliton virial balance", abs(vr) <= 1e-5 * gs.gradQ_sq,
           f"V'' = {vr:.2e} vs grad^2 {gs.gradQ_sq:.2e}")

    lam = 0.9
    f9 = make_initial_data("scaled_q", {"lam": lam}, grid, gs=gs)
    m9 = moments(f9)
    w = window_check(renormalized(m9, gs))
    record("scaled datum inside the window", w.status == "inside",
           f"margins {w.lower_margin:.2e}, {w.upper_margin:.2e}")

    stepped = step_strang(f9, 1e-3)
    md = abs(moments(stepped).mass - m9.mass) / m9.mass
    record("single-step mass preservation", md <= 1e-13, f"drift {md:.2e}")

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "rt.nls2")
        write_checkpoint(f9, p)
        same = read_checkpoint(p, grid=grid).values.tobytes() == f9.values.tobytes()
        record("checkpoint round-trip", same,
               "bit for bit" if same else "the bits differ")

    ok = all(c[1] for c in checks)
    print(f"verify: {sum(c[1] for c in checks)}/{len(checks)} checks passed")
    return ok
