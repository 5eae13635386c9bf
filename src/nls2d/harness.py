"""Experiment orchestration: cached ground states, single runs, sweeps.

One trajectory is a strictly ordered task; distinct trajectories share no
mutable state, so sweeps fan out across processes.  All artifacts (CSV and
JSON) are written with repr-exact floats in input order, making outputs
bit-identical for identical config + seed.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .grid import (SpectralGrid, atomic_open, write_checkpoint, read_checkpoint,
                   Field, moments)
from .functionals import renormalized, window_check
from .ground_state import (
    CertificationError,
    gn_inequality_check,
    load_ground_state,
    make_initial_data,
    pohozhaev_check,
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
    _chi_derivs,
    _phi_derivs,
    blowup_time_bound,
    scattering_detect,
    virial_check_full,
    virial_rhs,
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
        gs = solve_petviashvili(
            grid,
            tol=gscfg["tol"],
            max_iter=gscfg["max_iter"],
            shooting_tol=gscfg["shooting_tol"],
        )
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
    f = make_initial_data(family, params, grid, gs=gs, seed=seed,
                          boundary_tol=cfg["boundary_tol"])

    verdict = classify(f, gs)
    write_verdict_json(verdict, os.path.join(out_dir, "verdict.json"))

    diag = cfg["diagnostics"]
    bound_info = None
    if diag["blowup_bound"]:
        R = diag["bound_R"] if diag["bound_R"] is not None else grid.L / 4.0
        try:
            t_b, info = blowup_time_bound(f, gs, R, diag["kappa"], diag["kappa0"])
            bound_info = {"t_b": t_b, **{k: v for k, v in info.items()}}
        except ValueError as exc:
            bound_info = {"t_b": None, "reason": str(exc)}

    controls = StepControls(**cfg["controls"])
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
    rec = evolve(f, cfg["t_end"], controls, gs, probes)
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
        R = diag["virial_R"] if diag["virial_R"] is not None else grid.L / 4.0
        try:
            trace = virial_check_full(rec.snapshots_at(virial_times), R=R)
            write_virial_csv(trace, os.path.join(out_dir, "virial.csv"))
        except ValueError as exc:
            virial_note = str(exc)

    agreement = reconcile(verdict, rec, scatter_report,
                          grad_factor=controls.grad_blowup_factor)

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


def _sweep_worker(payload: dict) -> tuple[int, dict]:
    """One sweep row in a worker process; never raises."""
    i = payload["index"]
    key_path = os.path.join(payload["out_dir"], "row.json")
    try:
        # row.json follows the report, so a half-replaced row never resumes
        if os.path.exists(key_path):
            os.remove(key_path)
        gs = load_ground_state(payload["cache"])
        report = run_single(payload["cfg"], gs, payload["out_dir"],
                            payload["seed"])
        with atomic_open(key_path) as fh:
            fh.write(payload["key"])
        return i, _row_from_report(payload["lam"], report)
    except Exception as exc:  # recorded per-row, sweep continues
        return i, {
            "lambda": payload["lam"], "ME": None, "G0_sq": None,
            "verdict": "", "outcome": f"failed: {exc}",
            "t_star_or_decay": None,
        }


def _row_from_report(lam: float, report: dict) -> dict:
    v = report["verdict"]
    if report["t_star"] is not None:
        extra = report["t_star"]
    elif report["scattering"] is not None:
        extra = report["scattering"]["l6_decay_factor"]
    else:
        extra = None
    return {
        "lambda": float(lam),
        "ME": v["ME"],
        "G0_sq": v["G0"] ** 2,
        "verdict": v["case"],
        "outcome": report["outcome"]["outcome"],
        "t_star_or_decay": extra,
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sweep(cfg: dict, out_dir: str, workers: int | None = None) -> str:
    """Run one trajectory per sweep lambda; emit region_map.csv.

    Rows land in input order regardless of scheduling.  A row directory
    whose report.json parses and whose row.json records the same row config
    and seed is loaded, not rerun, so an interrupted sweep resumes where it
    stopped; any other row runs afresh.
    """
    lambdas = cfg["sweep"]["lambdas"]
    if not lambdas:
        raise ValueError("sweep.lambdas is empty")
    _ensure_dir(out_dir)
    gs = prepare_ground_state(cfg)
    cache = os.path.join(out_dir, "ground_state.nls2")
    save_ground_state(gs, cache)

    ss = np.random.SeedSequence(cfg["seed"])
    children = ss.spawn(len(lambdas))
    rows: dict[int, dict] = {}
    pending = []
    for i, lam in enumerate(lambdas):
        row_cfg = _row_config(cfg, lam)
        seed = int(children[i].generate_state(1, dtype=np.uint64)[0])
        payload = {
            "index": i,
            "lam": float(lam),
            "cfg": row_cfg,
            "cache": cache,
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
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                for i, row in pool.map(_sweep_worker, pending):
                    rows[i] = row
        else:
            for payload in pending:
                i, row = _sweep_worker(payload)
                rows[i] = row

    path = os.path.join(out_dir, "region_map.csv")
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["lambda", "ME", "G0_sq", "verdict", "outcome", "t_star_or_decay"])
        for i in range(len(lambdas)):
            r = rows[i]
            writer.writerow([_csv_cell(r[k]) for k in (
                "lambda", "ME", "G0_sq", "verdict", "outcome",
                "t_star_or_decay")])
    print(f"region map {path} ({len(lambdas)} rows)")
    return path


# ---------------------------------------------------------------------------
# self-test battery

def cmd_verify(cfg: dict) -> bool:
    """Identity/inequality battery on a small grid; prints PASS/FAIL lines."""
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str):
        checks.append((name, ok, detail))
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    grid = SpectralGrid(512, 48.0)
    gs = solve_petviashvili(grid, tol=1e-10)
    res = pohozhaev_check(gs)
    record("identity residuals", max(abs(r) for r in res) <= 1e-6,
           "max " + f"{max(abs(r) for r in res):.2e}")
    record("radial oracle agreement", gs.sup_err_vs_oracle <= 1e-5,
           f"sup {gs.sup_err_vs_oracle:.2e}")

    slack_q = gn_inequality_check(gs.field, gs)
    scale = gs.c_gn * gs.massQ**2 * gs.gradQ_sq
    record("interpolation equality at the optimizer",
           abs(slack_q) <= 1e-6 * scale, f"relative {slack_q / scale:.2e}")

    rng = np.random.default_rng(7)
    min_slack = np.inf
    for _ in range(20):
        env = np.exp(-grid.R**2 / rng.uniform(2.0, 12.0))
        vals = (rng.normal(size=grid.X.shape) + 1j * rng.normal(size=grid.X.shape)) * env
        sm = np.fft.ifft2(np.fft.fft2(vals) * np.exp(-grid.K2 * 0.05))
        h = Field(grid, sm)
        min_slack = min(min_slack, gn_inequality_check(h, gs))
    record("interpolation inequality on random fields", min_slack >= -1e-12,
           f"min slack {min_slack:.2e}")

    r = np.linspace(0.0, 5.0, 2001)
    _, _, chi2 = _chi_derivs(r)
    rho = np.linspace(0.0, 2.5, 2001)
    phi0, _, _, _, _ = _phi_derivs(rho)
    cut_ok = bool(np.max(chi2) <= 2.0 + 1e-12 and np.all(phi0[rho >= 2.0] == 0.0))
    record("cutoff constraints", cut_ok,
           f"max curvature {np.max(chi2):.6f}, compact support honored")

    vr = virial_rhs(gs.field)
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
        back = read_checkpoint(p, grid=grid)
        rt = float(np.max(np.abs(back.values - f9.values)))
        record("checkpoint round-trip", rt == 0.0, f"sup diff {rt:.1e}")

    ok = all(c[1] for c in checks)
    print(f"verify: {sum(c[1] for c in checks)}/{len(checks)} checks passed")
    return ok
