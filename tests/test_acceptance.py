"""Acceptance battery: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Later criteria (06, 07, 11) audit every trajectory produced by
the earlier ones through a module-level registry, so this file is meant to
run in definition order (plain pytest does that).

Criterion 03's fidelity gate runs the sixth-order "kahan_li6" step.  The
standing-wave profile is a linearly unstable equilibrium of the focusing
quintic flow: the O(dt^2) splitting error of the default Strang step seeds
the unstable mode, which grows about 5e4-fold by t = 1, so Strang's
deviation at dt = 1e-3 is 0.49.  The order gate keeps pinning Strang.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from nls2d import (
    BLOWUP_DETECTED,
    Field,
    ProbeSpec,
    RAN_TO_T_END,
    SpectralGrid,
    StepControls,
    classify,
    cmd_sweep,
    conserved,
    evolve,
    galilean_boost,
    gn_inequality_check,
    make_initial_data,
    moments,
    renormalized,
    run_single,
    validate_config,
    virial_check_full,
)
from nls2d.classifier import CASE_BLOWUP, CASE_NEGATIVE_ENERGY, CASE_SCATTER
from oracles import galilean_reduce

# every trajectory produced by the suite lands here; criteria 06/07/11
# audit all of them
REGISTRY: dict = {"runs": [], "sweep_seconds": []}


def fixed_dt(dt, **kw):
    return StepControls(dt_min=dt, dt_max=dt, **kw)


def register_rec(label: str, rec, case: str, ME: float):
    REGISTRY["runs"].append({
        "label": label,
        "case": case,
        "ME": ME,
        "times": np.asarray(rec.times),
        "G": np.asarray(rec.G),
        "grad_sq": np.asarray(rec.grad_sq),
        "l6_6": np.asarray(rec.l6_6),
        "mass_drift": np.asarray(rec.mass_drift),
        "energy_drift": np.asarray(rec.energy_drift),
        "mass0": rec.mass0,
        "energy0": rec.energy0,
        "outcome": rec.outcome,
    })


def register_row_dir(label: str, row_dir: str):
    with open(os.path.join(row_dir, "verdict.json")) as fh:
        verdict = json.load(fh)
    with open(os.path.join(row_dir, "trajectory.outcome.json")) as fh:
        sidecar = json.load(fh)
    cols: dict = {}
    with open(os.path.join(row_dir, "trajectory.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    for i, name in enumerate(header):
        cols[name] = data[:, i]
    REGISTRY["runs"].append({
        "label": label,
        "case": verdict["case"],
        "ME": verdict["ME"],
        "times": cols["t"],
        "G": cols["G"],
        "grad_sq": cols["grad_sq"],
        "l6_6": cols["l6_6"],
        "mass_drift": cols["mass_drift"],
        "energy_drift": cols["energy_drift"],
        "mass0": sidecar["mass0"],
        "energy0": sidecar["energy0"],
        "outcome": sidecar["outcome"],
    })


@pytest.fixture(scope="module")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


# ---------------------------------------------------------------------------
# 1. certified ground state

def test_criterion_01_ground_state_certification(gs_cert, solve_seconds):
    assert gs_cert.certified
    assert np.max(np.abs(gs_cert.residuals)) <= 1e-6
    assert gs_cert.sup_err_vs_oracle <= 1e-5
    assert solve_seconds[0] <= 120.0


# ---------------------------------------------------------------------------
# 2. sharp interpolation inequality

def test_criterion_02_sharp_inequality(gs_cert, grid_256):
    # equality at the optimizer
    slack_q = gn_inequality_check(gs_cert.field, gs_cert)
    assert abs(slack_q) <= 1e-6 * gs_cert.l6Q_6
    # nonnegative slack on 20 random smooth fields
    rng = np.random.default_rng(2024)
    for _ in range(20):
        vals = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        f = Field(grid_256, np.fft.ifft2(np.fft.fft2(vals) * np.exp(-0.1 * grid_256.K2)))
        assert gn_inequality_check(f, gs_cert) >= 0.0


# ---------------------------------------------------------------------------
# 3. soliton fidelity and integrator order

def test_criterion_03_soliton_fidelity(gs_cert):
    # gate as stated: relative L2 deviation from the rotating profile at
    # t = 1 with dt = 1e-3.  The profile is an unstable equilibrium that
    # amplifies any step error about 5e4-fold by t = 1, so the gate needs
    # the sixth-order step; Strang's O(dt^2) seed grows to 0.49.
    controls = fixed_dt(1e-3, scheme="kahan_li6")
    rec = evolve(gs_cert.field, 1.0, controls, gs_cert,
                 ProbeSpec(cadence=0.5, snapshot_times=(1.0,)))
    u1 = rec.snapshots[-1].values
    target = np.exp(1j) * gs_cert.field.values
    err = np.sqrt(
        moments(Field(gs_cert.field.grid, u1 - target)).mass) / np.sqrt(gs_cert.massQ)
    assert err <= 1e-5, (
        f"measured relative deviation {err:.3e} with scheme {controls.scheme!r}"
    )


def test_criterion_03_strang_order(gs_cert, grid_256):
    # energy-drift ratio under dt halving on a generic (non-stationary)
    # datum; stationary profiles sit in the scheme's kernel and report the
    # next order up, so the order probe uses a moving field
    f = make_initial_data("scaled_q", {"lam": 0.9}, grid_256, gs=gs_cert)
    horizon = 0.4

    def drift(dt):
        rec = evolve(f, horizon, fixed_dt(dt), gs_cert,
                     ProbeSpec(cadence=horizon / 2.0))
        return abs(rec.energy_drift[-1])

    ratio = drift(2e-3) / drift(1e-3)
    assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# 4. conservation across three data families

def test_criterion_04_conservation_three_families(gs_cert):
    grid_a = SpectralGrid(128, 32.0)
    grid_b = SpectralGrid(256, 64.0)
    grid_c = SpectralGrid(128, 8.0 * np.pi)
    families = [
        ("gaussian hump", make_initial_data(
            "gaussian", {"amplitude": 0.3, "width": 1.2}, grid_a)),
        ("sub-threshold profile dilate", make_initial_data(
            "scaled_q", {"lam": 0.5}, grid_b, gs=gs_cert)),
        ("boosted gaussian", make_initial_data(
            "boosted", {"inner": {"family": "gaussian",
                                  "params": {"amplitude": 0.5, "width": 1.0}},
                        "xi": [0.5, 0.0]}, grid_c)),
    ]
    for label, f in families:
        rec = evolve(f, 5.0, fixed_dt(1e-3), gs_cert, ProbeSpec(cadence=0.05))
        assert rec.outcome == RAN_TO_T_END, label
        mass_worst = np.max(np.abs(rec.mass_drift))
        energy_worst = np.max(np.abs(rec.energy_drift))
        p0 = np.array([rec.momx[0], rec.momy[0]])
        mom_worst = max(
            np.max(np.abs(np.asarray(rec.momx) - p0[0])),
            np.max(np.abs(np.asarray(rec.momy) - p0[1])),
        )
        assert mass_worst <= 1e-11, (label, mass_worst)
        assert energy_worst <= 1e-6, (label, energy_worst)
        assert mom_worst <= 1e-8, (label, mom_worst)
        v = classify(f, gs_cert)
        register_rec(f"conservation: {label}", rec, v.case, v.ME)


# ---------------------------------------------------------------------------
# 5. dichotomy sweeps

def test_criterion_05_dichotomy_sweeps(gs_cache, acceptance_dir):
    t0 = time.perf_counter()

    scatter_cfg = validate_config({
        "grid": {"n": 512, "L": 64.0},
        "ground_state": {"cache": gs_cache},
        "t_end": 20.0,
        "probes": {"cadence": 0.05},
        "diagnostics": {"scattering": True, "virial": False,
                        "blowup_bound": False},
        "sweep": {"lambdas": [0.7, 0.8, 0.9, 0.95], "family": "scaled_q"},
        "seed": 7,
    })
    scatter_dir = acceptance_dir / "sweep_scatter"
    scatter_map = cmd_sweep(scatter_cfg, str(scatter_dir))
    with open(scatter_map, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for i, row in enumerate(rows):
        assert row["verdict"] == CASE_SCATTER, row
        assert row["outcome"] == RAN_TO_T_END, row
        assert float(row["t_star_or_decay"]) >= 10.0  # L6 decay factor
        row_dir = scatter_dir / f"row_{i:03d}"
        with open(row_dir / "scattering.json") as fh:
            sc = json.load(fh)
        assert sc["verdict"] == "scatter_like"
        assert sc["l6_decay_factor"] >= 10.0
        assert sc["d_mid_over_H1"] <= 0.05
        register_row_dir(f"scatter sweep lam={row['lambda']}", str(row_dir))

    blowup_cfg = validate_config({
        "grid": {"n": 512, "L": 32.0},
        "ground_state": {"cache": gs_cache},
        "t_end": 1.0,
        "probes": {"cadence": 0.01},
        "diagnostics": {"scattering": False, "virial": False,
                        "blowup_bound": False},
        "sweep": {"lambdas": [1.05, 1.1, 1.2, 1.3], "family": "perturbed_q",
                  "eps": 1e-3},
        "seed": 7,
    })
    blowup_dir = acceptance_dir / "sweep_blowup"
    blowup_map = cmd_sweep(blowup_cfg, str(blowup_dir))
    with open(blowup_map, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for i, row in enumerate(rows):
        assert row["verdict"] == CASE_BLOWUP, row
        assert row["outcome"] == BLOWUP_DETECTED, row
        assert float(row["t_star_or_decay"]) > 0.0  # detected t*
        row_dir = blowup_dir / f"row_{i:03d}"
        with open(row_dir / "trajectory.csv", newline="") as fh:
            g_col = [float(r["G"]) for r in csv.DictReader(fh)]
        # trapped above the threshold at every sample until detection
        assert min(g_col) > 1.0, row
        register_row_dir(f"blow-up sweep lam={row['lambda']}", str(row_dir))

    REGISTRY["sweep_seconds"].append(time.perf_counter() - t0)
    REGISTRY["blowup_cfg"] = blowup_cfg
    REGISTRY["blowup_dir"] = str(blowup_dir)
    assert sum(REGISTRY["sweep_seconds"]) <= 1800.0


# ---------------------------------------------------------------------------
# 8. boost, reduction, and verdict invariance

def test_criterion_08_galilean_program(gs_cert):
    grid = SpectralGrid(128, 8.0 * np.pi)
    f = Field(grid, (0.6 * np.exp(-grid.R**2 / 2.0)).astype(complex))
    v_plain = classify(f, gs_cert)
    r_plain = renormalized(moments(f), gs_cert)
    for xi in (np.array([0.5, 0.0]), np.array([0.0, 1.0])):
        boosted = galilean_boost(f, xi)
        reduced, xi0 = galilean_reduce(boosted)
        mass = conserved(boosted).mass
        assert np.max(np.abs(conserved(reduced).momentum)) <= 1e-10 * max(1.0, mass)
        r_boost = renormalized(moments(boosted), gs_cert)
        r_red = renormalized(moments(reduced), gs_cert)
        assert abs(r_red.ME - (r_boost.ME - 2.0 * r_boost.Pn**2)) <= 1e-9
        v_boost = classify(boosted, gs_cert)
        assert v_boost.case == v_plain.case
        assert v_boost.g2_minus_p2 == pytest.approx(r_plain.G**2, abs=1e-9)


# ---------------------------------------------------------------------------
# 9. negative-energy collapse

def test_criterion_09_negative_energy_blowup(gs_cert, grid_256):
    f = make_initial_data("gaussian", {"amplitude": 2.0, "width": 1.0}, grid_256)
    cs = conserved(f)
    # energy computed, then checked against the closed form -(14/9) pi
    assert cs.energy == pytest.approx(-14.0 * np.pi / 9.0, rel=1e-10)
    v = classify(f, gs_cert)
    assert v.case == CASE_NEGATIVE_ENERGY

    rec = evolve(f, 1.0, StepControls(), gs_cert, ProbeSpec(cadence=0.01))
    assert rec.outcome == BLOWUP_DETECTED
    assert rec.t_star is not None and rec.t_star > 0.0
    # convexity: V'' formula <= 32 E < 0 at every pre-detection sample,
    # with E reconstructed from the recorded drift
    e_scale = max(abs(rec.energy0), 1e-3)
    for i in range(len(rec.times)):
        energy_i = rec.energy0 + rec.energy_drift[i] * e_scale
        vpp = 8.0 * rec.grad_sq[i] - (16.0 / 3.0) * rec.l6_6[i]
        assert 32.0 * energy_i < 0.0
        assert vpp <= 32.0 * energy_i + 1e-9 * abs(energy_i)
    register_rec("negative-energy gaussian", rec, v.case, v.ME)


# ---------------------------------------------------------------------------
# 10. virial identity against finite differences

def test_criterion_10_virial_identity(gs_cert):
    # fixed dt keeps the numerical trajectory smooth in t; an adaptive
    # controller truncates the last step before each sample by a varying
    # amount, and the resulting O(dt^3) jitter is amplified by 4/h^2 in the
    # second difference, masking the h^2 convergence this test measures
    grid = SpectralGrid(128, 32.0)
    f = make_initial_data("gaussian", {"amplitude": 0.8, "width": 1.5}, grid)
    rec = evolve(f, 0.3, fixed_dt(1e-3), gs_cert,
                 ProbeSpec(cadence=0.01,
                           snapshot_times=tuple(0.01 * k for k in range(31))))
    assert rec.outcome == RAN_TO_T_END

    trace = virial_check_full(rec.snapshots, R=8.0)
    mid = slice(1, -1)
    rel = np.abs(trace.Vpp_fd[mid] - trace.Vpp_formula[mid]) / np.abs(
        trace.Vpp_formula[mid])
    assert np.max(rel) <= 1e-3

    # second-order improvement: doubling the spacing by subsampling the
    # same snapshots must grow the worst FD error by about 4
    coarse = virial_check_full(rec.snapshots[::2], R=8.0)

    def worst(tr):
        err = np.abs(np.asarray(tr.Vpp_fd) - np.asarray(tr.Vpp_formula))
        return float(np.max(err[np.isfinite(err)]))

    assert 3.0 <= worst(coarse) / worst(trace) <= 5.0

    # stationary profile: the formula vanishes to quadrature accuracy
    assert abs(moments(gs_cert.field).virial) <= 1e-5 * gs_cert.gradQ_sq

    v = classify(f, gs_cert)
    register_rec("virial window gaussian", rec, v.case, v.ME)


# ---------------------------------------------------------------------------
# 12. localized-variance blow-up time bound (soft: logged and reviewed)

def test_criterion_12_blowup_time_bound(gs_cert, gs_cache, acceptance_dir):
    cfg = validate_config({
        "grid": {"n": 512, "L": 48.0},
        "ground_state": {"cache": gs_cache},
        "initial_data": {"family": "scaled_q", "params": {"lam": 1.2}},
        "t_end": 1.0,
        "probes": {"cadence": 0.01},
        "diagnostics": {"scattering": False, "virial": False,
                        "blowup_bound": True, "bound_R": 12.0,
                        "kappa": 0.05},
    })
    out = acceptance_dir / "bound_run"
    report = run_single(cfg, gs_cert, str(out), seed=0)
    bound = report["blowup_bound"]
    assert bound is not None and bound["t_b"] is not None
    assert bound["t_b"] > 0.0
    assert report["t_star"] is not None
    # soft part of the criterion: the ordering is logged for review, not
    # asserted, since the bound's hypotheses are checked only at t = 0
    ordered = report["t_star"] <= bound["t_b"]
    print(f"\n[review] detected t* = {report['t_star']:.4f}, "
          f"bound t_b = {bound['t_b']:.4f}, t* <= t_b: {ordered}")
    register_row_dir("time-bound run lam=1.2", str(out))


# ---------------------------------------------------------------------------
# 6. threshold trapping across every registered run.  Defined after the
# producing criteria so the audit covers all thirteen trajectories.

def test_criterion_06_threshold_trapping():
    runs = REGISTRY["runs"]
    assert runs, "no trajectories registered; criteria 04/05 must run first"
    below = [r for r in runs if r["case"] == CASE_SCATTER]
    above = [r for r in runs if r["case"] in (CASE_BLOWUP, CASE_NEGATIVE_ENERGY)]
    assert below and above
    for r in below:
        assert np.max(r["G"]) < 1.0, r["label"]
    for r in above:
        assert np.min(r["G"]) > 1.0, r["label"]


# ---------------------------------------------------------------------------
# 7. two-sided window at every sample of every registered run.  Each sampled
# state is scored with its own mass-energy product, reconstructed from the
# recorded drift columns; the window is an algebraic invariant of the state,
# so integrator drift over long horizons must not be charged against it.

def test_criterion_07_window_invariant(gs_cert):
    runs = REGISTRY["runs"]
    assert runs, "no trajectories registered; criteria 04/05 must run first"
    for r in runs:
        mass_t = r["mass0"] * (1.0 + r["mass_drift"])
        energy_t = r["energy0"] + r["energy_drift"] * max(abs(r["energy0"]), 1e-3)
        me_t = mass_t * energy_t / (gs_cert.massQ * gs_cert.energyQ)
        g2 = r["G"] ** 2
        lower = me_t - (2.0 * g2 - g2**2)
        upper = 2.0 * g2 - me_t
        scale = max(1.0, float(np.max(np.abs(me_t))), 2.0 * float(np.max(g2)))
        assert float(np.min(lower)) >= -1e-6 * scale, (r["label"], np.min(lower))
        assert float(np.min(upper)) >= -1e-6 * scale, (r["label"], np.min(upper))


# ---------------------------------------------------------------------------
# 11. below-threshold energy-gradient margins

def test_criterion_11_bounds_margins():
    from nls2d import energy_gradient_bounds_check

    runs = [r for r in REGISTRY["runs"] if r["case"] == CASE_SCATTER]
    assert runs, "no below-threshold trajectories registered"

    class _Shim:
        pass

    for r in runs:
        shim = _Shim()
        shim.G = r["G"]
        shim.grad_sq = r["grad_sq"]
        shim.energy_drift = r["energy_drift"]
        margins = energy_gradient_bounds_check(shim, r["energy0"], r["ME"])
        assert margins.min_margin() >= 0.0, (r["label"], margins.min_margin())


# ---------------------------------------------------------------------------
# 13. bit-identical sweep reruns

def test_criterion_13_sweep_determinism(acceptance_dir):
    cfg = REGISTRY.get("blowup_cfg")
    first_dir = REGISTRY.get("blowup_dir")
    assert cfg is not None and first_dir is not None, \
        "criterion 05 must run first"
    rerun_dir = acceptance_dir / "sweep_blowup_rerun"
    rerun_map = cmd_sweep(cfg, str(rerun_dir))

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    assert read(rerun_map) == read(os.path.join(first_dir, "region_map.csv"))
    for i in range(4):
        for name in ("trajectory.csv", "trajectory.outcome.json",
                     "verdict.json"):
            a = os.path.join(first_dir, f"row_{i:03d}", name)
            b = str(rerun_dir / f"row_{i:03d}" / name)
            assert read(a) == read(b), (i, name)
