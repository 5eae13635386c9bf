"""Each correctness check of the benchmark rejects a wrong answer.

    python3 -m pytest benchmark -q
"""

import csv
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import checks  # noqa: E402
from nls2d import (  # noqa: E402
    ProbeSpec,
    SpectralGrid,
    StepControls,
    classify,
    evolve,
    make_initial_data,
    solve_petviashvili,
)


@pytest.fixture(scope="module")
def gs():
    return solve_petviashvili(SpectralGrid(512, 48.0), tol=1e-10)


def failed(results):
    return sorted(name for name, ok, _ in results if not ok)


def test_soliton_check_rejects_strang_at_the_same_dt(gs):
    # the Strang step's O(dt^2) error seeds the unstable mode of Q; at
    # dt = 1e-3 it deviates by 2.0e-5 at the benchmark's t = 0.03
    t = 0.03
    rec = evolve(gs.field, t, StepControls(dt0=1e-3, dt_min=1e-3, dt_max=1e-3),
                 gs, ProbeSpec(cadence=t, snapshot_times=(t,)))
    u = rec.snapshots[-1].values
    q = gs.field.values
    assert failed(checks.soliton(u, q, t, np.asarray(rec.mass_drift))) == [
        "deviation from exp(i t) Q"]
    assert failed(checks.soliton(np.exp(1j * t) * q, q, t, np.zeros(2))) == []


def test_invariant_check_rejects_lambda_off_by_1e3(gs):
    grid = SpectralGrid(512, 64.0)
    v = classify(make_initial_data("scaled_q", {"lam": 0.8}, grid, gs=gs), gs)
    tol = checks.INVARIANT_TOL
    assert failed(checks.invariants(v.G0, v.ME, 0.8, tol, tol)) == []
    assert failed(checks.invariants(v.G0, v.ME, 0.801, tol, tol)) == [
        "G0 = lam", "ME = 2 lam^2 - lam^4"]


def test_bump_tolerance_holds_the_bumped_data_and_rejects_a_wrong_lambda(gs):
    grid = SpectralGrid(512, 32.0)
    for lam in (1.2, 1.3):
        for seed in (7, 8, 9):
            f = make_initial_data("perturbed_q", {"lam": lam, "eps": 1e-3},
                                  grid, gs=gs, seed=seed)
            v = classify(f, gs)
            tols = checks.bump_tolerance(lam, 1e-3)
            assert failed(checks.invariants(v.G0, v.ME, lam, *tols)) == []
            # ME is flat near lam = 1.2 (dME/dlam = -2.1), so G0 catches it
            assert "G0 = lam" in failed(
                checks.invariants(v.G0, v.ME, lam + 0.01, *tols))


def test_mass_drift_check_rejects_drift_above_1e11():
    assert checks.mass_drift(np.array([0.0, 9e-12, -9e-12]))[1]
    assert not checks.mass_drift(np.array([0.0, -2e-11]))[1]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _write_trajectory(path, G, drift):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "G", "mass_drift"])
        for i, (g, d) in enumerate(zip(G, drift)):
            w.writerow([repr(0.01 * i), repr(g), repr(d)])


def _scatter_dir(tmp_path, lam=0.8, case="scatter", G=(0.8, 0.7), decay=38.8,
                 sc_verdict="scatter_like", d_t2=1e-3):
    g0, me = checks.closed_form(lam)
    _write_json(tmp_path / "verdict.json", {"case": case, "G0": g0, "ME": me})
    _write_trajectory(tmp_path / "trajectory.csv", G, [0.0] * len(G))
    _write_json(tmp_path / "scattering.json", {
        "verdict": sc_verdict, "l6_decay_factor": decay, "d_T2_over_H1": d_t2})
    return str(tmp_path)


@pytest.mark.parametrize("change, rejected", [
    ({}, []),
    ({"case": "blowup_or_diverge"}, ["verdict scatter"]),
    ({"G": (0.8, 1.0)}, ["G < 1 at every sample"]),
    ({"sc_verdict": "not_scatter_like"}, ["detector scatter_like"]),
    ({"decay": 9.9}, ["L6 decay >= 10"]),
    ({"d_t2": 0.06}, ["d_T2_over_H1 <= 0.05"]),
])
def test_scatter_row_checks(tmp_path, change, rejected):
    assert failed(checks.scatter_row(_scatter_dir(tmp_path, **change), 0.8)) == rejected


def _sweep_dir(tmp_path, lambdas, case="blowup_or_diverge",
               outcome="blowup_detected", t_star=0.05, G=(1.3, 1.4)):
    for i, lam in enumerate(lambdas):
        row = tmp_path / f"row_{i:03d}"
        row.mkdir()
        g0, me = checks.closed_form(lam)
        _write_json(row / "verdict.json", {"case": case, "G0": g0 + 1e-3, "ME": me})
        _write_json(row / "trajectory.outcome.json", {"outcome": outcome, "t": t_star})
        _write_trajectory(row / "trajectory.csv", G, [0.0] * len(G))
    (tmp_path / "region_map.csv").write_text("lambda\n1.2\n1.3\n")
    return str(tmp_path)


@pytest.mark.parametrize("change, rejected", [
    ({}, []),
    ({"case": "scatter"}, ["row 0 verdict blowup_or_diverge",
                           "row 1 verdict blowup_or_diverge"]),
    ({"outcome": "ran_to_t_end"}, ["row 0 blowup_detected with 0 < t* <= t_end",
                                   "row 1 blowup_detected with 0 < t* <= t_end"]),
    ({"t_star": 1.5}, ["row 0 blowup_detected with 0 < t* <= t_end",
                       "row 1 blowup_detected with 0 < t* <= t_end"]),
    ({"G": (1.3, 1.0)}, ["row 0 G > 1 at every sample",
                         "row 1 G > 1 at every sample"]),
])
def test_blowup_sweep_checks(tmp_path, change, rejected):
    out = _sweep_dir(tmp_path, [1.2, 1.3], **change)
    with open(os.path.join(out, "region_map.csv"), "rb") as fh:
        first = fh.read()
    assert failed(checks.blowup_sweep(out, [1.2, 1.3], 1e-3, 1.0, first)) == rejected


def test_blowup_sweep_rejects_a_changed_region_map(tmp_path):
    out = _sweep_dir(tmp_path, [1.2, 1.3])
    assert failed(checks.blowup_sweep(out, [1.2, 1.3], 1e-3, 1.0,
                                      b"lambda\n1.2\n1.31\n")) == [
        "region map byte-identical to the first repetition"]
