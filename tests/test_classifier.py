"""Verdict branches and the verdict-vs-trajectory reconciliation."""

import dataclasses

import numpy as np
import pytest

from nls2d import (
    BLOWUP_DETECTED,
    Field,
    ProbeSpec,
    RAN_TO_T_END,
    SpectralGrid,
    StepControls,
    TrajectoryRecord,
    UNDERRESOLVED,
    classify,
    evolve,
    galilean_boost,
    is_radial,
    make_initial_data,
    reconcile,
    write_verdict_json,
)
from nls2d.classifier import (
    CASE_BLOWUP,
    CASE_BOUNDARY,
    CASE_FORBIDDEN,
    CASE_NEGATIVE_ENERGY,
    CASE_OUT_OF_SCOPE,
    CASE_SCATTER,
)


def gaussian(grid, amp=1.0, width=1.0, center=(0.0, 0.0)):
    r2 = (grid.X - center[0]) ** 2 + (grid.Y - center[1]) ** 2
    return Field(grid, (amp * np.exp(-r2 / (2.0 * width**2))).astype(complex))


def test_classify_requires_certified(gs_cert, grid_128):
    bad = dataclasses.replace(gs_cert, certified=False)
    with pytest.raises(ValueError, match="certified"):
        classify(gaussian(grid_128, 0.3), bad)


def test_scaling_line_verdicts(gs_cert, grid_cert):
    below = make_initial_data("scaled_q", {"lam": 0.9}, grid_cert, gs=gs_cert)
    v = classify(below, gs_cert)
    assert v.case == CASE_SCATTER
    assert v.radial
    assert v.finite_variance
    assert v.G0 == pytest.approx(0.9, abs=1e-6)

    above = make_initial_data("scaled_q", {"lam": 1.2}, grid_cert, gs=gs_cert)
    assert classify(above, gs_cert).case == CASE_BLOWUP

    # the dead band around the threshold maps to boundary
    at = make_initial_data("scaled_q", {"lam": 1.0}, grid_cert, gs=gs_cert)
    assert classify(at, gs_cert).case == CASE_BOUNDARY


def test_negative_energy_verdict(gs_cert, grid_256):
    # amplitude-2 hump: E = pi A^2 (1/2 - A^4 w^2 / 18) < 0
    f = make_initial_data("gaussian", {"amplitude": 2.0, "width": 1.0}, grid_256)
    v = classify(f, gs_cert)
    assert v.case == CASE_NEGATIVE_ENERGY


def test_weak_gaussian_scatters(gs_cert, grid_256):
    f = make_initial_data("gaussian", {"amplitude": 0.3, "width": 1.2}, grid_256)
    v = classify(f, gs_cert)
    assert v.case == CASE_SCATTER
    assert v.g2_minus_p2 < 1.0


def test_out_of_scope_verdict(gs_cert, grid_256):
    # shrinking the reference mass scale by 8 lifts this datum's ME past 1
    # while its G grows by sqrt(8), keeping the reduced point inside the
    # window: analyzed regime exceeded without any forbidden geometry
    small = dataclasses.replace(gs_cert, massQ=gs_cert.massQ / 8.0)
    f = make_initial_data("gaussian", {"amplitude": 0.5, "width": 2.0}, grid_256)
    v = classify(f, small)
    assert v.case == CASE_OUT_OF_SCOPE
    assert v.me_minus_2p2 > 1.0


def test_forbidden_verdict(gs_cert, grid_256):
    # squashing the reference mass scale inflates ME while G shrinks,
    # pushing the reduced point outside the admissible window
    skew = dataclasses.replace(gs_cert, massQ=1.5 * gs_cert.massQ)
    f = make_initial_data("gaussian", {"amplitude": 0.9, "width": 1.2}, grid_256)
    v = classify(f, skew)
    assert v.case == CASE_FORBIDDEN


def test_verdict_boost_invariant(gs_cert):
    from nls2d import SpectralGrid

    g = SpectralGrid(128, 8.0 * np.pi)
    k0 = 2.0 * np.pi / g.L
    f = gaussian(g, 0.6, 1.0)
    v0 = classify(f, gs_cert)
    v1 = classify(galilean_boost(f, np.array([2.0 * k0, 0.0])), gs_cert)
    assert v1.case == v0.case
    assert v1.g2_minus_p2 == pytest.approx(v0.g2_minus_p2, abs=1e-9)
    assert v1.me_minus_2p2 == pytest.approx(v0.me_minus_2p2, abs=1e-9)
    assert not v1.radial


@pytest.mark.parametrize("datum", ["scaled_q_0.8", "scaled_q_0.81", "rolled_q",
                                   "boosted_gaussian"])
def test_verdict_reads_the_datum_as_the_run_does(gs_cert, datum):
    # classify and the run's t = 0 probe read the datum once, in the basis
    # it steps in (the quadrant about its centre, or the full grid), so the
    # verdict's G0 and ME are the trajectory's first G and M E to the bit.
    # Read apart (full-grid FFT against quadrant DCT-I), lam 0.81 and the
    # rolled Q differ in the last bit; lam 0.8 happens to agree
    if datum.startswith("scaled_q"):
        lam = float(datum.rsplit("_", 1)[1])
        f = make_initial_data("scaled_q", {"lam": lam}, SpectralGrid(512, 64.0),
                              gs=gs_cert)
    elif datum == "rolled_q":
        f = Field(gs_cert.field.grid,
                  np.roll(gs_cert.field.values, (37, 101), (0, 1)))
    else:
        g = SpectralGrid(128, 32.0)
        f = galilean_boost(gaussian(g, 0.5), [3 * 2.0 * np.pi / g.L, 0.0])
    verdict = classify(f, gs_cert)
    dt = 1e-3
    rec = evolve(f, dt, StepControls(dt_min=dt, dt_max=dt), gs_cert,
                 ProbeSpec(cadence=dt))
    assert verdict.G0 == rec.G[0]
    assert verdict.ME == rec.mass0 * rec.energy0 / (gs_cert.massQ * gs_cert.energyQ)


def test_is_radial(grid_128):
    assert is_radial(gaussian(grid_128))
    assert not is_radial(gaussian(grid_128, center=(1.5, 0.0)))


def test_verdict_json_schema(gs_cert, grid_256, tmp_path):
    import json

    f = make_initial_data("gaussian", {"amplitude": 0.3, "width": 1.2}, grid_256)
    v = classify(f, gs_cert)
    path = tmp_path / "verdict.json"
    write_verdict_json(v, str(path))
    data = json.loads(path.read_text())
    assert set(data) == {"case", "ME", "G0", "Pn", "me_minus_2p2",
                         "g2_minus_p2", "radial", "finite_variance"}
    assert data["case"] == CASE_SCATTER


def _record(grid, outcome, grad_series):
    rec = TrajectoryRecord()
    for i, g in enumerate(grad_series):
        rec.add_sample(t=0.1 * i, grad_sq=g, l6_6=1.0, mass_drift=0.0,
                       energy_drift=0.0, momx=0.0, momy=0.0, G=0.5,
                       tail_fraction=0.0)
    rec.set_outcome(outcome, 0.1 * (len(grad_series) - 1))
    return rec


class _Report:
    def __init__(self, verdict):
        self.verdict = verdict


def _verdict(case):
    from nls2d import Verdict

    return Verdict(case=case, ME=0.5, G0=0.5, Pn=0.0, me_minus_2p2=0.5,
                   g2_minus_p2=0.25, radial=True, finite_variance=True)


def test_reconcile_matrix(grid_128):
    ran = _record(grid_128, RAN_TO_T_END, [1.0, 1.1])
    grew = _record(grid_128, RAN_TO_T_END, [1.0, 30.0])
    blew = _record(grid_128, BLOWUP_DETECTED, [1.0, 30.0])
    lost = _record(grid_128, UNDERRESOLVED, [1.0, 1.1])
    confirmed = _Report("scatter_like")
    unconfirmed = _Report("not_scatter_like")

    assert reconcile(_verdict(CASE_SCATTER), ran, confirmed) == "agree"
    assert reconcile(_verdict(CASE_SCATTER), ran, unconfirmed) == "inconclusive"
    assert reconcile(_verdict(CASE_SCATTER), ran, None) == "inconclusive"
    assert reconcile(_verdict(CASE_SCATTER), blew, None) == "disagree"

    assert reconcile(_verdict(CASE_BLOWUP), blew, None) == "agree"
    assert reconcile(_verdict(CASE_BLOWUP), grew, None) == "agree"
    assert reconcile(_verdict(CASE_BLOWUP), ran, None) == "inconclusive"
    assert reconcile(_verdict(CASE_BLOWUP), ran, confirmed) == "disagree"
    assert reconcile(_verdict(CASE_NEGATIVE_ENERGY), blew, None) == "agree"

    assert reconcile(_verdict(CASE_BOUNDARY), blew, None) == "inconclusive"
    assert reconcile(_verdict(CASE_OUT_OF_SCOPE), ran, None) == "inconclusive"
    assert reconcile(_verdict(CASE_FORBIDDEN), ran, None) == "inconclusive"
    assert reconcile(_verdict(CASE_SCATTER), lost, confirmed) == "inconclusive"

    with pytest.raises(ValueError, match="unknown case"):
        reconcile(_verdict("mystery"), ran, None)
