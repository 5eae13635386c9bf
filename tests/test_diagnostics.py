"""Cutoffs, variance/virial identities, detectors."""

import numpy as np
import pytest

from nls2d import (
    Cutoff,
    Field,
    ProbeSpec,
    RAN_TO_T_END,
    SpectralGrid,
    StepControls,
    TrajectoryRecord,
    blowup_time_bound,
    energy_gradient_bounds_check,
    evolve,
    localized_variance,
    make_initial_data,
    moments,
    radial_asymmetry,
    scattering_detect,
    variance,
    variance_derivative,
    virial_check_full,
)
from nls2d import evolution
from nls2d.evolution import Snapshot, full_basis
from nls2d.diagnostics import _phi_derivs, asymptotic_state_residuals
from nls2d.grid import abs2, boundary_mass_fraction, unfold
from nls2d.harness import _aligned_snapshot_times


def gaussian(grid, amp=1.0, width=1.0, center=(0.0, 0.0)):
    r2 = (grid.X - center[0]) ** 2 + (grid.Y - center[1]) ** 2
    return Field(grid, (amp * np.exp(-r2 / (2.0 * width**2))).astype(complex))


# ---------------------------------------------------------------------------
# cutoff shapes

def test_cutoff_validation(grid_128):
    with pytest.raises(ValueError, match="too small"):
        Cutoff(grid_128.dx, grid_128)


def test_cutoff_interior_is_exact_variance_weight(grid_128):
    c = Cutoff(8.0, grid_128)
    inside = grid_128.R <= 0.99 * c.R
    assert np.max(np.abs(c.w[inside] - grid_128.R[inside] ** 2)) < 1e-12
    assert np.all(c.wp_over_rho[inside] == 2.0)
    assert np.all(c.lap[inside] == 4.0)
    assert np.all(c.bilap[inside] == 0.0)


def test_compact_cutoff_support():
    rho = np.linspace(0.0, 3.0, 3001)
    val, d1, d2, d3, d4 = _phi_derivs(rho)
    far = rho >= 2.0
    for arr in (val, d1, d2, d3, d4):
        assert np.max(np.abs(arr[far])) < 1e-12
    inside = rho <= 1.0
    assert np.max(np.abs(val[inside] - rho[inside] ** 2)) < 1e-12


# the ids keep the names these cases had beside the deleted saturating cutoff
@pytest.mark.parametrize("derivs,n_out,joints", [
    pytest.param(_phi_derivs, 5, (1.0, 2.0), id="_phi_derivs-5-joints1"),
])
def test_cutoff_derivative_columns_are_consistent(derivs, n_out, joints):
    # each returned column is the derivative of the previous one: check by
    # centered differences away from the joints (the blends match only up
    # to second order there, so higher columns jump by construction)
    rho = np.linspace(0.01, 4.99, 49801)
    h = rho[1] - rho[0]
    away = np.ones_like(rho, dtype=bool)
    for j in joints:
        away &= np.abs(rho - j) > 3.0 * h
    cols = derivs(rho)
    assert len(cols) == n_out
    for k in range(n_out - 1):
        fd = (cols[k][2:] - cols[k][:-2]) / (2.0 * h)
        err = np.max(np.abs((fd - cols[k + 1][1:-1])[away[1:-1]]))
        scale = max(1.0, np.max(np.abs(cols[k + 1])))
        assert err < 5e-5 * scale


@pytest.mark.parametrize("derivs,joints,smooth_cols", [
    pytest.param(_phi_derivs, (1.0, 2.0), 3, id="_phi_derivs-joints1-3"),
])
def test_cutoff_joints_are_c2(derivs, joints, smooth_cols):
    eps = 1e-9
    for j in joints:
        left = derivs(np.array([j - eps]))
        right = derivs(np.array([j + eps]))
        for k in range(smooth_cols):
            assert left[k][0] == pytest.approx(right[k][0], abs=1e-6)


# ---------------------------------------------------------------------------
# variance and virial

def test_variance_gaussian_oracle(grid_256):
    amp, width = 0.8, 1.1
    f = gaussian(grid_256, amp, width)
    assert variance(f) == pytest.approx(np.pi * amp**2 * width**4, rel=1e-12)


def test_variance_translation_rule(grid_256):
    f0 = gaussian(grid_256, 1.0, 1.0)
    fa = gaussian(grid_256, 1.0, 1.0, center=(3.0, 0.0))
    mass = moments(f0).mass
    assert variance(fa) == pytest.approx(variance(f0) + 9.0 * mass, rel=1e-11)


def test_variance_rejects_wrapped_mass(grid_128):
    wide = gaussian(grid_128, 1.0, 6.0)
    with pytest.raises(ValueError, match="boundary"):
        variance(wide)


def test_variance_derivative_vanishes_for_real_fields(grid_128):
    assert abs(variance_derivative(gaussian(grid_128))) < 1e-13


def test_virial_rhs_on_soliton(gs_cert):
    # stationary profile: the virial right side vanishes identically
    assert abs(moments(gs_cert.field).virial) <= 1e-5 * gs_cert.gradQ_sq


def test_localized_variance_matches_global_inside(grid_128):
    # datum far inside the cutoff radius: localized and global agree
    f = gaussian(grid_128, 0.7, 1.0)
    c = Cutoff(8.0, grid_128)
    z, zp, zpp, A_R = localized_variance(f, c)
    assert z == pytest.approx(variance(f), rel=1e-10)
    assert abs(zp - variance_derivative(f)) < 1e-10
    virial = moments(f).virial
    assert abs(A_R) < 1e-9 * max(1.0, abs(virial))
    assert zpp == pytest.approx(virial, abs=1e-9)


def test_localized_variance_grid_guard(grid_128, grid_256):
    c = Cutoff(8.0, grid_256)
    with pytest.raises(ValueError, match="different grid"):
        localized_variance(gaussian(grid_128), c)


def test_virial_check_full_fd_agreement(gs_cert, grid_128):
    # weak dispersing hump: formula V'' against centered differences of V
    f = make_initial_data("gaussian", {"amplitude": 0.3, "width": 2.0}, grid_128)
    rec = evolve(f, 0.06, StepControls(), gs_cert,
                 ProbeSpec(cadence=0.01,
                           snapshot_times=tuple(0.01 * k for k in range(7))))
    trace = virial_check_full(rec.snapshots, R=8.0)
    mid = slice(1, -1)
    rel = np.abs(trace.Vpp_fd[mid] - trace.Vpp_formula[mid]) / np.abs(
        trace.Vpp_formula[mid])
    assert np.max(rel) < 1e-3
    assert np.all(np.isnan(trace.Vpp_fd[[0, -1]]))
    # localized first derivative against differences of z_R
    h = trace.times[1] - trace.times[0]
    zp_fd = (trace.z_R[2:] - trace.z_R[:-2]) / (2.0 * h)
    assert np.max(np.abs(zp_fd - trace.zp_R[mid])) < 1e-4 * max(
        1.0, np.max(np.abs(trace.zp_R)))


def test_virial_layer_transforms_each_field_once(gs_cert, grid_cert, monkeypatch):
    # one fft2 per field feeds its moments and its gradient's two ifft2s
    import scipy.fft

    g = SpectralGrid(64, 16.0)
    snaps = [gaussian(g, 0.5, 1.0 + 0.1 * i) for i in range(5)]
    for i, s in enumerate(snaps):
        s.t = 0.01 * i
    above = make_initial_data("scaled_q", {"lam": 1.2}, grid_cert, gs=gs_cert)
    calls = []
    for name in ("fft2", "ifft2"):
        def counted(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    virial_check_full(snaps, R=3.0)
    assert (calls.count("fft2"), calls.count("ifft2")) == (5, 10)
    calls.clear()
    t_b, _ = blowup_time_bound(above, gs_cert, R=12.0, kappa=0.05)
    assert t_b is not None
    assert (calls.count("fft2"), calls.count("ifft2")) == (1, 2)


def test_virial_check_full_guards(grid_128):
    snaps = [gaussian(grid_128) for _ in range(4)]
    for i, s in enumerate(snaps):
        s.t = 0.01 * i
    with pytest.raises(ValueError, match="at least 5"):
        virial_check_full(snaps)
    snaps = [gaussian(grid_128) for _ in range(5)]
    for i, s in enumerate(snaps):
        s.t = 0.01 * i
    snaps[3].t = 0.035
    with pytest.raises(ValueError, match="uniform"):
        virial_check_full(snaps)


# ---------------------------------------------------------------------------
# radial symmetry

def test_radial_asymmetry(grid_128):
    assert radial_asymmetry(gaussian(grid_128)) < 1e-13
    shifted = gaussian(grid_128, 1.0, 1.0, center=(1.5, 0.0))
    assert radial_asymmetry(shifted) > 1e-2


# ---------------------------------------------------------------------------
# bounds along below-threshold trajectories

def _fake_record(grid, G, grad, drifts, energy0):
    rec = TrajectoryRecord()
    for i in range(len(G)):
        rec.add_sample(t=0.1 * i, grad_sq=grad[i], l6_6=1.0, mass_drift=0.0,
                       energy_drift=drifts[i], momx=0.0, momy=0.0,
                       G=G[i], tail_fraction=0.0)
    rec.mass0 = 1.0
    rec.energy0 = energy0
    return rec


def test_bounds_check_margins(grid_128):
    energy0 = 1.0
    rec = _fake_record(grid_128, G=[0.5, 0.55], grad=[3.0, 3.2],
                       drifts=[0.0, 0.0], energy0=energy0)
    m = energy_gradient_bounds_check(rec, energy0, ME=0.4)
    assert m.lower.shape == (2,)
    assert m.min_margin() == pytest.approx(
        min(m.lower.min(), m.upper.min(), m.trapping.min(), m.chained.min()))
    # E = 1, grad = 3: lower = 1 - 0.75, upper = 0.5, trapping ~ 0.13
    assert m.lower[0] == pytest.approx(0.25)
    assert m.upper[0] == pytest.approx(0.5)
    assert m.trapping[0] == pytest.approx(np.sqrt(0.4) - 0.5)


def test_bounds_check_requires_below_threshold(grid_128):
    rec = _fake_record(grid_128, G=[1.2], grad=[3.0], drifts=[0.0], energy0=1.0)
    with pytest.raises(ValueError, match="below-threshold"):
        energy_gradient_bounds_check(rec, 1.0, ME=0.4)
    rec2 = _fake_record(grid_128, G=[0.5], grad=[3.0], drifts=[0.0], energy0=1.0)
    with pytest.raises(ValueError, match="below-threshold"):
        energy_gradient_bounds_check(rec2, 1.0, ME=1.2)


# ---------------------------------------------------------------------------
# blow-up time bound

def test_blowup_time_bound_value(gs_cert, grid_cert):
    f = make_initial_data("scaled_q", {"lam": 1.2}, grid_cert, gs=gs_cert)
    t_b, info = blowup_time_bound(f, gs_cert, R=12.0, kappa=0.05)
    assert t_b is not None
    assert 0.0 < t_b < 2.0
    assert info["G_ext"] <= 0.05
    assert info["lam"] == pytest.approx(1.2, abs=1e-3)


def test_blowup_time_bound_guards(gs_cert, grid_cert):
    below = make_initial_data("scaled_q", {"lam": 0.9}, grid_cert, gs=gs_cert)
    with pytest.raises(ValueError, match="above threshold"):
        blowup_time_bound(below, gs_cert, R=12.0, kappa=0.05)
    above = make_initial_data("scaled_q", {"lam": 1.2}, grid_cert, gs=gs_cert)
    with pytest.raises(ValueError, match="kappa"):
        blowup_time_bound(above, gs_cert, R=12.0, kappa=0.5)


def test_blowup_time_bound_exterior_budget(gs_cert, grid_cert):
    # with the cutoff pulled in to R = 2 the soliton carries visible
    # gradient outside, so the hypothesis fails and no bound is claimed
    f = make_initial_data("scaled_q", {"lam": 1.2}, grid_cert, gs=gs_cert)
    t_b, info = blowup_time_bound(f, gs_cert, R=2.0, kappa=0.05)
    assert t_b is None
    assert "reason" in info


# ---------------------------------------------------------------------------
# scattering detector

def _free_flow_record(grid, t2, k_snaps):
    """Exactly linear trajectory: snapshots under the free flow, kept on
    the full grid."""
    f = gaussian(grid, 0.5, 1.0)
    fh = np.fft.fft2(f.values)
    rec = TrajectoryRecord()
    m0 = moments(f)
    rec.mass0 = m0.mass
    rec.energy0 = m0.energy
    for t in np.linspace(0.0, t2, k_snaps):
        u = Field(grid, np.fft.ifft2(fh * np.exp(-1j * grid.K2 * t)), float(t))
        m = moments(u)
        rec.add_sample(t=float(t), grad_sq=m.grad_sq,
                       l6_6=m.l6_6, mass_drift=0.0, energy_drift=0.0,
                       momx=0.0, momy=0.0, G=0.1, tail_fraction=0.0)
        rec.snapshots.append(Snapshot(grid, u.values, u.t, full_basis(grid)))
    rec.set_outcome(RAN_TO_T_END, t2)
    return rec


def test_scattering_detect_on_free_flow(grid_128):
    rec = _free_flow_record(grid_128, t2=2.0, k_snaps=9)
    report = scattering_detect(rec, (0.0, 2.0), rec.snapshots)
    # free quintic decay of the width-1 hump: (1 + 4 t^2)^2 = 289 at t = 2
    assert report.l6_decay_factor == pytest.approx(289.0, rel=0.05)
    assert report.verdict == "scatter_like"
    assert report.monotone_ok
    assert report.d_T2_over_H1 < 1e-12
    assert report.d_mid_over_H1 < 1e-12
    assert not report.box_exit_flagged
    keys = set(report.to_json())
    assert keys == {"l6_decay_factor", "d_T2_over_H1", "verdict",
                    "d_mid_over_H1", "monotone_ok", "box_exit_flagged",
                    "window"}


def test_detector_on_the_quadrant_matches_the_full_grid(gs_cert, grid_128,
                                                        monkeypatch):
    # an even datum keeps its probes on the quadrant and the detector reads
    # them in the DCT-I basis; the full grid's FFT path, forced, gives the
    # same distances and box-exit fraction to roundoff.  A kept snapshot's
    # values are its samples unfolded, to the bit
    g, h = grid_128, grid_128.n // 2 + 1
    f = gaussian(g, 0.8, 1.0)
    window = (0.0, 1.0)
    times = _aligned_snapshot_times(f.t, window, 0.05)

    def run():
        rec = evolve(f, window[1], StepControls(), gs_cert,
                     ProbeSpec(cadence=0.05, snapshot_times=times))
        snaps = rec.snapshots_at(times)
        frac = max(boundary_mass_fraction(abs2(s.samples), s.basis.c)
                   for s in snaps)
        return (snaps, asymptotic_state_residuals(snaps), frac,
                scattering_detect(rec, window, snaps))

    quad, quad_d, quad_frac, quad_report = run()
    monkeypatch.setattr(evolution, "_is_even", lambda v: False)
    full, full_d, full_frac, full_report = run()
    assert len(quad) == len(full) == 9
    for q, s in zip(quad, full):
        assert q.samples.shape == (h, h) and s.samples.shape == (g.n, g.n)
        assert np.array_equal(q.values, unfold(q.samples, (0, 0)))
    assert full_d[0] > 1e-3 and quad_d[-1] == full_d[-1] == 0.0
    assert np.all(np.abs(quad_d - full_d) <= 1e-12 * full_d)
    assert abs(quad_frac - full_frac) <= 1e-14
    assert quad_report.verdict == full_report.verdict
    assert quad_report.monotone_ok == full_report.monotone_ok
    assert quad_report.box_exit_flagged == full_report.box_exit_flagged

    # rolled so that its peak sits on the box's last row, the hump steps on
    # the quadrant rolled back, and the ring counts of each quadrant index
    # give the unfolded field's boundary mass fraction
    shift = (g.n // 2 - 1, 37)
    monkeypatch.undo()
    rolled = Field(g, np.roll(f.values, shift, (0, 1)))
    rec = evolve(rolled, 0.1, StepControls(), gs_cert,
                 ProbeSpec(cadence=0.05, snapshot_times=(0.0, 0.05, 0.1)))
    for s in rec.snapshots:
        assert s.samples.shape == (h, h)
        assert np.array_equal(s.values,
                              np.roll(unfold(s.samples, (0, 0)), shift, (0, 1)))
        want = boundary_mass_fraction(abs2(s.values), None)
        assert want > 0.1
        got = boundary_mass_fraction(abs2(s.samples), s.basis.c)
        assert abs(got - want) <= 1e-14


def test_scattering_detect_guards(grid_128):
    rec = _free_flow_record(grid_128, t2=2.0, k_snaps=9)
    with pytest.raises(ValueError, match="window exceeds"):
        scattering_detect(rec, (0.0, 3.0), rec.snapshots)
    sparse = _free_flow_record(grid_128, t2=2.0, k_snaps=2)
    with pytest.raises(ValueError, match="at least 3"):
        scattering_detect(sparse, (0.0, 2.0), sparse.snapshots)
    unfinished = TrajectoryRecord()
    unfinished.add_sample(t=0.0, grad_sq=1.0, l6_6=1.0, mass_drift=0.0,
                          energy_drift=0.0, momx=0.0, momy=0.0, G=0.1,
                          tail_fraction=0.0)
    unfinished.set_outcome("blowup_detected", 0.5)
    with pytest.raises(ValueError, match="completed"):
        scattering_detect(unfinished, (0.0, 0.0), [])
