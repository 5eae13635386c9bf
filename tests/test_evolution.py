"""Split-step integrator: conservation, reversibility, order, detectors."""

import numpy as np
import pytest

from nls2d import (
    BLOWUP_DETECTED,
    RAN_TO_T_END,
    UNDERRESOLVED,
    Field,
    ProbeSpec,
    SpectralGrid,
    StepControls,
    TrajectoryRecord,
    conserved,
    detect_blowup,
    evolve,
    galilean_boost,
    make_initial_data,
    step_strang,
    write_trajectory_csv,
)


def gaussian(grid, amp=1.0, width=1.0):
    vals = amp * np.exp(-grid.R**2 / (2.0 * width**2))
    return Field(grid, vals.astype(np.complex128))


def fixed_dt(dt, **kw):
    return StepControls(dt0=dt, dt_min=dt, dt_max=dt, **kw)


def test_step_controls_validation():
    with pytest.raises(ValueError):
        StepControls(dt_min=1e-2, dt0=1e-3)
    with pytest.raises(ValueError):
        StepControls(dt_max=1e-4)
    with pytest.raises(ValueError):
        StepControls(cfl_c=0.0)
    with pytest.raises(ValueError):
        StepControls(cfl_c=1.5)
    with pytest.raises(ValueError):
        StepControls(tail_max=0.5)
    with pytest.raises(ValueError):
        StepControls(grad_blowup_factor=1.0)
    with pytest.raises(ValueError):
        StepControls(scheme="euler")


def test_step_rejects_nonpositive_dt(grid_128):
    with pytest.raises(ValueError):
        step_strang(gaussian(grid_128), 0.0)


def test_step_advances_time(grid_128):
    f = step_strang(gaussian(grid_128), 1e-3)
    assert f.t == pytest.approx(1e-3)


def test_step_preserves_mass_exactly(grid_128):
    f = gaussian(grid_128, 0.9, 1.0)
    m0 = conserved(f).mass
    u = f
    for _ in range(20):
        u = step_strang(u, 1e-3)
    assert conserved(u).mass == pytest.approx(m0, rel=1e-13)


def test_step_preserves_momentum(grid_128):
    # both sub-flows commute with translations, so momentum is exact
    k0 = 2.0 * np.pi / grid_128.L
    f = galilean_boost(gaussian(grid_128, 0.7, 1.0), np.array([2.0 * k0, -k0]))
    p0 = conserved(f).momentum
    u = f
    for _ in range(20):
        u = step_strang(u, 1e-3)
    p1 = conserved(u).momentum
    assert np.max(np.abs(p1 - p0)) < 1e-12 * conserved(f).mass


def test_step_time_reversible(grid_128):
    # the scheme is symmetric: conjugation flips the time direction, so
    # conj . step . conj undoes a step exactly up to roundoff
    f = gaussian(grid_128, 0.8, 1.2)
    fwd = step_strang(f, 2e-3)
    back = step_strang(Field(grid_128, np.conj(fwd.values)), 2e-3)
    restored = np.conj(back.values)
    assert np.max(np.abs(restored - f.values)) < 1e-13


def test_linear_step_matches_free_evolution(grid_128):
    # at amplitude 1e-6 the phase rotation dt |u|^4 = 3e-25 is far below
    # roundoff, so one long step is the exact free flow
    f = gaussian(grid_128, amp=1e-6)
    dt = 0.3
    u = step_strang(f, dt)
    fh = np.fft.fft2(f.values) * np.exp(-1j * dt * grid_128.K2)
    exact = np.fft.ifft2(fh)
    assert np.max(np.abs(u.values - exact)) < 1e-13 * np.max(np.abs(f.values))


def test_strang_energy_error_is_second_order(gs_cert, grid_256):
    # relative energy drift at fixed horizon scales like dt^2; on a generic
    # (non-stationary) datum the dt^2 coefficient is O(1), so halving dt
    # must shrink the drift by about 4
    f = make_initial_data("scaled_q", {"lam": 0.9}, grid_256, gs=gs_cert)
    horizon = 0.4

    def drift(dt):
        rec = evolve(f, horizon, fixed_dt(dt), gs_cert,
                     ProbeSpec(cadence=horizon / 2.0))
        return abs(rec.energy_drift[-1])

    r = drift(2e-3) / drift(1e-3)
    assert 3.5 <= r <= 4.5


def test_evolve_default_scheme_is_step_strang(gs_cert, grid_128):
    # dyadic dt keeps every step the same size, and at cadence = dt each
    # probe interval is one step, so evolve must reproduce repeated
    # step_strang bit for bit
    f = gaussian(grid_128, 0.8, 1.2)
    dt = 2.0**-10
    rec = evolve(f, 8 * dt, fixed_dt(dt), gs_cert,
                 ProbeSpec(cadence=dt, snapshot_times=(0.0, 8 * dt)))
    u = f
    for _ in range(8):
        u = step_strang(u, dt)
    assert rec.steps_taken == 8
    assert np.array_equal(rec.snapshots[-1].values, u.values)


def test_fused_steps_match_step_strang(gs_cert, grid_128):
    # within one probe interval the closing half flow of a step and the
    # opening half flow of the next merge into one multiplier; that changes
    # only the rounding, so 8 fused steps stay at roundoff from 8 single ones
    f = gaussian(grid_128, 0.8, 1.2)
    dt = 2.0**-10
    rec = evolve(f, 8 * dt, fixed_dt(dt), gs_cert,
                 ProbeSpec(cadence=8 * dt, snapshot_times=(8 * dt,)))
    u = f
    for _ in range(8):
        u = step_strang(u, dt)
    assert rec.steps_taken == 8
    dev = np.max(np.abs(rec.snapshots[-1].values - u.values))
    assert dev < 1e-13 * np.max(np.abs(u.values))


def test_fused_dt_rule_is_the_seeds(gs_cert, grid_128):
    # an amplitude-2 hump focuses: sup|u|^4 starts below cfl_c / dt_max, so
    # inside a probe interval the spectral bound certifies dt_max without
    # forming the field, and crosses it mid-run, so the field is formed and
    # dt shrinks.  The fused loop must take the steps of a loop that
    # applies the dt rule to step_strang at every step boundary.
    f = gaussian(grid_128, 2.0, 1.0)
    controls = StepControls(dt_max=2e-3)
    t_end, cadence = 0.1, 0.05
    rec = evolve(f, t_end, controls, gs_cert,
                 ProbeSpec(cadence=cadence, snapshot_times=(t_end,)))
    assert rec.outcome == RAN_TO_T_END
    limit = controls.cfl_c / controls.dt_max
    u, t, steps, times, certified, formed = f, 0.0, 0, [0.0], 0, 0
    for target in (cadence, t_end):
        start = t
        while t < target - 1e-12:
            sup4 = float(np.max(np.abs(u.values))) ** 4
            bound = np.sum(np.abs(np.fft.fft2(u.values))) / u.values.size
            certified += t > start and bound**4 <= limit * (1.0 - 1e-12)
            formed += sup4 > limit
            dt = max(min(controls.dt_max, controls.cfl_c / sup4), controls.dt_min)
            dt = min(dt, target - t)
            u = step_strang(u, dt)
            t += dt
            steps += 1
        t = target
        times.append(t)
    assert certified >= 20 and formed >= 20
    assert rec.steps_taken == steps
    assert rec.times == times
    # measured 6.1e-14: the fused and the single steps round differently
    dev = np.max(np.abs(rec.snapshots[-1].values - u.values))
    assert dev < 1e-12 * np.max(np.abs(u.values))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("controls", [fixed_dt(1e-3), StepControls()],
                         ids=["fixed", "adaptive"])
def test_overflow_is_blowup_after_one_step(gs_cert, grid_128, controls):
    # |u|^4 = 1e320 overflows, so the first step's phase is not finite; the
    # per-step scan of the spectrum must stop the run at its start
    rec = evolve(gaussian(grid_128, 1e80), 0.1, controls, gs_cert)
    assert rec.outcome == BLOWUP_DETECTED
    assert rec.outcome_t == 0.0
    assert rec.steps_taken == 1


def test_kahan_li6_is_sixth_order(gs_cert, grid_128):
    # L2 error at a fixed horizon against a reference at dt / 8 must shrink
    # by about 2^6 when dt is halved; wrong coefficients drop the order
    f = gaussian(grid_128, 1.2, 1.0)
    horizon = 0.2

    def final(dt):
        rec = evolve(f, horizon, fixed_dt(dt, scheme="kahan_li6"), gs_cert,
                     ProbeSpec(cadence=horizon, snapshot_times=(horizon,)))
        return rec.snapshots[-1].values

    ref = final(1.25e-3)

    def err(dt):
        return np.sqrt(np.sum(np.abs(final(dt) - ref) ** 2))

    ratio = err(1e-2) / err(5e-3)
    assert 56.0 <= ratio <= 72.0


def test_evolve_rejects_bad_horizon(gs_cert, grid_128):
    with pytest.raises(ValueError):
        evolve(gaussian(grid_128), 0.0, StepControls(), gs_cert)


def test_evolve_runs_to_t_end(gs_cert, grid_128):
    f = gaussian(grid_128, 0.4, 1.2)
    rec = evolve(f, 0.2, StepControls(), gs_cert, ProbeSpec(cadence=0.05))
    assert rec.outcome == RAN_TO_T_END
    assert rec.outcome_t == pytest.approx(0.2)
    assert rec.t_star is None
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(0.2)
    assert abs(rec.mass_drift[-1]) < 1e-12
    assert rec.mass0 == pytest.approx(conserved(f).mass, rel=1e-14)
    assert rec.energy0 == pytest.approx(conserved(f).energy, rel=1e-12)


def test_evolve_detects_blowup(gs_cert, grid_256):
    # amplitude-2 hump starts far above threshold and collapses fast
    f = make_initial_data("gaussian", {"amplitude": 2.0, "width": 1.0}, grid_256)
    rec = evolve(f, 1.0, StepControls(), gs_cert, ProbeSpec(cadence=0.01))
    assert rec.outcome == BLOWUP_DETECTED
    assert rec.t_star is not None
    assert 0.0 < rec.t_star < 0.3
    assert max(rec.grad_sq) >= 25.0 * rec.grad_sq[0]


def test_evolve_flags_underresolved(gs_cert, grid_128):
    # a ring of energy near the Nyquist shell keeps the spectral tail high
    # while the gradient never grows: resolution loss, not collapse
    g = grid_128
    rng = np.random.default_rng(3)
    phases = np.exp(2j * np.pi * rng.random((g.n, g.n)))
    kmag = np.sqrt(g.K2)
    shell = (kmag > 0.75 * g.k_nyquist) & (kmag < 0.9 * g.k_nyquist)
    noise = np.fft.ifft2(np.where(shell, phases, 0.0))
    noise *= 0.02 / np.max(np.abs(noise))
    f = Field(g, gaussian(g, 0.3, 1.0).values + noise)
    rec = evolve(f, 1.0, StepControls(), gs_cert, ProbeSpec(cadence=0.01))
    assert rec.outcome == UNDERRESOLVED
    assert max(rec.grad_sq) < 25.0 * rec.grad_sq[0]


def test_detect_blowup_needs_two_consecutive_samples(grid_128):
    controls = StepControls()
    rec = TrajectoryRecord(grid_128, variance_enabled=False)
    base = dict(l6_6=1.0, mass_drift=0.0, energy_drift=0.0,
                momx=0.0, momy=0.0, G=1.0)
    rec.add_sample(t=0.0, grad_sq=1.0, tail=0.0, **base)
    rec.add_sample(t=0.1, grad_sq=30.0, tail=0.05, **base)
    rec.add_sample(t=0.2, grad_sq=1.0, tail=0.0, **base)
    assert detect_blowup(rec, controls) is None
    rec.add_sample(t=0.3, grad_sq=30.0, tail=0.05, **base)
    rec.add_sample(t=0.4, grad_sq=40.0, tail=0.06, **base)
    assert detect_blowup(rec, controls) == pytest.approx(0.3)


def test_record_guards(grid_128):
    rec = TrajectoryRecord(grid_128, variance_enabled=False)
    base = dict(grad_sq=1.0, l6_6=1.0, mass_drift=0.0, energy_drift=0.0,
                momx=0.0, momy=0.0, G=1.0, tail=0.0)
    rec.add_sample(t=0.0, **base)
    with pytest.raises(ValueError, match="increasing"):
        rec.add_sample(t=0.0, **base)
    rec.set_outcome(RAN_TO_T_END, 1.0)
    with pytest.raises(ValueError, match="already"):
        rec.set_outcome(RAN_TO_T_END, 2.0)


def test_snapshots_at_requested_times(gs_cert, grid_128):
    f = gaussian(grid_128, 0.4, 1.2)
    rec = evolve(f, 0.2, StepControls(), gs_cert,
                 ProbeSpec(cadence=0.05, snapshot_times=(0.0, 0.1, 0.2)))
    assert [s.t for s in rec.snapshots] == pytest.approx([0.0, 0.1, 0.2])
    # each probe's field is kept once however often, and in whatever order,
    # its time is named; a time between probes keeps nothing
    rec2 = evolve(f, 0.2, StepControls(), gs_cert,
                  ProbeSpec(cadence=0.05, snapshot_times=(0.2, 0.1, 0.12, 0.1, 0.0)))
    assert [s.t for s in rec2.snapshots] == pytest.approx([0.0, 0.1, 0.2])
    assert rec2.snapshots_at((0.1, 0.2))[0] is rec2.snapshots[1]
    assert np.array_equal(rec2.snapshots[-1].values, rec.snapshots[-1].values)


def test_galilean_covariance_of_split_flow(gs_cert):
    # both sub-flows transform exactly under a lattice boost, so the full
    # discrete trajectory satisfies the continuum covariance identity
    #   u_boosted(t, x) = u(t, x - 2 xi t) e^{i (xi.x - |xi|^2 t)}
    g = SpectralGrid(128, 8.0 * np.pi)
    k0 = 2.0 * np.pi / g.L  # = 0.25
    xi = np.array([2.0 * k0, 0.0])
    f = gaussian(g, 0.6, 1.0)
    t_end = 0.5
    controls = fixed_dt(1e-3)
    plain = evolve(f, t_end, controls, gs_cert, ProbeSpec(cadence=0.25))
    boosted = evolve(galilean_boost(f, xi), t_end, controls, gs_cert,
                     ProbeSpec(cadence=0.25, snapshot_times=(t_end,)))
    u_plain = evolve(f, t_end, controls, gs_cert,
                     ProbeSpec(cadence=0.25, snapshot_times=(t_end,))).snapshots[-1]
    u_boost = boosted.snapshots[-1]
    # translate the plain solution by 2 xi t (spectral shift), then rephase
    kx, ky = g.k1d[:, None], g.k1d[None, :]
    shift = np.exp(-1j * (kx * 2.0 * xi[0] * t_end + ky * 2.0 * xi[1] * t_end))
    translated = np.fft.ifft2(np.fft.fft2(u_plain.values) * shift)
    phase = np.exp(1j * (xi[0] * g.X + xi[1] * g.Y - (xi @ xi) * t_end))
    predicted = translated * phase
    err = np.max(np.abs(u_boost.values - predicted))
    assert err < 1e-11
    assert plain.outcome == RAN_TO_T_END


def test_evolve_commutes_with_grid_symmetries(gs_cert, grid_128):
    # the transpose and the reflection i -> (n - i) mod n along x generate
    # the symmetry group of the square grid, and the split flow commutes
    # with both up to roundoff; the datum is off centre and moving, so the
    # momentum components are distinct and nonzero: they swap under the
    # transpose and px changes sign under the reflection
    g = grid_128
    vals = 0.9 * np.exp(-((g.X - 1.5) ** 2 / 2.9 + (g.Y + 0.75) ** 2 / 1.3)
                        + 1j * (0.5 * g.X - 0.25 * g.Y))
    t_end = 0.5

    def run(v):
        return evolve(Field(g, v), t_end, StepControls(), gs_cert,
                      ProbeSpec(cadence=0.05, snapshot_times=(t_end,)))

    base = run(vals)
    assert base.outcome == RAN_TO_T_END
    for op, momx, momy, bound in (
        (lambda v: v.T, base.momy, base.momx, 5e-14),
        (lambda v: np.roll(v[::-1], 1, axis=0), -np.asarray(base.momx),
         base.momy, 5e-13),
    ):
        rec = run(op(vals))
        dev = np.max(np.abs(rec.snapshots[-1].values - op(base.snapshots[-1].values)))
        assert dev < bound
        assert np.max(np.abs(np.subtract(rec.momx, momx))) < bound
        assert np.max(np.abs(np.subtract(rec.momy, momy))) < bound


def test_trajectory_csv_round_trip(gs_cert, grid_128, tmp_path):
    import csv
    import json

    f = gaussian(grid_128, 0.4, 1.2)
    rec = evolve(f, 0.1, StepControls(), gs_cert,
                 ProbeSpec(cadence=0.05, variance=True))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(rec, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "grad_sq", "l6_6", "mass_drift", "energy_drift",
                       "momx", "momy", "G", "tail_fraction", "variance"]
    # repr round trip: parsed floats are bit-identical to the record
    for row, i in zip(rows[1:], range(len(rec.times))):
        assert float(row[0]) == rec.times[i]
        assert float(row[1]) == rec.grad_sq[i]
        assert float(row[7]) == rec.G[i]
    sidecar = json.loads((tmp_path / "trajectory.outcome.json").read_text())
    assert sidecar["outcome"] == RAN_TO_T_END
    assert sidecar["mass0"] == rec.mass0
    assert sidecar["energy0"] == rec.energy0


def test_artifact_writer_that_raises_keeps_the_old_file(gs_cert, grid_128,
                                                        tmp_path):
    # an artifact is written to a temp file that replaces the old one only
    # once it is whole
    f = gaussian(grid_128, 0.4, 1.2)
    rec = evolve(f, 0.1, StepControls(), gs_cert, ProbeSpec(cadence=0.05))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(rec, str(path))
    old = path.read_bytes()
    rec.grad_sq[1] = None  # float(None) raises after the first row is out
    with pytest.raises(TypeError):
        write_trajectory_csv(rec, str(path))
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "trajectory.csv", "trajectory.outcome.json"]
