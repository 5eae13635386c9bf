"""Split-step integrator: conservation, reversibility, order, detectors."""

from types import SimpleNamespace

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
    moments,
    step_strang,
    write_trajectory_csv,
)
from nls2d import evolution
from nls2d.evolution import PHASE_FLOOR


def gaussian(grid, amp=1.0, width=1.0):
    vals = amp * np.exp(-grid.R**2 / (2.0 * width**2))
    return Field(grid, vals.astype(np.complex128))


def fixed_dt(dt, **kw):
    return StepControls(dt_min=dt, dt_max=dt, **kw)


def tilt(grid):
    """exp(2 pi i x / L): times it, a datum keeps |u| but is even about no
    grid point, so it steps on the full grid."""
    return np.exp(2j * np.pi * grid.X / grid.L)


def on_quadrant(grid, values) -> bool:
    return len(evolution._basis(Field(grid, values)).k) == grid.n // 2 + 1


def test_step_controls_validation():
    with pytest.raises(ValueError):
        StepControls(dt_min=0.0)
    with pytest.raises(ValueError):
        StepControls(dt_min=1e-3, dt_max=1e-4)
    with pytest.raises(ValueError):
        StepControls(cfl_c=0.0)
    with pytest.raises(ValueError):
        StepControls(cfl_c=1.5)
    with pytest.raises(ValueError):
        StepControls(tail_max=0.5)
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


@pytest.mark.parametrize("probe_steps", [1, 8], ids=["cadence_dt", "cadence_8dt"])
def test_fused_steps_match_step_strang(gs_cert, grid_128, probe_steps):
    # within one probe interval the closing half flow of a step and the
    # opening half flow of the next merge into one multiplier, and across
    # probes the stepper keeps its spectrum rather than transforming the
    # probe's field back; both change only the rounding, so 8 fused steps
    # stay at roundoff from 8 single ones (dyadic dt keeps the steps equal)
    f = gaussian(grid_128, 0.8, 1.2)
    dt = 2.0**-10
    rec = evolve(f, 8 * dt, fixed_dt(dt), gs_cert,
                 ProbeSpec(cadence=probe_steps * dt, snapshot_times=(8 * dt,)))
    u = f
    for _ in range(8):
        u = step_strang(u, dt)
    assert rec.steps_taken == 8
    dev = np.max(np.abs(rec.snapshots[-1].values - u.values))
    assert dev < 1e-13 * np.max(np.abs(u.values))


@pytest.mark.parametrize("scheme, per_step", [("strang", 2), ("kahan_li6", 18)])
def test_evolve_transforms_each_field_once(grid_128, monkeypatch, scheme,
                                           per_step):
    # one forward transform of the datum, per_step transforms per step, and
    # one inverse transform per probe interval for the probe's field: no
    # probe transforms the field back, and every transform is scipy's.  The
    # even hump steps on the quadrant in the DCT-I pair, rolled by a grid
    # point too; tilted by a plane wave, even about no grid point, it steps
    # on the full grid in the FFT pair
    import scipy.fft

    calls = []
    for module, backend, names in (
            (scipy.fft, "scipy", ("fft2", "ifft2", "dctn", "idctn")),
            (np.fft, "numpy", ("fft2", "ifft2"))):
        for name in names:
            def counted(*args, _fn=getattr(module, name), _call=(backend, name),
                        **kwargs):
                calls.append(_call)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    dt = 2.0**-10
    hump = gaussian(grid_128, 0.8, 1.2).values
    rolled = np.roll(hump, 1, axis=0)
    for datum, pair in ((hump, ("dctn", "idctn")), (rolled, ("dctn", "idctn")),
                        (rolled * tilt(grid_128), ("fft2", "ifft2"))):
        calls.clear()
        rec = evolve(Field(grid_128, datum), 8 * dt,
                     fixed_dt(dt, scheme=scheme), SimpleNamespace(qq_gq=1.0),
                     ProbeSpec(cadence=2 * dt))
        steps, intervals = 8, 4
        assert rec.steps_taken == steps and len(rec.times) == intervals + 1
        assert set(calls) == {("scipy", name) for name in pair}
        assert len(calls) == per_step * steps + intervals + 1


def test_probe_reads_the_spectrum_of_its_field(grid_128):
    # a probe reads mass and l6_6 off its field and grad_sq, momentum and
    # tail off the stepper's spectrum, which is fft2 of that field up to
    # roundoff; the datum moves off centre and carries a weak mode past 2/3
    # Nyquist, so no compared value is at roundoff itself
    g = grid_128
    vals = (0.9 * np.exp(-((g.X - 1.5) ** 2 / 2.9 + (g.Y + 0.75) ** 2 / 1.3)
                         + 1j * (0.5 * g.X - 0.25 * g.Y))
            + 0.01 * np.exp(-(g.X**2 + g.Y**2) / 4.0 + 9.5j * g.X))
    times = tuple(0.05 * i for i in range(5))
    rec = evolve(Field(g, vals), 0.2, StepControls(), SimpleNamespace(qq_gq=1.0),
                 ProbeSpec(cadence=0.05, snapshot_times=times))
    assert rec.outcome == RAN_TO_T_END
    assert [s.t for s in rec.snapshots] == rec.times
    for i, snap in enumerate(rec.snapshots):
        m = moments(snap)
        assert rec.l6_6[i] == m.l6_6
        for got, want in ((rec.grad_sq[i], m.grad_sq), (rec.momx[i], m.px),
                          (rec.momy[i], m.py), (rec.tail_fraction[i], m.tail)):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("scheme", ["strang", "kahan_li6"])
def test_phase_is_the_full_grid_rotation(grid_128, monkeypatch, scheme):
    # the phase runs cos and sin only on the shortest cyclic run of rows and
    # of columns that holds every |theta| >= PHASE_FLOOR; a floor of -inf
    # puts the whole grid in the box, which is the rotation of every point,
    # whatever the sign of theta.  The two must give the same bits on a
    # centred datum, on the same datum rolled across both seams, and on one
    # spread over the box.  kahan_li6 has stages with gamma < 0, where theta
    # < 0: a box test on theta, not |theta|, leaves them unrotated.  The
    # phase takes one box per block of BLOCK_ROWS rows, so the data also
    # put the hot rows across an interior block edge, and across both seams
    # of a grid smaller than one block.
    g, dt = grid_128, 1e-2
    centred = 1.2 * np.exp(-(g.X**2 + g.Y**2) / 2.0) + 0j
    wave = 2.0 * np.pi / g.L
    spread = (0.6 * (1.0 + 0.5 * np.cos(wave * g.X) * np.cos(wave * g.Y))
              * np.exp(1j * wave * (g.X + 2.0 * g.Y)))
    # the centred box is under a quarter of the rows even at gamma = 1, and
    # every point of the spread datum rotates even at the smallest |gamma|
    assert np.sum(np.max(np.abs(centred), axis=1) ** 4 * dt >= PHASE_FLOOR) < g.n / 4
    gamma_min = np.min(np.abs(evolution.SCHEMES[scheme]))
    assert np.min(np.abs(spread)) ** 4 * gamma_min * dt >= PHASE_FLOOR
    edge = evolution.BLOCK_ROWS - g.n // 2  # centres the hump on a block edge
    small = SpectralGrid(16, 8.0)
    assert small.n < evolution.BLOCK_ROWS < g.n
    # the centred hump and its roll by one grid point step on the quadrant;
    # tilted, so even about no grid point, the rolled humps step on the full
    # grid with the same |u| and so the same hot box, and so does spread
    hump = 1.2 * np.exp(-(small.X**2 + small.Y**2) / 2.0) + 0j
    data = ((g, centred), (g, np.roll(centred, 1, axis=0)),
            (g, tilt(g) * np.roll(centred, 1, axis=0)),
            (g, tilt(g) * np.roll(centred, (g.n // 2, g.n // 2 + 5), axis=(0, 1))),
            (g, tilt(g) * np.roll(centred, (edge, g.n // 2 + 5), axis=(0, 1))),
            (g, spread),
            (small, tilt(small) * np.roll(hump, (small.n // 2, small.n // 2 + 3),
                                          axis=(0, 1))))
    assert [on_quadrant(*d) for d in data] == [True, True] + [False] * 5

    def finals():
        return [evolve(Field(grid, v), 4 * dt, fixed_dt(dt, scheme=scheme),
                       SimpleNamespace(qq_gq=1.0),
                       ProbeSpec(cadence=2 * dt, snapshot_times=(4 * dt,))
                       ).snapshots[-1].values for grid, v in data]

    boxed = finals()
    monkeypatch.setattr(evolution, "PHASE_FLOOR", -np.inf)
    for got, want in zip(boxed, finals()):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [16, 48, 128])
def test_phase_stage_is_the_dense_rotation(n):
    # one phase stage against cos and sin of theta on every point, on a
    # field smaller than one block, one whose last block is partial, and
    # one of whole blocks; theta < 0 is a kahan_li6 stage with gamma < 0
    x = 0.25 * (np.arange(n) - n // 2)
    X, Y = x[:, None], x[None, :]
    u = 1.3 * np.exp(-((X - 1.0) ** 2 + Y**2) / 2.0 + 0.5j * Y)
    rows = min(evolution.BLOCK_ROWS, n)
    buffers = (np.empty((rows, n)), np.empty((rows, n)),
               np.empty((rows, n), dtype=np.complex128))
    for gdt in (1e-2, -7e-3):
        s = np.square(u.real) + np.square(u.imag)
        theta = s * gdt * s
        rot = np.empty_like(u)
        np.cos(theta, out=rot.real)
        np.sin(theta, out=rot.imag)
        want = u * rot
        peak = evolution._phase(u, gdt, *buffers)
        assert np.array_equal(u, want)
        assert peak == np.max(s)


def test_sum_bound_skip_never_changes_a_step(grid_128, monkeypatch):
    # the amplitude-2 hump of test_fused_dt_rule_is_the_seeds crosses the
    # bound: once the last stage's max |u|^4 is past cfl_c / dt_max, the
    # stepper skips the spectral sum it knows must fail.  A slack of 1
    # turns the skip off; the run must then sum where it skipped and still
    # take the same steps to the same bits.  The hump steps on the
    # quadrant, rolled by a grid point too; tilted, on the full grid.
    summed = []

    def counted(w, weight, _bound=evolution._sum_bound4):
        summed.append(1)
        return _bound(w, weight)

    monkeypatch.setattr(evolution, "_sum_bound4", counted)

    def run(datum):
        summed.clear()
        rec = evolve(datum, 0.1, StepControls(dt_max=2e-3),
                     SimpleNamespace(qq_gq=1.0),
                     ProbeSpec(cadence=0.05, snapshot_times=(0.1,)))
        return rec, len(summed)

    hump, slack = gaussian(grid_128, 2.0, 1.0).values, evolution.BOUND_SLACK
    rolled = np.roll(hump, 1, axis=0)
    for values, quadrant in ((hump, True), (rolled, True),
                             (rolled * tilt(grid_128), False)):
        assert on_quadrant(grid_128, values) == quadrant
        datum = Field(grid_128, values)
        monkeypatch.setattr(evolution, "BOUND_SLACK", slack)
        skipping, sums = run(datum)
        monkeypatch.setattr(evolution, "BOUND_SLACK", 1.0)
        full, sums_without_skip = run(datum)
        assert sums_without_skip - sums >= 20
        assert skipping.steps_taken == full.steps_taken
        assert skipping.times == full.times
        assert skipping.outcome_t == full.outcome_t
        assert np.array_equal(skipping.snapshots[-1].values,
                              full.snapshots[-1].values)


def test_sum_bound_is_the_full_grids(grid_128):
    # on the quadrant each DCT-I coefficient stands for its k and n - k on
    # either axis, so its weighted sum is the full spectrum's sum |uh| / n^2
    f = gaussian(grid_128, 2.0, 1.0)
    basis = evolution._basis(f)
    assert basis.c == (0, 0)
    want = np.sum(np.abs(np.fft.fft2(f.values))) / f.values.size
    got = evolution._sum_bound4(basis.forward(evolution.fold(f.values, basis.c)),
                                basis.weight) ** 0.25
    assert got == pytest.approx(want, rel=1e-13)


def test_phase_box_is_the_shortest_cyclic_run():
    # the rows (or columns) the phase rotates: the complement of the widest
    # cyclic gap between hot indices, as plain slices
    hot = np.zeros(16, dtype=bool)
    assert evolution._support(hot) == []
    hot[[3, 9]] = True
    assert evolution._support(hot) == [slice(3, 10)]
    hot[[1, 14]] = True  # the widest gap is now 3..9, so the run wraps
    assert evolution._support(hot) == [slice(9, None), slice(0, 4)]
    assert evolution._support(np.ones(16, dtype=bool)) == [slice(None)]


def test_phase_floor_premise():
    # below PHASE_FLOOR the rounded cos is 1 and the rounded sin is its
    # argument, so the stepper may write (1, theta) there without calling
    # either; written, as the stepper writes them, through the strided real
    # and imaginary views of a complex buffer
    x = np.concatenate([
        np.linspace(0.0, PHASE_FLOOR, 2**16, endpoint=False),
        np.geomspace(5e-324, PHASE_FLOOR, 2**12, endpoint=False),
        [np.nextafter(PHASE_FLOOR, 0.0)],
    ])
    x = np.concatenate([x, -x]).reshape(2, -1)
    buf = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=buf.real)
    np.sin(x, out=buf.imag)
    assert np.all(buf.real == 1.0)
    assert np.array_equal(buf.imag, x)


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


def test_detect_blowup_needs_two_consecutive_samples():
    controls = StepControls()
    rec = TrajectoryRecord()
    base = dict(l6_6=1.0, mass_drift=0.0, energy_drift=0.0,
                momx=0.0, momy=0.0, G=1.0)
    rec.add_sample(t=0.0, grad_sq=1.0, tail_fraction=0.0, **base)
    rec.add_sample(t=0.1, grad_sq=30.0, tail_fraction=0.05, **base)
    rec.add_sample(t=0.2, grad_sq=1.0, tail_fraction=0.0, **base)
    assert detect_blowup(rec, controls) is None
    rec.add_sample(t=0.3, grad_sq=30.0, tail_fraction=0.05, **base)
    rec.add_sample(t=0.4, grad_sq=40.0, tail_fraction=0.06, **base)
    assert detect_blowup(rec, controls) == pytest.approx(0.3)


def test_record_guards():
    rec = TrajectoryRecord()
    base = dict(grad_sq=1.0, l6_6=1.0, mass_drift=0.0, energy_drift=0.0,
                momx=0.0, momy=0.0, G=1.0, tail_fraction=0.0)
    rec.add_sample(t=0.0, **base)
    with pytest.raises(ValueError, match="increasing"):
        rec.add_sample(t=0.0, **base)
    # a sample names each of the record's columns, and no other
    missing = {k: v for k, v in base.items() if k != "G"}
    with pytest.raises(ValueError, match="columns"):
        rec.add_sample(t=0.1, **missing)
    with pytest.raises(ValueError, match="columns"):
        rec.add_sample(t=0.1, variance=1.0, **base)
    assert rec.times == [0.0] and rec.G == [1.0]
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


def test_even_data_keep_quadrant_snapshots(gs_cert, grid_128):
    # a kept probe of an even run holds the (n/2+1)^2 samples it stepped,
    # its own copy at t = 0, and no n^2 array: a read of values unfolds
    # them afresh and keeps nothing
    n, h = grid_128.n, grid_128.n // 2 + 1
    f = gaussian(grid_128, 0.4, 1.2)
    rec = evolve(f, 0.2, StepControls(), gs_cert,
                 ProbeSpec(cadence=0.05, snapshot_times=(0.0, 0.1, 0.2)))

    def arrays(s):
        return [a.shape for a in vars(s).values() if isinstance(a, np.ndarray)]

    assert not np.shares_memory(rec.snapshots[0].samples, f.values)
    assert np.array_equal(rec.snapshots[0].values, f.values)
    for s in rec.snapshots:
        assert arrays(s) == [(h, h)]
        assert s.values.shape == (n, n)
        assert arrays(s) == [(h, h)]


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


@pytest.mark.parametrize("controls", [fixed_dt(2.0**-10), StepControls(dt_max=2e-3),
                                      fixed_dt(2.0**-10, scheme="kahan_li6")],
                         ids=["fixed", "adaptive", "kahan_li6"])
@pytest.mark.parametrize("family", ["scaled_q", "gaussian"])
def test_even_data_step_on_the_quadrant(gs_cert, grid_128, monkeypatch, family,
                                        controls):
    # a datum even in x and in y to the bit steps on the quadrant in the
    # DCT-I basis; the full grid's FFT path, forced, takes the same steps
    # and agrees to roundoff in the final field and every probe column.
    # The amplitude-2 hump makes the adaptive dt shrink mid-run.
    if family == "scaled_q":
        f = make_initial_data("scaled_q", {"lam": 1.1}, grid_128, gs_cert)
    else:
        f = gaussian(grid_128, 2.0, 1.0)
    assert evolution._is_even(f.values)
    t_end = 0.1

    def run():
        rec = evolve(f, t_end, controls, gs_cert,
                     ProbeSpec(cadence=0.025, snapshot_times=(t_end,)))
        return rec, step_strang(f, 2e-3).values

    quad, quad_step = run()
    monkeypatch.setattr(evolution, "_is_even", lambda v: False)
    full, full_step = run()
    assert quad.outcome == full.outcome == RAN_TO_T_END
    assert quad.steps_taken == full.steps_taken >= 60
    assert quad.times == full.times
    # measured: 1.6e-15 on the step, up to 1.4e-12 relative to the sup on
    # the final field (kahan_li6 on the focusing hump), 1.4e-12 on a column
    for got, want, tol in (
            (quad_step, full_step, 1e-14),
            (quad.snapshots[-1].values, full.snapshots[-1].values, 1e-11)):
        assert np.max(np.abs(got - want)) < tol * np.max(np.abs(want))
    for c in full.columns:
        want = np.asarray(getattr(full, c))
        dev = np.max(np.abs(np.asarray(getattr(quad, c)) - want))
        assert dev < 1e-11 * max(1.0, np.max(np.abs(want))), c
    # an even field's momentum is odd, so the quadrant's sums give 0.0
    assert set(quad.momx) == set(quad.momy) == {0.0}


def test_a_datum_off_symmetry_steps_on_the_full_grid(gs_cert, grid_128,
                                                      monkeypatch):
    # one sample one ulp off its mirror image makes the datum uneven about
    # every grid point, centred or rolled, and so does one -0.0 whose mirror
    # image is 0.0; a hump off the grid points in x is even about a grid
    # point in y only.  Each takes the full grid's path, bit for bit
    g = grid_128
    vals = gaussian(g, 2.0, 1.0).values.copy()
    j = g.n // 2 + 3
    signed = vals.copy()
    signed.imag[j, j - 4] = -0.0
    vals[j, j - 4] = np.nextafter(vals[j, j - 4].real, np.inf)
    data = (vals, np.roll(vals, (5, -17), axis=(0, 1)),
            2.0 * np.exp(-((g.X - 0.3 * g.dx) ** 2 + g.Y**2) / 2.0) + 0j,
            signed)
    assert np.array_equal(data[2][:, 1:], data[2][:, :0:-1])  # even in y
    fields = [Field(g, v) for v in data]
    assert not any(on_quadrant(g, f.values) for f in fields)

    def run():
        return [(evolve(f, 0.05, StepControls(dt_max=2e-3), gs_cert,
                        ProbeSpec(cadence=0.025, snapshot_times=(0.05,))),
                 step_strang(f, 2e-3).values) for f in fields]

    searched = run()
    monkeypatch.setattr(evolution, "_is_even", lambda v: False)
    for (uneven, uneven_step), (full, full_step) in zip(searched, run()):
        assert uneven.steps_taken == full.steps_taken
        assert np.array_equal(uneven.snapshots[-1].values,
                              full.snapshots[-1].values)
        assert np.array_equal(uneven_step, full_step)
        for c in uneven.columns:
            assert getattr(uneven, c) == getattr(full, c)


@pytest.mark.parametrize("controls", [fixed_dt(2.0**-10), StepControls(dt_max=2e-3),
                                      fixed_dt(2.0**-10, scheme="kahan_li6")],
                         ids=["fixed", "adaptive", "kahan_li6"])
def test_translated_data_step_on_the_quadrant_to_the_bit(grid_128, controls):
    # the hump or the ring rolled by whole grid points is even about its
    # centre, which the circular mean of its |v|^2 marginals finds (the
    # ring's peak is not its centre), so it steps on the quadrant rolled
    # back: its final field and one step are the centred run's rolled, and
    # its probes read the centred run's quadrant, so every column matches,
    # all to the bit
    g, n = grid_128, grid_128.n
    hump = gaussian(g, 2.0, 1.0).values
    ring = 1.5 * np.exp(-((g.R - 2.0) ** 2)) + 0j
    rng = np.random.default_rng(2012)
    shifts = ((1, 0), (n // 2, n // 2 + 5), (evolution.BLOCK_ROWS - n // 2, 3),
              tuple(int(s) for s in rng.integers(1, n, size=2)))

    def run(values):
        f = Field(g, values)
        rec = evolve(f, 0.1, controls, SimpleNamespace(qq_gq=1.0),
                     ProbeSpec(cadence=0.025, snapshot_times=(0.1,)))
        return rec, step_strang(f, 2e-3).values

    for v0, min_steps in ((hump, 60), (ring, 50)):
        base, base_step = run(v0)
        assert base.outcome == RAN_TO_T_END and base.steps_taken >= min_steps
        for shift in shifts:
            rolled = np.roll(v0, shift, axis=(0, 1))
            assert not evolution._is_even(rolled) and on_quadrant(g, rolled)
            assert evolution._centre(rolled) == tuple(np.mod(shift, n))
            rec, step = run(rolled)
            assert rec.steps_taken == base.steps_taken
            assert rec.times == base.times and rec.outcome == base.outcome
            assert np.array_equal(
                rec.snapshots[-1].values,
                np.roll(base.snapshots[-1].values, shift, (0, 1)))
            assert np.array_equal(step, np.roll(base_step, shift, (0, 1)))
            for c in rec.columns:
                assert getattr(rec, c) == getattr(base, c), (shift, c)


def test_an_even_ring_keeps_the_quadrant(grid_128):
    # a ring even about the origin peaks away from it: the centre search
    # tries the origin first, so the ring keeps the quadrant and its bits
    g = grid_128
    ring = 1.5 * np.exp(-((g.R - 2.0) ** 2)) + 0j
    peak = np.unravel_index(np.argmax(np.abs(ring)), ring.shape)
    assert peak != (g.n // 2, g.n // 2)
    assert evolution._centre(ring) == (0, 0)
    basis = evolution._basis(Field(g, ring))
    assert basis.c == (0, 0)
    assert len(basis.k) == g.n // 2 + 1


@pytest.mark.parametrize("variance", [True, False],
                         ids=["variance_on", "variance_off"])
def test_trajectory_csv_round_trip(gs_cert, grid_128, tmp_path, variance):
    import csv
    import json

    f = gaussian(grid_128, 0.4, 1.2)
    rec = evolve(f, 0.1, StepControls(), gs_cert,
                 ProbeSpec(cadence=0.05, variance=variance))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(rec, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["t", "grad_sq", "l6_6", "mass_drift", "energy_drift",
              "momx", "momy", "G", "tail_fraction"]
    assert rows[0] == header + ["variance"] * variance
    assert hasattr(rec, "variance") == variance
    # repr round trip: parsed floats are bit-identical to the record
    assert len(rows) == len(rec.times) + 1
    for row, i in zip(rows[1:], range(len(rec.times))):
        assert float(row[0]) == rec.times[i]
        for name, cell in zip(header[1:], row[1:]):
            assert float(cell) == getattr(rec, name)[i]
        if variance:
            assert float(row[9]) == rec.variance[i]
            assert rec.variance[i] > 0.0
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
    rec.grad_sq[1] = []  # float([]) raises after the first row is out
    with pytest.raises(TypeError):
        write_trajectory_csv(rec, str(path))
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "trajectory.csv", "trajectory.outcome.json"]
