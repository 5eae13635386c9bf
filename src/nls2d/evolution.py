"""Split-step Fourier time integration with adaptive step control.

The Strang step is the symmetric composition of two exact sub-flows: the
free propagator (a Fourier multiplier) for half a step, the pointwise
nonlinear phase rotation u -> u * exp(i |u|^4 dt) for a full step, then the
free propagator again.  Both sub-flows preserve the mass integral exactly,
so mass is conserved to roundoff; energy drifts at O(dt^2).

`StepControls.scheme` selects the step `evolve` takes.  "strang" (the
default) is the step above.  "kahan_li6" is the sixth-order symmetric
composition of nine Strang steps of sizes gamma_j dt, with the s9odr6a
coefficients of Kahan & Li 1997 (Math. Comp. 66, 1089).  The sixth-order
scheme is what holds the ground state Q to its standing-wave orbit over unit
times: Q is linearly unstable, and a second-order splitting error of
O(dt^2) puts a seed into the growing mode that is amplified about 5e4-fold
by t = 1.

The stepper holds the spectrum uh from one forward FFT of the datum to the
end of the run and merges the free flows that meet between stages and steps
(first same as last): a Strang step costs 2 FFTs, a nine-stage one 18, and
each probe after t = 0 one inverse FFT for its field.  The field the dt rule
reads inside a probe interval costs a third FFT, and is formed only when it
could move dt: never at fixed dt, nor at dt_max while (sum |uh| / n^2)^4 <=
(cfl_c / dt_max)(1 - 1e-12), a bound on sup|u|^4 the free flow keeps.  The
sum is skipped where it must fail: it bounds sup|u| of the last phase stage,
so once that stage's max |u|^4 (1 - 1e-9) passes the limit, dt and the step
are those the sum would give.

A phase stage forms theta = gamma dt |u|^4 from re^2 + im^2 and writes the
rotation (1, theta): below |theta| = 2^-27 the rounded cos is 1 and sin is
theta.  cos and sin run only on the shortest cyclic run of rows by columns
holding every |theta| >= 2^-27, so the rotation is the full grid's to the
bit.  Each elementwise pass runs over blocks of BLOCK_ROWS rows (256 KB at
n = 512) that stay in L2 from pass to pass.  A stage costs two FFTs, about
three quarters of its time at 512^2, and one sweep over the blocks.  The
phase is also the non-finite check: a finite spectrum stays finite through
the free flow, the FFTs and a finite rotation, and |u| ~ 1e77 already makes
theta overflow, so a step stops at its first stage with a non-finite max
|theta|.

A datum even in x and in y to the bit about a grid point c, v[c + j] ==
v[c - j mod n] on both axes, stays even under both sub-flows, so it steps on
its (n/2+1)^2 quadrant about c in the DCT-I basis (Boyd 2001, ch. 8), where
the sum bound counts a coefficient once at k = 0 and k = n/2 and twice
elsewhere, per axis.  `_centre` tries c = 0, then the c that moves the
circular mean of the |v|^2 marginals to j = n/2 (a ring's centre too): a
datum translated by whole grid points gives the centred one's bits,
translated.  A quadrant stage costs two DCT-I transforms at 257^2, half of
two FFTs at 512^2, and a quarter of the elementwise work (a fixed-dt Strang
step at 512: 4-7 ms against 11-14 ms on a shared two-core machine).  Every
other datum steps on the full grid.  A `Basis` records c, the layout that
`grid.fold` and `unfold` read; a probe reads the basis it steps in with the
sum bound's weights (`weighted_moments`), and a `Snapshot` keeps its
samples, unfolded on read.  The t = 0 probe is `read_field`, the reading
that `classify` and the ground state's certificate take too, so a verdict's
G0 is the trajectory's first G to the bit.

The driver integrates between probe times, records norms and conserved
drift, monitors the spectral tail as a resolution certificate, and converts
gradient growth plus tail growth into a blow-up detection.  We detect the
onset of blow-up and stop; nothing is simulated past resolution loss.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import fft

from .grid import (Field, Moments, abs2, atomic_open, fold, multiplicity,
                   unfold, variance, weighted_moments, write_float_csv)


# stage sizes gamma_j (fractions of dt) of symmetric compositions of the
# Strang step; each tuple sums to 1
SCHEMES = {
    "strang": (1.0,),
    "kahan_li6": (
        0.39216144400731413927925056,
        0.33259913678935943859974864,
        -0.70624617255763935980996482,
        0.08221359629355080023149045,
        0.79854399093482996339895035,
        0.08221359629355080023149045,
        -0.70624617255763935980996482,
        0.33259913678935943859974864,
        0.39216144400731413927925056,
    ),
}


PHASE_FLOOR = 2.0**-27  # |theta| below it rotates by (1, theta) exactly
BLOCK_ROWS = 32  # rows per elementwise pass: 256 KB of complex128 at n = 512
BOUND_SLACK = 1e-9  # roundoff between the phase's max |u|^4 and the sum bound
GRAD_BLOWUP_FACTOR = 25.0  # growth of grad_sq over its t = 0 value that signals blow-up


def _blocks(a: np.ndarray) -> list[np.ndarray]:
    return [a[i:i + BLOCK_ROWS] for i in range(0, len(a), BLOCK_ROWS)]


def free_flow(w: np.ndarray, h: float, k1d: np.ndarray) -> np.ndarray:
    """Apply exp(-i h |k|^2) = exp(-i h kx^2) exp(-i h ky^2) in place to w."""
    e = np.exp(-1j * h * k1d**2)
    for wb, eb in zip(_blocks(w), _blocks(e)):  # both while wb is in cache
        wb *= eb[:, None]
        wb *= e
    return w


@dataclass(frozen=True)
class StepControls:
    dt0: float | None = None  # unread: every dt comes from the dt rule
    dt_min: float = 1e-7
    dt_max: float = 1e-2
    cfl_c: float = 0.25
    tail_max: float = 1e-2
    scheme: str = "strang"

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError(
                f"need 0 < dt_min <= dt_max, got ({self.dt_min:g}, {self.dt_max:g})"
            )
        if not (0.0 < self.cfl_c <= 1.0):
            raise ValueError(f"cfl_c must lie in (0, 1], got {self.cfl_c:g}")
        if not (0.0 < self.tail_max <= 0.1):
            raise ValueError(f"tail_max must lie in (0, 0.1], got {self.tail_max:g}")
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"scheme must be one of {sorted(SCHEMES)}, got {self.scheme!r}"
            )


@dataclass
class ProbeSpec:
    cadence: float = 1e-2
    variance: bool = False
    snapshot_times: tuple = ()   # probes whose fields are kept, once each


RAN_TO_T_END = "ran_to_t_end"
BLOWUP_DETECTED = "blowup_detected"
UNDERRESOLVED = "underresolved"

# a probe's columns in trajectory.csv order, after t; variance, last, only
# when ProbeSpec.variance asks for it
COLUMNS = ("grad_sq", "l6_6", "mass_drift", "energy_drift", "momx", "momy",
           "G", "tail_fraction", "variance")


class TrajectoryRecord:
    """Time series of norms and drifts along one simulated trajectory: the
    list `times`, one list per name in `columns`, and kept `Snapshot`s."""

    def __init__(self, variance: bool = False):
        self.columns = COLUMNS if variance else COLUMNS[:-1]
        self.times: list[float] = []
        for c in self.columns:
            setattr(self, c, [])
        self.snapshots: list[Snapshot] = []
        self.outcome: str | None = None
        self.outcome_t: float | None = None
        self.steps_taken: int = 0
        self.mass0: float = np.nan
        self.energy0: float = np.nan

    def add_sample(self, t, **columns):
        if self.times and t <= self.times[-1]:
            raise ValueError("sample times must be strictly increasing")
        if columns.keys() != set(self.columns):
            raise ValueError(f"a sample needs the columns {self.columns}, "
                             f"got {tuple(columns)}")
        self.times.append(t)
        for c in self.columns:
            getattr(self, c).append(columns[c])

    def set_outcome(self, outcome: str, t: float):
        if self.outcome is not None:
            raise ValueError("outcome already set")
        self.outcome = outcome
        self.outcome_t = float(t)

    @property
    def t_star(self) -> float | None:
        return self.outcome_t if self.outcome == BLOWUP_DETECTED else None

    def snapshots_at(self, times) -> list[Snapshot]:
        """The kept probes whose times `times` names, in time order."""
        return [s for s in self.snapshots if _named(times, s.t)]


def _named(times, t: float) -> bool:
    """Whether the probe time t is one of times, to within 1e-9."""
    return any(abs(s - t) < 1e-9 for s in times)


def _support(hot: np.ndarray) -> list[slice]:
    """Plain slices covering the shortest cyclic run that holds every True
    of hot, split in two where the run wraps the periodic seam."""
    idx = np.flatnonzero(hot)
    if idx.size in (0, hot.size):
        return [slice(None)] if idx.size else []
    gaps = np.diff(idx, append=idx[0] + hot.size)  # cyclic gap after each
    j = int(np.argmax(gaps))  # the run starts after the widest gap
    start, stop = idx[j + 1 - idx.size], idx[j] + 1
    return ([slice(start, stop)] if start < stop
            else [slice(start, None), slice(0, stop)])


class Basis(NamedTuple):
    """A transform pair (both take overwrite_x), the wavenumber of each
    spectral index per axis, weights: sum(weight |w|) = sum |uh| / n^2, and
    the layout of the samples it steps, for `grid.fold` and `unfold`: c, the
    centre of a quadrant basis, or None on the full grid."""

    forward: Callable
    inverse: Callable
    k: np.ndarray
    weight: float | np.ndarray
    c: tuple[int, int] | None


class Snapshot:
    """A kept probe: its samples at t in the basis the run stepped in."""

    def __init__(self, grid, samples: np.ndarray, t: float, basis: Basis):
        self.grid, self.samples, self.t, self.basis = grid, samples, t, basis

    @property
    def values(self) -> np.ndarray:  # the full grid's, unfolded on each read
        return unfold(self.samples, self.basis.c)


def full_basis(grid) -> Basis:
    """The full grid's FFT basis; 1 / n^2, a power of two, scales exactly."""
    return Basis(fft.fft2, fft.ifft2, grid.k1d, 1.0 / grid.n**2, None)


def _is_even(v: np.ndarray) -> bool:
    """Whether v[j] == v[-j mod n] on both axes, to the bit: even about 0."""
    b = v.view(np.int64).reshape(*v.shape, 2)  # the bits: -0.0 is not 0.0
    return np.array_equal(b[1:], b[:0:-1]) and np.array_equal(b[:, 1:], b[:, :0:-1])


def _centre(v: np.ndarray) -> tuple[int, int] | None:
    """A shift c with np.roll(v, -c) even: (0, 0) if v is even, else the one
    that moves to the origin j = n/2 the circular mean of the |v|^2
    marginals, arg sum_j m_j exp(2 pi i j / n) per axis, if that works.
    Even about a point is even about it plus n/2, so the mean's half-turn
    ambiguity needs no second candidate."""
    if _is_even(v):
        return 0, 0
    n, v2 = len(v), abs2(v)
    turns = np.exp(2j * np.pi * np.arange(n) / n)
    c = tuple(int(np.rint(np.angle(turns @ v2.sum(axis=1 - ax)) * n
                          / (2 * np.pi)) + n // 2) % n for ax in (0, 1))
    return c if _is_even(np.roll(v, np.negative(c), (0, 1))) else None


def _basis(f: Field) -> Basis:
    """The basis f steps in: on the quadrant j = n/2 ... n (by evenness, the
    samples of j = n/2 ... 0) of f rolled by -c if `_centre` finds a c, else
    on the full grid."""
    n, c = f.grid.n, _centre(f.values)
    if c is None:
        return full_basis(f.grid)
    m = multiplicity(n)
    return Basis(_dct1(fft.dctn), _dct1(fft.idctn), f.grid.k1d[:len(m)],
                 np.outer(m, m) / n**2, c)


def read_field(f: Field):
    """(basis, samples, spectrum, moments) of f in the basis it steps in: the
    one reading of a run's t = 0 probe, `classify` and Q's certificate."""
    basis = _basis(f)
    v = fold(f.values, basis.c)
    w = basis.forward(v)
    return basis, v, w, weighted_moments(f.grid, v, w, basis.weight)


def _dct1(transform) -> Callable:
    """scipy's dctn or idctn of type 1 over a complex square array, run on
    its (re, im) pairs in one call: the complex call's bits, in less time."""
    def run(x, overwrite_x=False):
        pairs = np.ascontiguousarray(x).view(np.float64).reshape(*x.shape, 2)
        y = transform(pairs, type=1, axes=(0, 1), overwrite_x=overwrite_x)
        return y.view(np.complex128)[..., 0]
    return run


def _sum_bound4(w: np.ndarray, weight) -> float:
    """(sum |uh| / n^2)^4, a bound on sup|u|^4 the free flow keeps."""
    return np.sum(np.abs(w) * weight) ** 4


def _phase(u: np.ndarray, gdt: float, sq: np.ndarray, theta: np.ndarray,
           rot: np.ndarray):
    """Rotate u in place by exp(i gdt |u|^4), BLOCK_ROWS rows at a time, in
    the block buffers sq, theta and rot; returns max |u|^2, NaN if any is."""
    c, peak = abs(gdt), 0.0
    for ub in _blocks(u):
        s, th, r = sq[:len(ub)], theta[:len(ub)], rot[:len(ub)]
        np.add(np.square(ub.real, out=s), np.square(ub.imag, out=th), out=s)
        np.multiply(s, gdt, out=th)
        th *= s
        r.real, r.imag = 1.0, th
        # a row's or column's peak |theta| sits at its peak |u|^2
        rows = s.max(axis=1)
        for i in _support(rows * (rows * c) >= PHASE_FLOOR):
            cols = s[i].max(axis=0)
            for j in _support(cols * (cols * c) >= PHASE_FLOOR):
                np.cos(th[i, j], out=r.real[i, j])
                np.sin(th[i, j], out=r.imag[i, j])
        ub *= r
        peak = np.maximum(peak, rows.max())
    return peak


def _advance(w: np.ndarray, v: np.ndarray, t: float, target: float,
             controls: StepControls, basis: Basis):
    """Step the spectrum w of the field v from t to target in basis,
    overwriting w.

    Returns (w, t, steps), w at target with the owed free flow applied; the
    dt rule reads v at t.  On a non-finite phase, returns (None, t, steps)
    with t the time that step began.
    """
    gammas, k = SCHEMES[controls.scheme], basis.k
    # free-flow fraction of dt before each phase stage; gammas[-1] / 2 ends it
    lead = [0.5 * (a + b) for a, b in zip((0.0,) + gammas, gammas)]
    fixed = controls.dt_min == controls.dt_max
    # (sum |w| / n^2)^4 up to this certifies dt_max (see the module docstring)
    sup4_bound = controls.cfl_c / controls.dt_max * (1.0 - 1e-12)
    sq, theta = np.empty((2, min(BLOCK_ROWS, len(w)), len(w)))  # block buffers
    rot = np.empty(sq.shape, dtype=w.dtype)
    boundary = v  # the field at t, while it is formed
    h, steps, peak = 0.0, 0, 0.0  # h is the free flow still owed to w
    while t < target - 1e-12:
        # past the last stage's max |u|^4, the sum bound fails unsummed
        if fixed or (boundary is None
                     and peak * peak * (1.0 - BOUND_SLACK) <= sup4_bound
                     and _sum_bound4(w, basis.weight) <= sup4_bound):
            dt = controls.dt_max
        else:
            if boundary is None:
                boundary, h = basis.inverse(free_flow(w, h, k)), 0.0
            sup4 = float(np.max([np.abs(b, out=sq[:len(b)]).max()
                                 for b in _blocks(boundary)]) ** 4)
            dt = max(min(controls.dt_max, controls.cfl_c / sup4 if sup4 else np.inf),
                     controls.dt_min)
        dt = min(dt, target - t)
        for a, gamma in zip(lead, gammas):
            u = basis.inverse(free_flow(w, h + a * dt, k), overwrite_x=True)
            peak = _phase(u, gamma * dt, sq, theta, rot)
            if not np.isfinite(peak * (peak * abs(gamma * dt))):
                return None, t, steps + 1
            w = basis.forward(u, overwrite_x=True)
            h = 0.0
        boundary, h, steps = None, 0.5 * gammas[-1] * dt, steps + 1
        t += dt
    return free_flow(w, h, k), t, steps


def step_strang(f: Field, dt: float) -> Field:
    """One symmetric split step; advances the time stamp by dt."""
    if dt <= 1e-12:
        raise ValueError(f"dt must exceed 1e-12, got {dt:g}")
    basis = _basis(f)
    v = fold(f.values, basis.c)
    w, _, _ = _advance(basis.forward(v), v, 0.0, dt,
                       StepControls(dt_min=dt, dt_max=dt), basis)
    if w is None:
        raise ValueError("the step overflowed to non-finite samples")
    return Field(f.grid, unfold(basis.inverse(w, overwrite_x=True), basis.c),
                 f.t + dt)


def detect_blowup(rec: TrajectoryRecord, controls: StepControls) -> float | None:
    """First sample time at which gradient growth and tail loss coincide.

    Fires when grad_sq >= GRAD_BLOWUP_FACTOR * grad_sq(0) AND the spectral
    tail fraction >= controls.tail_max on two consecutive samples.
    """
    if len(rec.times) < 2:
        return None
    g0 = rec.grad_sq[0]
    if g0 <= 0.0:
        return None
    prev = False
    for i in range(len(rec.times)):
        cond = (
            rec.grad_sq[i] >= GRAD_BLOWUP_FACTOR * g0
            and rec.tail_fraction[i] >= controls.tail_max
        )
        if cond and prev:
            return rec.times[i - 1]
        prev = cond
    return None


def _probe(m: Moments, u: Snapshot, gs, rec: TrajectoryRecord) -> dict:
    """The row of rec's columns from the moments m; u is read for variance."""
    # drifts compare against the t = 0 sample, read by the same kernel, so
    # no change of estimator can masquerade as conservation loss
    m0, e0 = rec.mass0, rec.energy0
    row = dict(grad_sq=m.grad_sq, l6_6=m.l6_6, momx=m.px, momy=m.py,
               mass_drift=(m.mass - m0) / m0 if m0 > 0.0 else 0.0,
               energy_drift=(m.energy - e0) / max(abs(e0), 1e-3),
               G=float(np.sqrt(m.mass * m.grad_sq) / gs.qq_gq),
               tail_fraction=m.tail)
    if "variance" in rec.columns:
        try:
            row["variance"] = variance(u)
        except ValueError:  # mass at the boundary
            row["variance"] = np.nan
    return row


def evolve(f: Field, t_end: float, controls: StepControls, gs,
           probes: ProbeSpec | None = None) -> TrajectoryRecord:
    """Integrate until t_end, blow-up detection, or resolution loss.

    The step is dt = clamp(cfl_c / ||u||_inf^4, dt_min, dt_max), which bounds
    the nonlinear phase rotation per step by cfl_c; fixed-step runs pin
    dt_min = dt_max.  Each step is the composition `controls.scheme` names.
    Probes are recorded at uniform cadence, t = f.t included.
    """
    if probes is None:
        probes = ProbeSpec()
    if t_end <= f.t:
        raise ValueError("t_end must exceed the field's current time")
    rec = TrajectoryRecord(probes.variance)
    n_probes = max(int(round((t_end - f.t) / probes.cadence)), 1)
    stalled_tail_streak, t = 0, f.t
    basis, v, w, m = read_field(f)  # the t = f.t probe reads the datum itself
    rec.mass0, rec.energy0 = m.mass, m.energy
    for i in range(n_probes + 1):
        target = f.t + i * probes.cadence if i < n_probes else t_end
        w, t, steps = _advance(w, v, t, target, controls, basis)
        rec.steps_taken += steps
        if w is None:
            # overflow near collapse counts as a blow-up signal
            rec.set_outcome(BLOWUP_DETECTED, t)
            return rec
        t = target  # resync against accumulated roundoff
        if i:
            v = basis.inverse(w)
            m = weighted_moments(f.grid, v, w, basis.weight)
        u = Snapshot(f.grid, v if i else v.copy(), t, basis)
        rec.add_sample(t, **_probe(m, u, gs, rec))
        if _named(probes.snapshot_times, t):
            rec.snapshots.append(u)
        if not i:
            continue  # the stopping rules compare against the t = f.t sample
        t_star = detect_blowup(rec, controls)
        if t_star is not None:
            rec.set_outcome(BLOWUP_DETECTED, t_star)
            return rec
        # resolution loss: tail persistently high while the gradient stays
        # below the blow-up factor.  Collapse often shows 1-2 high-tail
        # samples just before the gradient condition catches up, so stop
        # only after a sustained streak with no gradient growth.
        stalled = (rec.tail_fraction[-1] > controls.tail_max
                   and rec.grad_sq[-1] < GRAD_BLOWUP_FACTOR * rec.grad_sq[0])
        stalled_tail_streak = stalled_tail_streak + 1 if stalled else 0
        if stalled_tail_streak >= 6:
            rec.set_outcome(UNDERRESOLVED, t)
            return rec
    rec.set_outcome(RAN_TO_T_END, t)
    return rec


def write_trajectory_csv(rec: TrajectoryRecord, path: str) -> None:
    """Write the probe table; the outcome goes to a JSON sidecar."""
    write_float_csv(path, ("t",) + rec.columns,
                    zip(rec.times, *(getattr(rec, c) for c in rec.columns)))
    sidecar = os.path.splitext(path)[0] + ".outcome.json"
    with atomic_open(sidecar) as fh:
        json.dump({"outcome": rec.outcome, "t": rec.outcome_t,
                   "steps": rec.steps_taken,
                   "mass0": rec.mass0, "energy0": rec.energy0}, fh, indent=2)
