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

Between probes the stepper holds the spectrum uh and merges the free flows
that meet between stages and steps (first same as last): a Strang step
costs 2 FFTs, a nine-stage one 18, plus one each way per probe interval.
The boundary field the dt rule reads costs a third FFT, and is formed only
when it could move dt: never at fixed dt, nor at dt_max while (sum |uh| /
n^2)^4 <= (cfl_c / dt_max)(1 - 1e-12), a bound on sup|u|^4 that the free
flow leaves unchanged.

The driver integrates between probe times, records norms and conserved
drift, monitors the spectral tail as a resolution certificate, and converts
gradient growth plus tail growth into a blow-up detection.  We detect the
onset of blow-up and stop; nothing is simulated past resolution loss.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .grid import Field, Moments, atomic_open, boundary_mass_fraction, moments


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


def free_flow(w: np.ndarray, h: float, k1d: np.ndarray) -> np.ndarray:
    """Apply exp(-i h |k|^2) = exp(-i h kx^2) exp(-i h ky^2) in place to w."""
    e = np.exp(-1j * h * k1d**2)
    w *= e[:, None]
    w *= e[None, :]
    return w


@dataclass(frozen=True)
class StepControls:
    dt0: float = 1e-3
    dt_min: float = 1e-7
    dt_max: float = 1e-2
    cfl_c: float = 0.25
    tail_max: float = 1e-2
    grad_blowup_factor: float = 25.0
    scheme: str = "strang"

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise ValueError(
                f"need 0 < dt_min <= dt0 <= dt_max, got "
                f"({self.dt_min:g}, {self.dt0:g}, {self.dt_max:g})"
            )
        if not (0.0 < self.cfl_c <= 1.0):
            raise ValueError(f"cfl_c must lie in (0, 1], got {self.cfl_c:g}")
        if not (0.0 < self.tail_max <= 0.1):
            raise ValueError(f"tail_max must lie in (0, 0.1], got {self.tail_max:g}")
        if self.grad_blowup_factor <= 1.0:
            raise ValueError("grad_blowup_factor must exceed 1")
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


class TrajectoryRecord:
    """Time series of norms and drifts along one simulated trajectory."""

    def __init__(self, grid, variance_enabled: bool):
        self.grid = grid
        self.variance_enabled = variance_enabled
        self.times: list[float] = []
        self.grad_sq: list[float] = []
        self.l6_6: list[float] = []
        self.mass_drift: list[float] = []
        self.energy_drift: list[float] = []
        self.momx: list[float] = []
        self.momy: list[float] = []
        self.G: list[float] = []
        self.tail_fraction: list[float] = []
        self.variance: list[float] = []
        self.snapshots: list[Field] = []
        self.outcome: str | None = None
        self.outcome_t: float | None = None
        self.steps_taken: int = 0
        self.mass0: float = np.nan
        self.energy0: float = np.nan

    def add_sample(self, t, grad_sq, l6_6, mass_drift, energy_drift,
                   momx, momy, G, tail, variance=np.nan):
        if self.times and t <= self.times[-1]:
            raise ValueError("sample times must be strictly increasing")
        self.times.append(t)
        self.grad_sq.append(grad_sq)
        self.l6_6.append(l6_6)
        self.mass_drift.append(mass_drift)
        self.energy_drift.append(energy_drift)
        self.momx.append(momx)
        self.momy.append(momy)
        self.G.append(G)
        self.tail_fraction.append(tail)
        self.variance.append(variance)

    def set_outcome(self, outcome: str, t: float):
        if self.outcome is not None:
            raise ValueError("outcome already set")
        self.outcome = outcome
        self.outcome_t = float(t)

    @property
    def t_star(self) -> float | None:
        return self.outcome_t if self.outcome == BLOWUP_DETECTED else None

    def snapshots_at(self, times) -> list[Field]:
        """The kept fields whose times `times` names, in time order."""
        return [s for s in self.snapshots if _named(times, s.t)]


def _named(times, t: float) -> bool:
    """Whether the probe time t is one of times, to within 1e-9."""
    return any(abs(s - t) < 1e-9 for s in times)


def _advance(v: np.ndarray, t: float, target: float, controls: StepControls,
             k1d: np.ndarray):
    """Step the samples v from time t to target; returns (v, t, steps).

    On a non-finite spectrum after a step, returns (None, t, steps) with t
    the time that step began.
    """
    if t >= target - 1e-12:
        return v, t, 0
    gammas = SCHEMES[controls.scheme]
    # free-flow fraction of dt before each phase stage; gammas[-1] / 2 ends it
    lead = [0.5 * (a + b) for a, b in zip((0.0,) + gammas, gammas)]
    fixed = controls.dt_min == controls.dt_max
    # (sum |w| / n^2)^4 up to this certifies dt_max (see the module docstring)
    sup4_bound = controls.cfl_c / controls.dt_max * (1.0 - 1e-12)
    w = fft.fft2(v)
    buf = np.empty_like(w)
    boundary = v  # the field at t, while it is formed
    h, steps = 0.0, 0  # h is the free flow still owed to w
    while t < target - 1e-12:
        if fixed or (boundary is None
                     and (np.sum(np.abs(w)) / w.size) ** 4 <= sup4_bound):
            dt = controls.dt_max
        else:
            if boundary is None:
                boundary, h = fft.ifft2(free_flow(w, h, k1d)), 0.0
            sup4 = float(np.max(np.abs(boundary)) ** 4)
            dt = max(min(controls.dt_max, controls.cfl_c / sup4 if sup4 else np.inf),
                     controls.dt_min)
        dt = min(dt, target - t)
        for a, gamma in zip(lead, gammas):
            u = fft.ifft2(free_flow(w, h + a * dt, k1d), overwrite_x=True)
            sq = np.square(u.view(np.float64))
            theta = sq[:, 0::2] + sq[:, 1::2]  # |u|^2 with no sqrt
            theta *= theta * (gamma * dt)
            np.cos(theta, out=buf.real)
            np.sin(theta, out=buf.imag)
            u *= buf
            w = fft.fft2(u, overwrite_x=True)
            h = 0.0
        boundary, h, steps = None, 0.5 * gammas[-1] * dt, steps + 1
        if not np.all(np.isfinite(w.view(np.float64))):
            return None, t, steps
        t += dt
    return fft.ifft2(free_flow(w, h, k1d), overwrite_x=True), t, steps


def step_strang(f: Field, dt: float) -> Field:
    """One symmetric split step; advances the time stamp by dt."""
    if dt <= 1e-12:
        raise ValueError(f"dt must exceed 1e-12, got {dt:g}")
    v, _, _ = _advance(f.values, 0.0, dt,
                       StepControls(dt0=dt, dt_min=dt, dt_max=dt), f.grid.k1d)
    if v is None:
        raise ValueError("the step overflowed to non-finite samples")
    return Field(f.grid, v, f.t + dt)


def detect_blowup(rec: TrajectoryRecord, controls: StepControls) -> float | None:
    """First sample time at which gradient growth and tail loss coincide.

    Fires when grad_sq >= grad_blowup_factor * grad_sq(0) AND the spectral
    tail fraction >= tail_max on two consecutive samples.
    """
    if len(rec.times) < 2:
        return None
    g0 = rec.grad_sq[0]
    if g0 <= 0.0:
        return None
    prev = False
    for i in range(len(rec.times)):
        cond = (
            rec.grad_sq[i] >= controls.grad_blowup_factor * g0
            and rec.tail_fraction[i] >= controls.tail_max
        )
        if cond and prev:
            return rec.times[i - 1]
        prev = cond
    return None


def _probe(u: Field, m: Moments, gs, rec: TrajectoryRecord, want_variance: bool):
    g = u.grid
    G = float(np.sqrt(m.mass * m.grad_sq) / gs.qq_gq)
    var = np.nan
    if want_variance:
        if boundary_mass_fraction(u) <= 1e-10:
            var = float(g.dx**2 * np.sum((g.X**2 + g.Y**2) * np.abs(u.values) ** 2))
    # drifts compare against the t = 0 sample, read by the same kernel, so
    # no change of estimator can masquerade as conservation loss
    m0, e0 = rec.mass0, rec.energy0
    rec.add_sample(
        t=u.t,
        grad_sq=m.grad_sq,
        l6_6=m.l6_6,
        mass_drift=(m.mass - m0) / m0 if m0 > 0.0 else 0.0,
        energy_drift=(m.energy - e0) / max(abs(e0), 1e-3),
        momx=m.px,
        momy=m.py,
        G=G,
        tail=m.tail,
        variance=var,
    )


def evolve(
    f: Field,
    t_end: float,
    controls: StepControls,
    gs,
    probes: ProbeSpec | None = None,
) -> TrajectoryRecord:
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
    rec = TrajectoryRecord(f.grid, probes.variance)
    n_probes = max(int(round((t_end - f.t) / probes.cadence)), 1)
    stalled_tail_streak = 0
    v, t = f.values, f.t
    for i in range(n_probes + 1):
        target = f.t + i * probes.cadence if i < n_probes else t_end
        v, t, steps = _advance(v, t, target, controls, f.grid.k1d)
        rec.steps_taken += steps
        if v is None:
            # overflow near collapse counts as a blow-up signal
            rec.set_outcome(BLOWUP_DETECTED, t)
            return rec
        t = target  # resync against accumulated roundoff
        u = Field(f.grid, v, t)
        m = moments(u)
        if not i:
            rec.mass0, rec.energy0 = m.mass, m.energy
        _probe(u, m, gs, rec, probes.variance)
        if _named(probes.snapshot_times, t):
            rec.snapshots.append(u.copy())
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
        if (
            rec.tail_fraction[-1] > controls.tail_max
            and rec.grad_sq[-1] < controls.grad_blowup_factor * rec.grad_sq[0]
        ):
            stalled_tail_streak += 1
            if stalled_tail_streak >= 6:
                rec.set_outcome(UNDERRESOLVED, t)
                return rec
        else:
            stalled_tail_streak = 0
    rec.set_outcome(RAN_TO_T_END, t)
    return rec


def write_trajectory_csv(rec: TrajectoryRecord, path: str) -> None:
    """Write the probe table; the outcome goes to a JSON sidecar."""
    cols = ["t", "grad_sq", "l6_6", "mass_drift", "energy_drift",
            "momx", "momy", "G", "tail_fraction"]
    if rec.variance_enabled:
        cols.append("variance")
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(len(rec.times)):
            row = [rec.times[i], rec.grad_sq[i], rec.l6_6[i],
                   rec.mass_drift[i], rec.energy_drift[i],
                   rec.momx[i], rec.momy[i], rec.G[i], rec.tail_fraction[i]]
            if rec.variance_enabled:
                row.append(rec.variance[i])
            writer.writerow([repr(float(v)) for v in row])
    sidecar = os.path.splitext(path)[0] + ".outcome.json"
    with atomic_open(sidecar) as fh:
        json.dump({"outcome": rec.outcome, "t": rec.outcome_t,
                   "steps": rec.steps_taken,
                   "mass0": rec.mass0, "energy0": rec.energy0}, fh, indent=2)
