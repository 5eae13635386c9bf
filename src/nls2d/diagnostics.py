"""Variance and virial machinery, localized cutoffs, and outcome detectors.

The variance V(t) = int |x|^2 |u|^2 obeys V'' = 8 ||grad u||^2 -
(16/3) ||u||_L6^6 along the flow; convexity of V drives blow-up arguments,
and a localized version z_R (variance against a compactly supported radial
cutoff) gives quantitative blow-up time bounds.  A scattering detector
compares late-time states against a free evolution.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy import fft

from .grid import (Field, abs2, atomic_open, boundary_mass_fraction, moments,
                   spectral_gradient, variance, write_float_csv)
from .functionals import renormalized
from .evolution import RAN_TO_T_END, Snapshot, free_flow


# ---------------------------------------------------------------------------
# cutoffs

def _phi_derivs(rho: np.ndarray):
    """Compact cutoff: rho^2 for rho <= 1, zero for rho >= 2.

    Quintic blend h(t) = 1 + 2t + t^2 - 25t^3 + 34t^4 - 13t^5 (t = rho - 1)
    matches value/slope/curvature of rho^2 at rho = 1 and vanishes to second
    order at rho = 2.  Returns derivatives up to fourth order.
    """
    rho = np.asarray(rho, dtype=float)
    t = np.clip(rho - 1.0, 0.0, 1.0)
    h = 1.0 + 2.0 * t + t**2 - 25.0 * t**3 + 34.0 * t**4 - 13.0 * t**5
    h1 = 2.0 + 2.0 * t - 75.0 * t**2 + 136.0 * t**3 - 65.0 * t**4
    h2 = 2.0 - 150.0 * t + 408.0 * t**2 - 260.0 * t**3
    h3 = -150.0 + 816.0 * t - 780.0 * t**2
    h4 = 816.0 - 1560.0 * t
    inside = rho <= 1.0
    outside = rho >= 2.0
    val = np.where(inside, rho**2, np.where(outside, 0.0, h))
    d1 = np.where(inside, 2.0 * rho, np.where(outside, 0.0, h1))
    d2 = np.where(inside, 2.0, np.where(outside, 0.0, h2))
    d3 = np.where(inside, 0.0, np.where(outside, 0.0, h3))
    d4 = np.where(inside, 0.0, np.where(outside, 0.0, h4))
    return val, d1, d2, d3, d4


def _cutoff_radius(R: float | None, grid) -> float:
    return grid.L / 4.0 if R is None else R  # the default radius is L/4


class Cutoff:
    """Compact radial cutoff sampled (with its radial derivatives) on a grid.

    Weight W(x) = R^2 phi(|x|/R) with phi = rho^2 inside rho <= 1 and
    phi = 0 beyond rho = 2.
    """

    def __init__(self, R: float, grid):
        if R < 8.0 * grid.dx:
            raise ValueError(f"R = {R:g} too small for the grid (dx = {grid.dx:g})")
        self.R = float(R)
        self.grid = grid
        rho = grid.R / self.R
        val, d1, d2, d3, d4 = _phi_derivs(rho)
        self.w = self.R**2 * val            # W(x)
        self.rwp = self.R * d1              # R phi'(rho), z'_R's weight
        self.wpp = d2                       # phi''(rho)
        # ratio phi'(rho)/rho and the radial (bi)laplacians, with the exact
        # interior constants substituted where rho -> 0 would divide by zero
        inside = rho <= 1.0
        rho_safe = np.where(inside, 1.0, rho)
        self.wp_over_rho = np.where(inside, 2.0, d1 / rho_safe)
        self.lap = np.where(inside, 4.0, d2 + d1 / rho_safe)
        self.bilap = np.where(
            inside,
            0.0,
            d4 + 2.0 * d3 / rho_safe - d2 / rho_safe**2 + d1 / rho_safe**3,
        )
        # radial unit vector, safe at the origin, where the weights vanish
        r_safe = np.where(grid.R == 0.0, 1.0, grid.R)
        self.cx, self.cy = grid.X / r_safe, grid.Y / r_safe


# ---------------------------------------------------------------------------
# variance and virial identities

def variance_derivative(f: Field, grad=None) -> float:
    """V'(t) by the momentum-flux formula 4 Im int conj(u) (x . grad u);
    grad is spectral_gradient(f) if the caller holds it."""
    g = f.grid
    ux, uy = spectral_gradient(f) if grad is None else grad
    integrand = np.conj(f.values) * (g.X * ux + g.Y * uy)
    return float(4.0 * g.dx**2 * np.imag(np.sum(integrand)))


def _wsum(*factors):
    """Grid sum of a product, by einsum: no temporary and no BLAS threads."""
    return np.einsum(",".join("ij" for _ in factors) + "->", *factors)


def localized_variance(f: Field, cutoff: Cutoff, grad=None, virial=None):
    """Localized variance z_R and its first two exact time derivatives.

    With weight W(x) = R^2 phi(x/R):
      z_R   = int W |u|^2
      z'_R  = 2 Im int grad W . grad u conj(u)
      z''_R = 4 int [phi''|du_r|^2 + (phi'/rho)|du_tau|^2]
              - (1/R^2) int (bilap phi) |u|^2 - (4/3) int (lap phi) |u|^6
    Returns (z_R, zp_R, zpp_R, A_R) where A_R is z''_R minus the
    unlocalized expression 8||grad u||^2 - (16/3)||u||^6.  grad and virial
    are spectral_gradient(f) and moments(f).virial if the caller holds
    them; otherwise both come from one FFT of f.
    """
    g = f.grid
    if cutoff.grid is not g and cutoff.grid != g:
        raise ValueError("cutoff was sampled on a different grid")
    dx2 = g.dx**2
    u = f.values
    a2 = abs2(u)
    z = float(dx2 * _wsum(cutoff.w, a2))

    if grad is None or virial is None:
        fh = fft.fft2(u)
        grad, virial = spectral_gradient(f, fh), moments(f, fh).virial
    ux, uy = grad
    du_r = cutoff.cx * ux  # radial and tangential parts
    du_r += cutoff.cy * uy
    du_tau = cutoff.cx * uy
    du_tau -= cutoff.cy * ux
    zp = float(2.0 * dx2 * _wsum(cutoff.rwp, np.conj(u), du_r).imag)
    zpp = float(
        4.0 * dx2 * (_wsum(cutoff.wpp, du_r.real, du_r.real)
                     + _wsum(cutoff.wpp, du_r.imag, du_r.imag)
                     + _wsum(cutoff.wp_over_rho, du_tau.real, du_tau.real)
                     + _wsum(cutoff.wp_over_rho, du_tau.imag, du_tau.imag))
        - dx2 / cutoff.R**2 * _wsum(cutoff.bilap, a2)
        - (4.0 / 3.0) * dx2 * _wsum(cutoff.lap, a2 * a2, a2)
    )
    A_R = zpp - virial
    return z, zp, zpp, A_R


@dataclass
class VirialTrace:
    times: np.ndarray
    V: np.ndarray
    Vp_formula: np.ndarray
    Vpp_formula: np.ndarray
    Vpp_fd: np.ndarray     # NaN at the ends
    z_R: np.ndarray
    zp_R: np.ndarray
    A_R: np.ndarray


def virial_check_full(snapshots: list[Field], R: float | None = None) -> VirialTrace:
    """Per-snapshot virial quantities plus finite-difference cross-checks.

    Snapshots must be uniformly spaced in time (5 or more).  V'' by the
    formula is compared against centered second differences of V; the
    localized column uses the compact cutoff at radius R (default L/4).  V
    and V' are NaN on a snapshot past variance's boundary-mass guard.
    Each snapshot unfolds once and costs one forward and two inverse FFTs.
    """
    if len(snapshots) < 5:
        raise ValueError("need at least 5 uniformly spaced snapshots")
    times = np.array([s.t for s in snapshots])
    dt = np.diff(times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(dt[0], 1e-30):
        raise ValueError("snapshots are not uniformly spaced")
    g = snapshots[0].grid
    cutoff = Cutoff(_cutoff_radius(R, g), g)
    rows = []
    for s in snapshots:
        s = Field(g, s.values, s.t)
        fh = fft.fft2(s.values)
        grad, vpp = spectral_gradient(s, fh), moments(s, fh).virial
        z, zp, _, ar = localized_variance(s, cutoff, grad, vpp)
        try:
            v, vp = variance(s), variance_derivative(s, grad)
        except ValueError:  # mass at the boundary
            v = vp = np.nan
        rows.append((v, vp, vpp, z, zp, ar))
    V, Vp, Vpp, z_R, zp_R, A_R = (np.array(col) for col in zip(*rows))
    Vpp_fd = np.full_like(V, np.nan)
    h = dt[0]
    Vpp_fd[1:-1] = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / h**2
    return VirialTrace(
        times=times, V=V, Vp_formula=Vp, Vpp_formula=Vpp, Vpp_fd=Vpp_fd,
        z_R=z_R, zp_R=zp_R, A_R=A_R,
    )


# virial.csv's columns after t; zp_R is computed but not written
VIRIAL_COLUMNS = ("V", "Vp_formula", "Vpp_formula", "Vpp_fd", "z_R", "A_R")


def write_virial_csv(trace: VirialTrace, path: str) -> None:
    write_float_csv(path, ("t",) + VIRIAL_COLUMNS, zip(
        trace.times, *(getattr(trace, c) for c in VIRIAL_COLUMNS)))


# ---------------------------------------------------------------------------
# radial symmetry

def radial_asymmetry(f: Field) -> float:
    """Sup deviation of the samples from their exact radial orbit average.

    Grid points sharing i^2 + j^2 (signed index offsets from the center) lie
    on a common circle; averaging over those orbits is an exact radial
    average for lattice data.
    """
    n = f.grid.n
    idx = np.arange(n) - n // 2
    r2 = (idx[:, None] ** 2 + idx[None, :] ** 2).ravel()
    vals = f.values.ravel()
    counts = np.bincount(r2)  # bins no i^2 + j^2 hits are 0 / 0, never read
    with np.errstate(invalid="ignore"):
        mean_re = np.bincount(r2, weights=vals.real) / counts
        mean_im = np.bincount(r2, weights=vals.imag) / counts
    avg = (mean_re + 1j * mean_im)[r2]
    return float(np.max(np.abs(vals - avg)))


# ---------------------------------------------------------------------------
# energy-gradient bounds along below-threshold trajectories

@dataclass
class BoundsMargins:
    lower: np.ndarray      # E - (1/4)||grad u||^2 >= 0
    upper: np.ndarray      # (1/2)||grad u||^2 - E >= 0
    trapping: np.ndarray   # omega - G(t) >= 0
    chained: np.ndarray    # 8(1-omega^2)||grad u||^2 - 16(1-omega^2)E >= 0

    def min_margin(self) -> float:
        return float(min(self.lower.min(), self.upper.min(),
                         self.trapping.min(), self.chained.min()))


def energy_gradient_bounds_check(rec, energy0: float, ME: float) -> BoundsMargins:
    """Margins of the two-sided energy-gradient equivalence below threshold.

    Requires ME < 1 and G(0) < 1 (the comparability constants degenerate
    otherwise).  omega = sqrt(ME) also traps G(t) from above.
    """
    G = np.asarray(rec.G)
    if not (ME < 1.0 and G[0] < 1.0):
        raise ValueError("bounds apply to below-threshold trajectories only")
    omega = np.sqrt(max(ME, 0.0))
    grad = np.asarray(rec.grad_sq)
    E = energy0 + np.asarray(rec.energy_drift) * max(abs(energy0), 1e-3)
    lower = E - 0.25 * grad
    upper = 0.5 * grad - E
    trapping = omega - G
    chained = 8.0 * (1.0 - omega**2) * grad - 16.0 * (1.0 - omega**2) * E
    return BoundsMargins(lower=lower, upper=upper, trapping=trapping, chained=chained)


# ---------------------------------------------------------------------------
# blow-up time bound from the localized variance

KAPPA0 = 0.1  # cap on the exterior-gradient budget kappa of the time bound


def blowup_time_bound(f: Field, gs, R: float | None, kappa: float):
    """Upper bound t_b on the forward blow-up time for line data above threshold.

    For a datum on the mass-invariant scaling line with lam > 1 the scaled
    localized variance V_R = z_R / (32 E[Q] lam^2 (lam^2 - 1 - kappa))
    vanishes by t_b = V_R'(0) + sqrt(V_R'(0)^2 + 2 V_R(0)), provided the
    exterior gradient stays within the kappa budget, and kappa below
    min(lam - 1, KAPPA0); the cutoff radius R defaults to L/4.  Returns
    (t_b, info) with t_b None when the hypotheses are not verifiable at
    t = 0.
    """
    fh = fft.fft2(f.values)
    m = moments(f, fh)
    rn = renormalized(m, gs)
    if not (rn.ME < 1.0 and rn.G > 1.0):
        raise ValueError("bound applies above threshold (ME < 1, G(0) > 1)")
    lam_sq = 1.0 + np.sqrt(1.0 - rn.ME)
    lam = float(np.sqrt(lam_sq))
    if kappa >= min(lam - 1.0, KAPPA0):
        raise ValueError(
            f"kappa = {kappa:g} must stay below min(lam - 1, KAPPA0) = "
            f"{min(lam - 1.0, KAPPA0):g}"
        )
    g = f.grid
    R = _cutoff_radius(R, g)
    ux, uy = grad = spectral_gradient(f, fh)
    ext = g.R >= R
    grad_ext = float(g.dx**2 * np.sum(np.abs(ux[ext]) ** 2 + np.abs(uy[ext]) ** 2))
    G_ext = float(np.sqrt(m.mass * grad_ext) / gs.qq_gq)
    info = {"lam": lam, "G_ext": G_ext, "kappa": kappa, "R": R}
    if G_ext > kappa:
        info["reason"] = "exterior gradient exceeds the kappa budget at t = 0"
        return None, info
    cutoff = Cutoff(R, g)
    z, zp, _, _ = localized_variance(f, cutoff, grad, m.virial)
    denom = 32.0 * gs.energyQ * lam_sq * (lam_sq - 1.0 - kappa)
    V_R = z / denom
    Vp_R = zp / denom
    t_b = float(Vp_R + np.sqrt(Vp_R**2 + 2.0 * V_R))
    info.update({"z_R": z, "zp_R": zp, "V_R": V_R})
    return t_b, info


# ---------------------------------------------------------------------------
# scattering detector

@dataclass
class ScatteringReport:
    l6_decay_factor: float
    d_T2_over_H1: float
    verdict: str
    d_mid_over_H1: float
    monotone_ok: bool
    box_exit_flagged: bool
    window: tuple

    def to_json(self) -> dict:
        return {**asdict(self), "window": list(self.window)}


def asymptotic_state_residuals(snapshots: list[Snapshot]) -> np.ndarray:
    """H1 distances d(t) = ||u(t) - e^{i t lap} phi_plus|| over the snapshots.

    phi_plus is the last snapshot pulled back by the free flow, so d at the
    final time is zero by construction; the content is how d behaves before
    that. Purely linear trajectories give d identically zero.  Each d is a
    Parseval sum in the snapshots' basis, one transform per earlier snapshot.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    g, b, T2 = snapshots[-1].grid, snapshots[-1].basis, snapshots[-1].t
    last = b.forward(snapshots[-1].samples)
    k2, mult = b.k**2, b.weight * g.n**2  # mult is 1.0 on the full grid
    d = []
    for s in snapshots[:-1]:
        # sum (1 + |k|^2) |dh|^2, the |k|^2 part on the axis sums of |dh|^2
        p = mult * abs2(b.forward(s.samples) - free_flow(last.copy(), s.t - T2, b.k))
        rows, cols = np.sum(p, axis=1), np.sum(p, axis=0)
        d.append(g.dx / g.n * np.sqrt(np.sum(rows) + k2 @ rows + k2 @ cols))
    return np.array(d + [0.0])


def scattering_detect(rec, window: tuple[float, float],
                      snapshots: list[Snapshot]) -> ScatteringReport:
    """Scattering detector over [T1, T2]: L6 decay plus free-flow comparison.

    Requires a trajectory that ran to its end without blow-up; reads the
    given snapshots of it that lie in the window.  Verdict is scatter_like
    iff the recorded int |u|^6 decays by at least 10x from its window
    maximum to T2, d(t) is decreasing within noise across the window, and d
    just before T2 is at most 5% of the initial H1 norm.
    """
    T1, T2 = window
    if rec.outcome != RAN_TO_T_END:
        raise ValueError(f"detector needs a completed trajectory, got {rec.outcome}")
    times = np.asarray(rec.times)
    if T2 > times[-1] + 1e-9 or T1 < times[0] - 1e-9:
        raise ValueError("window exceeds the recorded trajectory")
    snaps = [s for s in snapshots if T1 - 1e-9 <= s.t <= T2 + 1e-9]
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots inside the window")

    in_window = (times >= T1 - 1e-9) & (times <= T2 + 1e-9)
    l6 = np.asarray(rec.l6_6)[in_window]
    i_t2 = int(np.argmin(np.abs(times - T2)))
    l6_final = rec.l6_6[i_t2]
    decay = float(np.max(l6) / l6_final) if l6_final > 0.0 else np.inf

    d = asymptotic_state_residuals(snaps)
    h1_0 = np.sqrt(rec.mass0 + rec.grad_sq[0])
    noise = 1e-12 * h1_0
    monotone = bool(np.all(d[1:] <= 1.1 * d[:-1] + noise))
    d_t2 = float(d[-1] / h1_0)
    d_mid = float(d[-2] / h1_0)
    box_exit = max(boundary_mass_fraction(abs2(s.samples), s.basis.c)
                   for s in snaps) > 1e-6
    ok = decay >= 10.0 and monotone and d_mid <= 0.05
    return ScatteringReport(
        l6_decay_factor=decay,
        d_T2_over_H1=d_t2,
        verdict="scatter_like" if ok else "not_scatter_like",
        d_mid_over_H1=d_mid,
        monotone_ok=monotone,
        box_exit_flagged=box_exit,
        window=(T1, T2),
    )


def write_scattering_json(report: ScatteringReport, path: str) -> None:
    with atomic_open(path) as fh:
        json.dump(report.to_json(), fh, indent=2)
