"""Ground state of the quintic focusing NLS and data families built from it.

The standing-wave profile solves -Q + lap Q + Q^5 = 0 with Q positive,
radial, and exponentially decaying.  Two independent solvers compute it:

* a radial shooting oracle (bisection on Q(0) for the ODE
  Q'' + Q'/r - Q + Q^5 = 0, with a Bessel K0 far-field graft), and
* a spectral Petviashvili fixed-point iteration on the 2D grid.

Certification requires the two to agree in sup norm and the grid solution
to satisfy the ground-state integral identities (Pohozhaev relations) to
1e-6 relative.  The certified object also carries the sharp
Gagliardo-Nirenberg constant c_gn = 3 / (4 massQ^2).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.special import k0, k1

from .grid import (
    Field,
    SpectralGrid,
    atomic_open,
    boundary_sup,
    moments,
    read_checkpoint,
    write_checkpoint,
)
from .functionals import galilean_boost


class CertificationError(RuntimeError):
    """A ground state failed its certification checks or cache validation."""


# The radial ODE is integrated from a small series start at r ~ 0 to avoid
# the coordinate singularity of the Q'/r term.
_R_ORIGIN = 1e-8
_TAIL_THRESHOLD = 1e-6   # switch to the K0 asymptotic once Q drops below this
_R_MAX = 40.0


def _radial_rhs(r, y):
    q, p = y
    return [p, -p / r + q - q**5]


def _series_start(a: float, r0: float = _R_ORIGIN) -> tuple[float, float]:
    q0 = a + (a - a**5) * r0**2 / 4.0
    p0 = (a - a**5) * r0 / 2.0
    return q0, p0


def _classify_shot(a: float, rmax: float = 18.0) -> str:
    """'high' if the shot crosses zero (Q(0) too large), else 'low'.

    Below the critical amplitude the trajectory turns upward and settles
    toward the false vacuum at Q = 1 without ever crossing zero; above it
    the trajectory overshoots and crosses.
    """
    q0, p0 = _series_start(a)
    hit_zero = lambda r, y: y[0]
    hit_zero.terminal = True
    hit_zero.direction = -1
    turn_up = lambda r, y: y[1]
    turn_up.terminal = True
    turn_up.direction = 1
    sol = solve_ivp(
        _radial_rhs, (_R_ORIGIN, rmax), [q0, p0],
        rtol=1e-13, atol=1e-16, method="DOP853", events=[hit_zero, turn_up],
    )
    return "high" if sol.t_events[0].size else "low"


@dataclass
class RadialProfile:
    """Tabulated radial ground state with its far-field graft parameters."""

    r: np.ndarray
    q: np.ndarray
    q0: float          # Q(0), the bisected shooting amplitude
    c_tail: float      # Q(r) ~ c_tail * K0(r) beyond r_switch
    r_switch: float
    r_max: float
    tol: float

    def __post_init__(self):
        # clamped-end spline: Q'(0) = 0, far end follows the K0 slope
        end_slope = float(-self.c_tail * k1(self.r_max))
        self._spline = CubicSpline(
            self.r, self.q, bc_type=((1, 0.0), (1, end_slope))
        )

    def q_of(self, r) -> np.ndarray:
        """Evaluate Q at arbitrary radii (zero beyond the tabulated range)."""
        r = np.asarray(r, dtype=float)
        vals = self._spline(np.clip(r, 0.0, self.r_max))
        return np.where(r > self.r_max, 0.0, vals)

    def mass(self) -> float:
        """2 pi int Q^2 r dr by adaptive quadrature on the profile."""
        val, _ = quad(
            lambda rr: 2.0 * np.pi * rr * float(self._spline(rr)) ** 2,
            0.0, self.r_max, points=[self.r_switch], limit=400,
            epsabs=1e-13, epsrel=1e-13,
        )
        return val


def _integrate_profile(a_star: float, tol: float) -> RadialProfile:
    """Integrate the converged shot outward and graft the K0 tail."""
    q0, p0 = _series_start(a_star)
    small = lambda r, y: y[0] - _TAIL_THRESHOLD
    small.terminal = True
    small.direction = -1
    sol = solve_ivp(
        _radial_rhs, (_R_ORIGIN, 30.0), [q0, p0],
        rtol=1e-13, atol=1e-16, method="DOP853",
        events=[small], dense_output=True,
    )
    if not sol.t_events[0].size:
        raise CertificationError("shot never reached the far-field threshold")
    r_switch = float(sol.t_events[0][0])
    q_switch = float(sol.sol(r_switch)[0])
    c_tail = q_switch / float(k0(r_switch))

    r_core = np.arange(0.0, r_switch, 1e-3)
    q_core = np.empty_like(r_core)
    q_core[0] = a_star
    q_core[1:] = sol.sol(r_core[1:])[0]
    r_tail = np.concatenate([np.arange(r_switch, _R_MAX, 1e-2), [_R_MAX]])
    q_tail = c_tail * k0(r_tail)
    return RadialProfile(
        r=np.concatenate([r_core, r_tail]),
        q=np.concatenate([q_core, q_tail]),
        q0=a_star, c_tail=c_tail, r_switch=r_switch, r_max=_R_MAX, tol=tol,
    )


def solve_radial_shooting(tol: float = 1e-12) -> RadialProfile:
    """Bisection on Q(0) between a turning-up and a zero-crossing shot.

    tol bounds the requested accuracy class (the integrator itself runs at
    rtol 1e-13); bisection proceeds to floating-point exhaustion either way.
    """
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol:g}")
    lo, hi = 1.5, 3.0
    if _classify_shot(lo) != "low":
        raise CertificationError("bisection bracket not found at the low end")
    scans = 0
    while _classify_shot(hi) == "low":
        hi *= 1.5
        scans += 1
        if scans > 8:
            raise CertificationError("bisection bracket not found at the high end")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _classify_shot(mid) == "high":
            hi = mid
        else:
            lo = mid
    profile = _integrate_profile(0.5 * (lo + hi), tol)
    if abs(profile.q_of(profile.r_max)) > 1e-10:
        raise CertificationError("profile does not decay at r_max")
    return profile


@dataclass
class GroundState:
    """Certified ground state: radial profile, grid sampling, and norms."""

    radial_profile: RadialProfile
    field: Field
    massQ: float
    gradQ_sq: float
    l6Q_6: float
    c_gn: float
    certified: bool
    residuals: np.ndarray    # the five identity residuals, relative
    method: str
    tol: float
    sup_err_vs_oracle: float
    s_final: float           # Petviashvili stabilizing factor at the last iterate

    @property
    def energyQ(self) -> float:
        return 0.5 * self.gradQ_sq - self.l6Q_6 / 6.0

    @property
    def qq_gq(self) -> float:
        """The threshold normalizer ||Q|| ||grad Q||."""
        return float(np.sqrt(self.massQ * self.gradQ_sq))


def _identity_residuals(mass: float, grad_sq: float, l6: float) -> np.ndarray:
    """Relative residuals of the five ground-state integral identities."""
    energy = 0.5 * grad_sq - l6 / 6.0
    return np.array([
        (l6 - 3.0 * mass) / (3.0 * mass),
        (l6 - (mass + grad_sq)) / l6,
        (mass * energy - 0.5 * mass**2) / (mass * energy),
        (np.sqrt(mass * grad_sq) - np.sqrt(2.0) * mass) / (np.sqrt(2.0) * mass),
        (4.0 * energy - grad_sq) / grad_sq,
    ])


def pohozhaev_check(gs: GroundState) -> np.ndarray:
    """Relative residuals of the mass/gradient/L6 identities of the ground state.

    Order: [L6 = 3M, L6 = M + grad^2, M E = M^2/2,
            ||Q|| ||grad Q|| = sqrt(2) M, 4 E = grad^2].
    """
    return _identity_residuals(gs.massQ, gs.gradQ_sq, gs.l6Q_6)


def _certify(f: Field, profile: RadialProfile, method: str, tol: float,
             s_final: float) -> GroundState:
    """The ground state of a grid solution, certified against the oracle.

    Certified when the five identity residuals are within 1e-6 relative and
    the real part of the field is within 1e-5 of the radial profile in sup
    norm.
    """
    m = moments(f)
    residuals = _identity_residuals(m.mass, m.grad_sq, m.l6_6)
    sup_err = float(np.max(np.abs(f.values.real - profile.q_of(f.grid.R))))
    certified = bool(np.all(np.abs(residuals) <= 1e-6) and sup_err <= 1e-5)
    return GroundState(
        radial_profile=profile,
        field=f,
        massQ=m.mass,
        gradQ_sq=m.grad_sq,
        l6Q_6=m.l6_6,
        c_gn=3.0 / (4.0 * m.mass**2),
        certified=certified,
        residuals=residuals,
        method=method,
        tol=tol,
        sup_err_vs_oracle=sup_err,
        s_final=s_final,
    )


def solve_petviashvili(
    grid: SpectralGrid,
    tol: float = 1e-10,
    max_iter: int = 500,
    profile: RadialProfile | None = None,
    shooting_tol: float = 1e-12,
) -> GroundState:
    """Spectral fixed-point iteration for the ground state on a grid.

    Iterates uh <- S^gamma * (u^5)^hat / (1 + k^2) with the stabilizing
    factor S = <(1+k^2) uh, uh> / <(u^5)^hat, uh> and gamma = 5/4, from a
    positive Gaussian seed.  Converges when the relative L2 residual of
    -Q + lap Q + Q^5 drops below tol.  The result is certified against the
    shooting oracle and the integral identities.
    """
    if profile is None:
        profile = solve_radial_shooting(shooting_tol)
    gamma = 1.25
    u = 2.2 * np.exp(-grid.R**2 / 2.0)
    one_plus_k2 = 1.0 + grid.K2
    res = np.inf
    S = np.nan
    for _ in range(max_iter):
        uh = np.fft.fft2(u)
        nlh = np.fft.fft2(u**5)
        num = np.sum(one_plus_k2 * np.abs(uh) ** 2)
        den = np.real(np.sum(np.conj(nlh) * uh))
        if den <= 0.0 or np.max(np.abs(u)) < 1e-2:
            raise CertificationError("iteration collapsed toward zero (seed too small)")
        S = num / den
        uh_new = S**gamma * nlh / one_plus_k2
        u = np.real(np.fft.ifft2(uh_new))
        res_h = -one_plus_k2 * uh_new + np.fft.fft2(u**5)
        res = np.linalg.norm(res_h) / np.linalg.norm(uh_new)
        if res <= tol:
            break
    else:
        raise CertificationError(
            f"no convergence in {max_iter} iterations (residual {res:.3e})"
        )

    f = Field(grid, u.astype(np.complex128), 0.0)
    return _certify(f, profile, "petviashvili", tol, float(S))


def gn_inequality_check(f: Field, gs: GroundState) -> float:
    """Slack of the sharp Gagliardo-Nirenberg inequality for this field.

    Returns c_gn * ||u||^2 ||grad u||^4 - ||u||_L6^6, which is >= 0 for every
    field and = 0 exactly at the ground state.
    """
    if not gs.certified:
        raise ValueError("ground state is not certified")
    m = moments(f)
    return float(gs.c_gn * m.mass * m.grad_sq ** 2 - m.l6_6)


def make_initial_data(
    family: str,
    params: dict,
    grid: SpectralGrid,
    gs: GroundState | None = None,
    seed: int | None = None,
    boundary_tol: float = 1e-6,
) -> Field:
    """Build an initial-data field from one of the named families.

    Families and their parameters:
      scaled_q     {"lam": l}            l * Q(l x); mass-invariant line datum
      gaussian     {"amplitude": A, "width": w}
      perturbed_q  {"lam": l, "eps": e}  scaled_q times a radial bump 1 + e*exp(-(r-rc)^2)
      boosted      {"inner": {...}, "xi": [x, y]}  inner family times exp(i xi.x)

    The result must decay at the box boundary (sup over the outer ring below
    boundary_tol relative to the field's own sup); otherwise the box is too
    small for the requested datum and a ValueError is raised.
    """
    if family == "boosted":
        inner = params["inner"]
        sub = make_initial_data(
            inner["family"], inner.get("params", {}), grid, gs,
            seed=seed, boundary_tol=boundary_tol,
        )
        return galilean_boost(sub, np.asarray(params["xi"], dtype=float))

    if family == "scaled_q":
        if gs is None:
            raise ValueError("scaled_q needs a ground state")
        lam = float(params["lam"])
        vals = lam * gs.radial_profile.q_of(lam * grid.R)
    elif family == "perturbed_q":
        if gs is None:
            raise ValueError("perturbed_q needs a ground state")
        lam = float(params["lam"])
        eps = float(params.get("eps", 1e-3))
        rc = 1.0
        if seed is not None:
            rc = float(np.random.default_rng(seed).uniform(0.5, 1.5))
        base = lam * gs.radial_profile.q_of(lam * grid.R)
        vals = base * (1.0 + eps * np.exp(-((grid.R - rc) ** 2)))
    elif family == "gaussian":
        amp = float(params["amplitude"])
        width = float(params.get("width", 1.0))
        vals = amp * np.exp(-grid.R**2 / (2.0 * width**2))
    else:
        raise ValueError(f"unknown initial-data family {family!r}")

    f = Field(grid, vals.astype(np.complex128), 0.0)
    sup = float(np.max(np.abs(vals)))
    if sup == 0.0 or boundary_sup(f) > boundary_tol * sup:
        raise ValueError(
            f"box L={grid.L:g} too small for family {family!r}: boundary level "
            f"{boundary_sup(f) / max(sup, 1e-300):.2e} exceeds {boundary_tol:g}"
        )
    return f


def save_ground_state(gs: GroundState, path: str) -> None:
    """Write the cache: field checkpoint plus a JSON sidecar at <path>.json."""
    write_checkpoint(gs.field, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    sidecar = {
        "massQ": gs.massQ,
        "gradQ_sq": gs.gradQ_sq,
        "l6Q_6": gs.l6Q_6,
        "c_gn": gs.c_gn,
        "residuals": [float(v) for v in gs.residuals],
        "method": gs.method,
        "tol": gs.tol,
        "certified": gs.certified,
        "n": gs.field.grid.n,
        "L": gs.field.grid.L,
        "checksum": digest,
        "sup_err_vs_oracle": gs.sup_err_vs_oracle,
        "s_final": gs.s_final,
        "shooting": {
            "q0": gs.radial_profile.q0,
            "c_tail": gs.radial_profile.c_tail,
            "r_switch": gs.radial_profile.r_switch,
            "tol": gs.radial_profile.tol,
        },
    }
    with atomic_open(path + ".json") as fh:
        json.dump(sidecar, fh, indent=2)


def load_ground_state(path: str, grid: SpectralGrid | None = None) -> GroundState:
    """Load a cached ground state, verifying the sidecar checksum.

    The radial profile is rebuilt deterministically from the stored shooting
    amplitude (no bisection), and all norms are recomputed from the loaded
    field so a fresh solve and a reload agree bit for bit.
    """
    sidecar_path = path + ".json"
    if not os.path.exists(sidecar_path):
        raise CertificationError(f"missing cache sidecar {sidecar_path}")
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest != sidecar.get("checksum"):
        raise CertificationError("cache hash mismatch: checkpoint does not match sidecar")
    f = read_checkpoint(path, grid)
    profile = _integrate_profile(float(sidecar["shooting"]["q0"]),
                                 float(sidecar["shooting"]["tol"]))
    return _certify(f, profile, str(sidecar.get("method", "cache")),
                    float(sidecar.get("tol", np.nan)),
                    float(sidecar.get("s_final", np.nan)))
