"""Ground state of the quintic focusing NLS and data families built from it.

The standing-wave profile solves -Q + lap Q + Q^5 = 0 with Q positive,
radial, and exponentially decaying.  Two independent solvers compute it:

* a radial shooting oracle (Brent's method on Q(0) for the ODE
  Q'' + Q'/r - Q + Q^5 = 0, matching the shot to the decaying Bessel K0
  tail at r = 6 and grafting that tail there), and
* a spectral Petviashvili fixed-point iteration on the 2D grid.

The iteration runs on the grid's (n/2+1)^2 quadrant in the DCT-I basis,
and the grid's Q is that quadrant unfolded, so it is even to the bit.  Its
scalars come from `evolution.read_field`, the reading every datum's take.

Certification requires the two to agree in sup norm and the grid solution
to satisfy the ground-state integral identities (Pohozhaev relations) to
1e-6 relative.  The certified object also carries the sharp
Gagliardo-Nirenberg constant c_gn = 3 / (4 massQ^2).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .grid import (
    Field,
    SpectralGrid,
    atomic_open,
    boundary_sup,
    fold,
    multiplicity,
    parse_checkpoint,
    unfold,
    write_checkpoint,
)
from .functionals import galilean_boost
from .evolution import read_field


class CertificationError(RuntimeError):
    """A ground state failed its certification checks or cache validation."""


# The radial ODE is integrated from a small series start at r ~ 0 to avoid
# the coordinate singularity of the Q'/r term.
_R_ORIGIN = 1e-8
_R_MAX = 40.0
_R_FIT = 6.0          # where a shot is matched and grafted to the K0 tail
_Q_CHUNK = 1 << 15    # radii per q_of pass
BOUNDARY_TOL = 1e-6   # a datum's boundary sup may be at most this times its sup


def _radial_rhs(r, y):
    # Python floats: the same IEEE operations as numpy scalars, but cheaper
    q, p = y.tolist()
    return [p, -p / r + q - q**5]


def _series_start(a: float, r0: float = _R_ORIGIN) -> tuple[float, float]:
    q0 = a + (a - a**5) * r0**2 / 4.0
    p0 = (a - a**5) * r0 / 2.0
    return q0, p0


def _shoot(a: float, dense: bool):
    """The shot from Q(0) = a, integrated from _R_ORIGIN to _R_FIT."""
    from scipy.integrate import solve_ivp

    return solve_ivp(_radial_rhs, (_R_ORIGIN, _R_FIT), list(_series_start(a)),
                     rtol=1e-13, atol=1e-16, method="DOP853",
                     dense_output=dense)


def _mismatch(a: float) -> float:
    """Q'(r) K0(r) + Q(r) K1(r) at r = _R_FIT for the shot from Q(0) = a.

    This is minus the Wronskian of the shot with K0, so it vanishes exactly
    when the shot carries no growing I0 part at _R_FIT.  Unlike the ratio
    Q'/Q + K1/K0 it has no pole where a shot crosses zero.
    """
    from scipy.special import k0, k1

    q, p = _shoot(a, False).y[:, -1]
    return float(p * k0(_R_FIT) + q * k1(_R_FIT))


@dataclass
class RadialProfile:
    """Radial ground state as a cubic spline in scipy's PPoly layout (m + 1
    breakpoints x, (4, m) coefficients c), with its far-field graft."""

    x: np.ndarray
    c: np.ndarray
    q0: float          # Q(0), the shooting amplitude matched to the K0 tail
    c_tail: float      # Q(r) = c_tail * K0(r) beyond _R_FIT

    @property
    def r_max(self) -> float:
        return float(self.x[-1])

    def q_of(self, r) -> np.ndarray:
        """Evaluate Q at arbitrary radii (zero beyond the tabulated range)."""
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        flat, dest = r.reshape(-1), out.reshape(-1)
        last = self.c.shape[1] - 1  # the piece that r_max falls in
        # in chunks, so the temporaries stay small beside a 512^2 grid
        for a in range(0, flat.size, _Q_CHUNK):
            rc = np.clip(flat[a:a + _Q_CHUNK], 0.0, self.r_max)
            i = np.minimum(np.searchsorted(self.x, rc, "right") - 1, last)
            s = rc - self.x[i]
            c0, c1, c2, c3 = np.take(self.c, i, axis=1)
            # PPoly's power-sum order, not Horner's, so the bits are scipy's
            v = (0.0 + c3) + c2 * s
            z = s * s
            v = v + c1 * z
            dest[a:a + _Q_CHUNK] = v + c0 * (z * s)
        out[r > self.r_max] = 0.0
        return out


def _integrate_profile(a_star: float) -> RadialProfile:
    """Integrate the converged shot to _R_FIT, where the matching leaves it
    no growing part, graft the K0 tail there and fit the clamped spline:
    Q'(0) = 0, and the far end follows the K0 slope."""
    from scipy.interpolate import CubicSpline
    from scipy.special import k0, k1

    sol = _shoot(a_star, True)
    q_fit, p_fit = sol.y[:, -1]
    if not q_fit > 0.0 > p_fit:
        raise CertificationError(
            f"the matched shot is not positive and decreasing at r = {_R_FIT:g}")
    c_tail = float(q_fit / k0(_R_FIT))

    r_core = np.arange(0.0, _R_FIT, 1e-3)
    q_core = np.empty_like(r_core)
    q_core[0] = a_star
    q_core[1:] = sol.sol(r_core[1:])[0]
    r_tail = np.concatenate([np.arange(_R_FIT, _R_MAX, 1e-2), [_R_MAX]])
    q_tail = c_tail * k0(r_tail)
    end_slope = float(-c_tail * k1(_R_MAX))
    spline = CubicSpline(np.concatenate([r_core, r_tail]),
                         np.concatenate([q_core, q_tail]),
                         bc_type=((1, 0.0), (1, end_slope)))
    return RadialProfile(x=spline.x, c=spline.c, q0=a_star, c_tail=c_tail)


def solve_radial_shooting() -> RadialProfile:
    """Brent's method on Q(0) for the root of `_mismatch` in [1.5, 3]: the
    amplitude whose shot matches the decaying K0 tail at _R_FIT.

    It takes no tolerance: the root is found to 4 eps relative, and the
    integrator runs at rtol 1e-13.
    """
    from scipy.optimize import brentq

    try:
        a_star = brentq(_mismatch, 1.5, 3.0, xtol=1e-16, rtol=8.9e-16)
    except ValueError as exc:
        raise CertificationError(
            "tail mismatch has no sign change on [1.5, 3]") from exc
    profile = _integrate_profile(a_star)
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
    """Relative residuals of the five ground-state integral identities, in
    the order [L6 = 3M, L6 = M + grad^2, M E = M^2/2,
    ||Q|| ||grad Q|| = sqrt(2) M, 4 E = grad^2]."""
    energy = 0.5 * grad_sq - l6 / 6.0
    return np.array([
        (l6 - 3.0 * mass) / (3.0 * mass),
        (l6 - (mass + grad_sq)) / l6,
        (mass * energy - 0.5 * mass**2) / (mass * energy),
        (np.sqrt(mass * grad_sq) - np.sqrt(2.0) * mass) / (np.sqrt(2.0) * mass),
        (4.0 * energy - grad_sq) / grad_sq,
    ])


def _certify(f: Field, profile: RadialProfile, s_final: float) -> GroundState:
    """The ground state of a grid solution, certified against the oracle.

    Certified when the five identity residuals are within 1e-6 relative and
    the real part of the field is within 1e-5 of the radial profile in sup
    norm.  Both read f's samples and moments by `read_field`, as a datum's are.
    """
    basis, v, _, m = read_field(f)
    residuals = _identity_residuals(m.mass, m.grad_sq, m.l6_6)
    # R is even, so q_of at its samples gives every grid point's bits
    sup_err = float(np.max(np.abs(v.real - profile.q_of(fold(f.grid.R, basis.c)))))
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
        sup_err_vs_oracle=sup_err,
        s_final=s_final,
    )


def solve_petviashvili(
    grid: SpectralGrid,
    tol: float = 1e-10,
    max_iter: int = 500,
    profile: RadialProfile | None = None,
) -> GroundState:
    """Spectral fixed-point iteration for the ground state on a grid.

    Iterates uh <- S^gamma * (u^5)^hat / (1 + k^2) with the stabilizing
    factor S = <(1+k^2) uh, uh> / <(u^5)^hat, uh> and gamma = 5/4, from the
    shooting profile sampled on the grid's quadrant, in its DCT-I basis,
    where a sum counts each coefficient `multiplicity` times per axis, as
    the full spectrum does.  Converges when the relative L2 residual of
    -Q + lap Q + Q^5 drops below tol.  An iteration costs 3 DCT-I transforms
    at (n/2+1)^2: the residual's (u^5)^hat is the next iteration's.  Q is
    the quadrant unfolded, even to the bit by construction, and is
    certified on every grid sample against the shooting oracle and the
    integral identities.
    """
    if profile is None:
        profile = solve_radial_shooting()
    gamma = 1.25
    m = multiplicity(grid.n)
    k = grid.k1d[:len(m)]
    one_plus_k2 = 1.0 + k[:, None] ** 2 + k**2
    weight = np.outer(m, m)
    u = profile.q_of(fold(grid.R, (0, 0)))
    res = np.inf
    nlh = fft.dctn(u**5, type=1)
    for _ in range(max_iter):
        uh = fft.dctn(u, type=1)
        num = np.sum(weight * one_plus_k2 * uh**2)
        den = np.sum(weight * nlh * uh)
        if den <= 0.0 or np.max(np.abs(u)) < 1e-2:
            raise CertificationError("iteration collapsed toward zero")
        S = num / den
        uh_new = S**gamma * nlh / one_plus_k2
        u = fft.idctn(uh_new, type=1)
        nlh = fft.dctn(u**5, type=1)
        res = np.sqrt(np.sum(weight * (nlh - one_plus_k2 * uh_new) ** 2)
                      / np.sum(weight * uh_new**2))
        if res <= tol:
            break
    else:
        raise CertificationError(
            f"no convergence in {max_iter} iterations (residual {res:.3e})"
        )
    f = Field(grid, unfold(u, (0, 0)).astype(np.complex128), 0.0)
    return _certify(f, profile, float(S))


def gn_inequality_check(f: Field, gs: GroundState) -> float:
    """Slack of the sharp Gagliardo-Nirenberg inequality for this field.

    Returns c_gn * ||u||^2 ||grad u||^4 - ||u||_L6^6, which is >= 0 for every
    field and = 0 exactly at the ground state.
    """
    if not gs.certified:
        raise ValueError("ground state is not certified")
    m = read_field(f)[-1]
    return float(gs.c_gn * m.mass * m.grad_sq ** 2 - m.l6_6)


def make_initial_data(
    family: str,
    params: dict,
    grid: SpectralGrid,
    gs: GroundState | None = None,
    seed: int | None = None,
) -> Field:
    """Build an initial-data field from one of the named families.

    Families and their parameters:
      scaled_q     {"lam": l}            l * Q(l x); mass-invariant line datum
      gaussian     {"amplitude": A, "width": w}
      perturbed_q  {"lam": l, "eps": e}  scaled_q times a radial bump 1 + e*exp(-(r-rc)^2)
      boosted      {"inner": {...}, "xi": [x, y]}  inner family times exp(i xi.x)

    The result must decay at the box boundary (sup over the outer ring below
    BOUNDARY_TOL relative to the field's own sup); otherwise the box is too
    small for the datum and a ValueError is raised, as for a missing parameter.
    """
    def need(key):
        if key not in params:
            raise ValueError(f"family {family!r} needs the parameter {key!r}")
        return params[key]
    if family == "boosted":
        inner = need("inner")
        if not isinstance(inner, dict):
            raise ValueError(f"family {family!r} needs the parameter 'inner' "
                             f"as an object, got {inner!r}")
        sub = make_initial_data(inner.get("family"), inner.get("params", {}),
                                grid, gs, seed=seed)
        return galilean_boost(sub, np.asarray(need("xi"), dtype=float))

    r = fold(grid.R, (0, 0))  # R is even: build on its quadrant
    if family in ("scaled_q", "perturbed_q"):
        if gs is None:
            raise ValueError(f"{family} needs a ground state")
        lam = float(need("lam"))
        vals = lam * gs.radial_profile.q_of(lam * r)
    if family == "perturbed_q":
        eps = float(params.get("eps", 1e-3))
        rc = 1.0 if seed is None else float(
            np.random.default_rng(seed).uniform(0.5, 1.5))
        vals = vals * (1.0 + eps * np.exp(-((r - rc) ** 2)))
    elif family == "gaussian":
        amp = float(need("amplitude"))
        width = float(params.get("width", 1.0))
        vals = amp * np.exp(-r**2 / (2.0 * width**2))
    elif family != "scaled_q":
        raise ValueError(f"unknown initial-data family {family!r}")

    f = Field(grid, unfold(vals, (0, 0)))
    sup = float(np.max(np.abs(vals)))
    if sup == 0.0 or boundary_sup(f) > BOUNDARY_TOL * sup:
        raise ValueError(
            f"box L={grid.L:g} too small for family {family!r}: boundary level "
            f"{boundary_sup(f) / max(sup, 1e-300):.2e} exceeds {BOUNDARY_TOL:g}"
        )
    return f


def save_ground_state(gs: GroundState, path: str) -> None:
    """Write the cache: field checkpoint, the profile's spline table at
    <path>.profile, and a JSON sidecar with both hashes at <path>.json."""
    digest = write_checkpoint(gs.field, path)
    p = gs.radial_profile
    table = np.concatenate([p.x, p.c.ravel()]).astype("<f8").tobytes()
    with atomic_open(path + ".profile", "wb") as fh:
        fh.write(table)
    sidecar = {
        "massQ": gs.massQ,
        "gradQ_sq": gs.gradQ_sq,
        "l6Q_6": gs.l6Q_6,
        "c_gn": gs.c_gn,
        "residuals": [float(v) for v in gs.residuals],
        "certified": gs.certified,
        "n": gs.field.grid.n,
        "L": gs.field.grid.L,
        "checksum": digest,
        "profile_checksum": hashlib.sha256(table).hexdigest(),
        "sup_err_vs_oracle": gs.sup_err_vs_oracle,
        "s_final": gs.s_final,
        "shooting": {
            "q0": p.q0,
            "c_tail": p.c_tail,
        },
    }
    with atomic_open(path + ".json") as fh:
        json.dump(sidecar, fh, indent=2)


def _read_verified(path: str, digest: str | None, what: str) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != digest:
        raise CertificationError(f"cache hash mismatch: {what} does not match sidecar")
    return raw


def load_ground_state(path: str) -> GroundState:
    """Load a cached ground state, verifying both hashes in the sidecar.

    Each file is read once, and what is parsed is the bytes that were
    hashed.  The radial profile is the stored spline, read back bit for
    bit, so no ODE is solved.  All norms are recomputed from the loaded
    field and certified against that profile again, so a fresh solve and a
    reload agree bit for bit.
    """
    sidecar_path = path + ".json"
    if not os.path.exists(sidecar_path):
        raise CertificationError(f"missing cache sidecar {sidecar_path}")
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    checkpoint = _read_verified(path, sidecar.get("checksum"), "checkpoint")
    if not os.path.exists(path + ".profile"):
        raise CertificationError(f"cache {path} has no profile table; "
                                 "rebuild it with `nls2d ground`")
    table = np.frombuffer(_read_verified(path + ".profile", sidecar.get(
        "profile_checksum"), "profile table"), dtype="<f8")
    m = (table.size - 1) // 5
    profile = RadialProfile(table[: m + 1], table[m + 1:].reshape(4, m), *(
        float(sidecar["shooting"][k]) for k in ("q0", "c_tail")))
    return _certify(parse_checkpoint(checkpoint), profile,
                    float(sidecar["s_final"]))
