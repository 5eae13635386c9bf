"""Conserved quantities, renormalized threshold quantities, and boosts.

Mass M = int |u|^2, energy E = (1/2) int |grad u|^2 - (1/6) int |u|^6, and
momentum P = Im int conj(u) grad u are the conserved integrals of the flow.
Against a certified ground state Q they renormalize to

    G  = ||u|| ||grad u|| / (||Q|| ||grad Q||)
    Pn = |P[u]| / (||Q|| ||grad Q||)
    ME = M[u] E[u] / (M[Q] E[Q])

G = 1 marks the dichotomy threshold and ME < 1 is the region where the
scatter / blow-up classification applies.  Pn is normalized so that reducing
momentum by a Galilean boost shifts ME by exactly -2*Pn^2 and leaves
G^2 - Pn^2 unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Moments, moments


@dataclass(frozen=True)
class ConservedSet:
    mass: float
    energy: float
    momentum: np.ndarray  # 2-vector

    def __post_init__(self):
        m = np.asarray(self.momentum, dtype=float)
        if m.shape != (2,):
            raise ValueError("momentum must be a 2-vector")
        object.__setattr__(self, "momentum", m)
        if not (np.isfinite(self.mass) and np.isfinite(self.energy) and np.all(np.isfinite(m))):
            raise ValueError("non-finite conserved quantities")
        if self.mass < 0.0:
            raise ValueError("negative mass")


@dataclass(frozen=True)
class RenormalizedSet:
    G: float
    Pn: float          # Euclidean magnitude of the renormalized momentum
    ME: float


def conserved(f: Field) -> ConservedSet:
    """Mass, energy, and momentum of a field (see `moments`)."""
    m = moments(f)
    return ConservedSet(mass=m.mass, energy=m.energy, momentum=np.array([m.px, m.py]))


def renormalized(m: Moments, gs) -> RenormalizedSet:
    """Renormalized gradient, momentum, and mass-energy against a ground state.

    Takes the moments of the field, so a caller that also needs its mass or
    energy reads the field once.
    """
    if not gs.certified:
        raise ValueError("ground state is not certified")
    qq_gq = gs.qq_gq  # ||Q|| ||grad Q||
    G = float(np.sqrt(m.mass * m.grad_sq) / qq_gq)
    Pn = float(np.hypot(m.px / qq_gq, m.py / qq_gq))
    ME = m.mass * m.energy / (gs.massQ * gs.energyQ)
    return RenormalizedSet(G=G, Pn=Pn, ME=float(ME))


def galilean_boost(f: Field, xi) -> Field:
    """Multiply by exp(i xi.x), the t = 0 slice of the Galilean transform.

    Shifts the spectrum by xi, so |xi| must stay well below Nyquist for the
    boosted field to remain resolved.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise ValueError("xi must be a 2-vector")
    half_nyq = 0.5 * f.grid.k_nyquist
    if np.max(np.abs(xi)) >= half_nyq:
        raise ValueError(
            f"|xi| = {np.max(np.abs(xi)):g} reaches half the Nyquist wavenumber {half_nyq:g}"
        )
    # the phase e^{i xi.x} is periodic only for xi on the dual lattice;
    # off-lattice boosts would corrupt every spectral quantity via the seam
    k0 = 2.0 * np.pi / f.grid.L
    offset = np.abs(xi - np.round(xi / k0) * k0)
    if np.max(offset) > 1e-9:
        raise ValueError(
            f"xi = {tuple(xi)} is not a multiple of 2 pi / L = {k0:g}; "
            "boosts must respect the periodic box"
        )
    phase = np.exp(1j * (xi[0] * f.grid.X + xi[1] * f.grid.Y))
    return Field(f.grid, f.values * phase, f.t)


@dataclass(frozen=True)
class WindowReport:
    status: str                # inside | violates_lower | violates_upper
    lower_margin: float        # ME - (2 G^2 - G^4)
    upper_margin: float        # 2 G^2 - ME


def window_check(r: RenormalizedSet, tol: float = 1e-8) -> WindowReport:
    """Check the admissible two-sided window 2G^2 - G^4 <= ME <= 2G^2.

    Meant for zero-momentum states (reduce first).  The tolerance is
    relative to the size of the quantities involved.
    """
    if abs(r.Pn) > 1e-6 * max(1.0, r.G):
        raise ValueError(f"window check needs a reduced field, Pn = {r.Pn:g}")
    g2 = r.G**2
    lower = r.ME - (2.0 * g2 - g2**2)
    upper = 2.0 * g2 - r.ME
    scale = max(1.0, abs(r.ME), 2.0 * g2)
    if lower < -tol * scale:
        status = "violates_lower"
    elif upper < -tol * scale:
        status = "violates_upper"
    else:
        status = "inside"
    return WindowReport(status=status, lower_margin=lower, upper_margin=upper)
