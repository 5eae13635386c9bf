"""Oracles that only the tests use: no command of `nls2d` reaches them."""

import numpy as np
from scipy.integrate import quad

from nls2d import galilean_boost, moments
from nls2d.ground_state import _R_FIT


def galilean_reduce(f):
    """Boost to the zero-momentum frame; returns (reduced field, xi0 = -P/M)."""
    m = moments(f)
    if m.mass <= 0.0:
        raise ValueError("cannot reduce a zero-mass field")
    xi0 = -np.array([m.px, m.py]) / m.mass
    return galilean_boost(f, xi0), xi0


def profile_mass(p) -> float:
    """2 pi int Q^2 r dr of a radial profile by adaptive quadrature, with a
    breakpoint at the K0 graft."""
    val, _ = quad(
        lambda rr: 2.0 * np.pi * rr * float(p.q_of(rr)) ** 2,
        0.0, p.r_max, points=[_R_FIT], limit=400,
        epsabs=1e-13, epsrel=1e-13,
    )
    return val
