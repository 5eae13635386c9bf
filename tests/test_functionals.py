"""Conserved and renormalized quantities, boosts, and the window check."""

import numpy as np
import pytest

from nls2d import (
    Field,
    RenormalizedSet,
    SpectralGrid,
    conserved,
    galilean_boost,
    make_initial_data,
    moments,
    renormalized,
    window_check,
)
from oracles import galilean_reduce


def gaussian(grid, amp=1.0, width=1.0):
    vals = amp * np.exp(-grid.R**2 / (2.0 * width**2))
    return Field(grid, vals.astype(np.complex128))


def test_conserved_gaussian_oracles():
    g = SpectralGrid(256, 32.0)
    amp, width = 0.8, 1.1
    cs = conserved(gaussian(g, amp, width))
    mass = np.pi * amp**2 * width**2
    energy = 0.5 * np.pi * amp**2 - (np.pi / 3.0) * amp**6 * width**2 / 6.0
    assert cs.mass == pytest.approx(mass, rel=1e-12)
    assert cs.energy == pytest.approx(energy, rel=1e-12)
    assert np.max(np.abs(cs.momentum)) < 1e-14


def test_boost_adds_momentum_exactly():
    g = SpectralGrid(128, 16.0)
    k0 = 2.0 * np.pi / g.L
    xi = np.array([2.0 * k0, -k0])
    f = gaussian(g, 0.9, 1.0)
    cs0 = conserved(f)
    cs1 = conserved(galilean_boost(f, xi))
    assert cs1.mass == pytest.approx(cs0.mass, rel=1e-14)
    assert cs1.momentum[0] == pytest.approx(xi[0] * cs0.mass, rel=1e-12)
    assert cs1.momentum[1] == pytest.approx(xi[1] * cs0.mass, rel=1e-12)
    # kinetic energy of the frame: E -> E + |xi|^2 M / 2
    assert cs1.energy - cs0.energy == pytest.approx(
        0.5 * (xi @ xi) * cs0.mass, rel=1e-12)


def test_boost_rejects_off_lattice():
    g = SpectralGrid(128, 16.0)
    f = gaussian(g)
    with pytest.raises(ValueError, match="multiple"):
        galilean_boost(f, (0.5, 0.0))


def test_boost_rejects_near_nyquist():
    g = SpectralGrid(64, 16.0)
    f = gaussian(g)
    xi = np.array([16.0 * 2.0 * np.pi / g.L, 0.0])  # exactly half Nyquist
    with pytest.raises(ValueError, match="Nyquist"):
        galilean_boost(f, xi)


def test_boost_rejects_bad_shape():
    g = SpectralGrid(64, 16.0)
    with pytest.raises(ValueError):
        galilean_boost(gaussian(g), (1.0, 2.0, 3.0))


def test_reduce_zeroes_momentum():
    g = SpectralGrid(128, 16.0)
    k0 = 2.0 * np.pi / g.L
    xi = np.array([3.0 * k0, 0.0])
    boosted = galilean_boost(gaussian(g), xi)
    reduced, xi0 = galilean_reduce(boosted)
    assert np.max(np.abs(xi0 + xi)) < 1e-12
    cs = conserved(reduced)
    assert np.max(np.abs(cs.momentum)) < 1e-12 * cs.mass


def test_renormalized_at_ground_state(gs_cert):
    r = renormalized(moments(gs_cert.field), gs_cert)
    assert r.G == pytest.approx(1.0, rel=1e-13)
    assert r.ME == pytest.approx(1.0, rel=1e-13)
    assert abs(r.Pn) < 1e-14


def test_renormalized_scaling_line(gs_cert, grid_cert):
    # lam * Q(lam x) keeps the mass and scales the gradient by lam^2,
    # so G = lam and ME = 2 lam^2 - lam^4
    lam = 0.9
    f = make_initial_data("scaled_q", {"lam": lam}, grid_cert, gs=gs_cert)
    r = renormalized(moments(f), gs_cert)
    assert r.G == pytest.approx(lam, rel=1e-7)
    assert r.ME == pytest.approx(2.0 * lam**2 - lam**4, rel=1e-6)
    cs = conserved(f)
    assert cs.mass == pytest.approx(gs_cert.massQ, rel=1e-7)


def test_boost_me_identity(gs_cert):
    # mass-energy picks up exactly 2 Pn^2 under a boost
    g = SpectralGrid(128, 8.0 * np.pi)
    k0 = 2.0 * np.pi / g.L
    f = gaussian(g, 0.6, 1.0)
    r0 = renormalized(moments(f), gs_cert)
    for xi in ((2.0 * k0, 0.0), (0.0, 4.0 * k0)):
        r1 = renormalized(moments(galilean_boost(f, np.asarray(xi))), gs_cert)
        assert r1.ME - 2.0 * r1.Pn**2 == pytest.approx(r0.ME, abs=1e-9)
        assert r1.G**2 - r1.Pn**2 == pytest.approx(r0.G**2, abs=1e-9)


def test_window_check_requires_reduced():
    r = RenormalizedSet(G=1.0, Pn=0.5, ME=0.5)
    with pytest.raises(ValueError, match="reduced"):
        window_check(r)


def test_window_check_statuses():
    # the admissible window for G = 0.5 is 0.4375 <= ME <= 0.5
    inside = RenormalizedSet(G=0.5, Pn=0.0, ME=0.45)
    assert window_check(inside).status == "inside"
    low = RenormalizedSet(G=0.5, Pn=0.0, ME=0.4)
    rep = window_check(low)
    assert rep.status == "violates_lower"
    assert rep.lower_margin == pytest.approx(0.4 - (0.5 - 0.0625))
    high = RenormalizedSet(G=0.5, Pn=0.0, ME=0.6)
    assert window_check(high).status == "violates_upper"
    # tolerance turns a hairline violation into "inside"
    hairline = RenormalizedSet(G=0.5, Pn=0.0, ME=0.4375 - 1e-9)
    assert window_check(hairline, tol=1e-8).status == "inside"


def test_window_check_on_scaling_line(gs_cert, grid_cert):
    # the scaling line sits exactly on the lower boundary of the window;
    # quadrature noise must not push it outside at a reasonable tolerance
    f = make_initial_data("scaled_q", {"lam": 1.1}, grid_cert, gs=gs_cert)
    r = renormalized(moments(f), gs_cert)
    rep = window_check(r, tol=1e-4)
    assert rep.status == "inside"
    assert abs(rep.lower_margin) < 1e-5
