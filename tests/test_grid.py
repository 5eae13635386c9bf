"""Grid, norms, and checkpoint tests.

Oracle values for the width-w Gaussian A*exp(-r^2/(2 w^2)) on the plane:
    mass            pi A^2 w^2
    grad norm sq    pi A^2
    L6 norm^6       (pi/3) A^6 w^2
    variance        pi A^2 w^4
These hold on the periodic box to spectral accuracy because the datum and
its transform both decay far below roundoff before the boundary/Nyquist.
"""

import pickle

import numpy as np
import pytest
from scipy.fft import dctn

from nls2d import (
    Field,
    SpectralGrid,
    boundary_mass_fraction,
    boundary_sup,
    moments,
    read_checkpoint,
    write_checkpoint,
)
from nls2d.grid import (abs2, fold, multiplicity, parse_checkpoint, unfold,
                        weighted_moments)


def gaussian(grid, amp=1.0, width=1.0):
    vals = amp * np.exp(-grid.R**2 / (2.0 * width**2))
    return Field(grid, vals.astype(np.complex128))


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        SpectralGrid(100, 32.0)
    with pytest.raises(ValueError):
        SpectralGrid(0, 32.0)
    with pytest.raises(ValueError):
        SpectralGrid(128, -1.0)


def test_grid_layout():
    g = SpectralGrid(128, 32.0)
    assert g.dx == pytest.approx(0.25)
    assert g.x1d[0] == pytest.approx(-16.0)
    assert g.x1d[-1] == pytest.approx(16.0 - 0.25)
    # wavenumbers are the FFT duals of the sample points
    assert g.k1d[0] == 0.0
    assert g.k1d[1] == pytest.approx(2.0 * np.pi / 32.0)
    assert np.max(g.K2) == pytest.approx(2.0 * (np.pi / 0.25) ** 2)
    # coordinates are broadcast axes; only R, K2 and tail_mask are dense
    assert g.X.shape == (128, 1) and g.Y.shape == (1, 128)
    dense = {name for name, v in vars(g).items()
             if isinstance(v, np.ndarray) and v.shape == (128, 128)}
    assert dense == {"R", "K2", "tail_mask"}


def test_grid_pickles_as_n_and_l(gs_cert):
    # a pickle carries n and L and the arrays are rebuilt from them, so a
    # sweep row's ground state crosses to a worker without the grid's arrays
    g = SpectralGrid(128, 32.0)
    back = pickle.loads(pickle.dumps(g))
    assert back == g
    for name in ("R", "k1d", "ikx", "tail_mask"):
        assert np.array_equal(getattr(back, name), getattr(g, name))
    assert len(pickle.dumps(g)) < 200
    # Q's 4 MB of samples, and not the 512/48 grid's 4.3 MB of arrays
    assert len(pickle.dumps(gs_cert)) < 5e6


def test_quadrant_layout():
    # an even field is its quadrant unfolded, about the origin or about any
    # grid point c it is rolled to, and the quadrant's indices stand for
    # all n of the grid's per axis
    g = SpectralGrid(64, 16.0)
    v = np.exp(-g.R**2) * (1.0 + g.X**2 * g.Y**4)
    assert np.array_equal(fold(v, (0, 0)), v[32::-1, 32::-1])
    for c in ((0, 0), (5, 60), (32, 1)):
        w = np.roll(v, c, (0, 1))
        assert np.array_equal(unfold(fold(w, c), c), w)
        assert fold(w, c).shape == (33, 33)
        assert fold(w, c)[0, 0] == v[32, 32] == w[(32 + c[0]) % 64, (32 + c[1]) % 64]
    m = multiplicity(g.n)
    assert m.sum() == g.n and m[0] == m[-1] == 1.0 and set(m[1:-1]) == {2.0}


def test_field_validation():
    g = SpectralGrid(64, 16.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros((32, 32), dtype=complex))
    bad = np.zeros((64, 64), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


def test_field_takes_any_memory_layout(rng):
    g = SpectralGrid(64, 16.0)
    v = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    for view in (v.T, v[:, ::-1], np.asfortranarray(v)):
        assert np.array_equal(Field(g, view).values,
                              Field(g, np.ascontiguousarray(view)).values)


def test_constant_field_norms():
    g = SpectralGrid(64, 16.0)
    m = moments(Field(g, np.full((64, 64), 0.5 + 0.0j)))
    assert m.mass == pytest.approx(0.25 * 16.0**2, rel=1e-14)
    assert m.grad_sq == pytest.approx(0.0, abs=1e-24)


def test_single_mode_gradient():
    g = SpectralGrid(64, 16.0)
    k0 = 3 * (2.0 * np.pi / 16.0)
    m = moments(Field(g, np.exp(1j * k0 * (g.X + 0.0 * g.Y))))
    area = 16.0**2
    assert m.mass == pytest.approx(area, rel=1e-13)
    assert m.grad_sq == pytest.approx(k0**2 * area, rel=1e-13)
    # the mode travels along x: momentum k0 * area, none along y
    assert m.px == pytest.approx(k0 * area, rel=1e-13)
    assert abs(m.py) <= 1e-13 * k0 * area


def test_gaussian_norm_oracles():
    g = SpectralGrid(256, 32.0)
    amp, width = 0.7, 1.3
    m = moments(gaussian(g, amp, width))
    assert m.mass == pytest.approx(np.pi * amp**2 * width**2, rel=1e-12)
    assert m.grad_sq == pytest.approx(np.pi * amp**2, rel=1e-12)
    assert m.l6_6 == pytest.approx(np.pi / 3.0 * amp**6 * width**2, rel=1e-12)


def test_norms_grid_independent():
    fine = moments(gaussian(SpectralGrid(256, 32.0)))
    coarse = moments(gaussian(SpectralGrid(128, 32.0)))
    assert fine.mass == pytest.approx(coarse.mass, rel=1e-12)
    assert fine.grad_sq == pytest.approx(coarse.grad_sq, rel=1e-12)
    assert fine.l6_6 == pytest.approx(coarse.l6_6, rel=1e-12)


def test_moments_match_a_dense_reference():
    # moments sums the spectrum on its axes and squares with no sqrt; the
    # reference weighs every mode by the dense K2 and takes abs powers.  The
    # datum moves off centre and carries a weak mode past 2/3 Nyquist, so no
    # compared value is at roundoff itself
    g = SpectralGrid(128, 32.0)
    vals = (0.9 * np.exp(-((g.X - 1.5) ** 2 / 2.9 + (g.Y + 0.75) ** 2 / 1.3)
                         + 1j * (0.5 * g.X - 0.25 * g.Y))
            + 0.01 * np.exp(-(g.X**2 + g.Y**2) / 4.0 + 9.5j * g.X))
    fh = np.fft.fft2(vals)
    fh2 = np.abs(fh) ** 2
    a = np.abs(vals)
    w = g.dx**2 / g.n**2
    want = dict(
        mass=g.dx**2 * np.sum(a**2),
        grad_sq=w * np.sum(g.K2 * fh2),
        l6_6=g.dx**2 * np.sum(a**6),
        px=w * np.imag(np.sum(np.conj(fh) * (g.ikx * fh))),
        py=w * np.imag(np.sum(np.conj(fh) * (g.iky * fh))),
        tail=np.sum(fh2[g.tail_mask]) / np.sum(fh2),
    )
    assert want["tail"] > 1e-6
    m = moments(Field(g, vals))
    for name, value in want.items():
        assert getattr(m, name) == pytest.approx(value, rel=1e-13, abs=0.0), name


def test_quadrant_moments_are_the_full_grids():
    # an even field's quadrant, its samples by fold and its DCT-I spectrum
    # (fft2's moduli), weighted by the multiplicities, gives the full
    # field's moments up to the order of the sums, and momentum 0.0
    # exactly.  A weak even mode past 2/3 Nyquist keeps the tail off
    # roundoff
    g = SpectralGrid(128, 32.0)
    vals = ((0.9 + 0.3j) * np.exp(-(g.X**2 / 2.9 + g.Y**2 / 1.3))
            + 0.01 * np.exp(-g.R**2 / 4.0) * np.cos(9.5 * g.X))
    assert np.array_equal(unfold(fold(vals, (0, 0)), (0, 0)), vals)
    q, m = fold(vals, (0, 0)), multiplicity(g.n)
    quad = weighted_moments(g, q, dctn(q.real, type=1) + 1j * dctn(q.imag, type=1),
                            np.outer(m, m) / g.n**2)
    full = moments(Field(g, vals))
    assert full.tail > 1e-6
    assert quad.px == quad.py == 0.0
    for name in ("mass", "grad_sq", "l6_6", "tail"):
        assert getattr(quad, name) == pytest.approx(getattr(full, name),
                                                    rel=1e-14, abs=0.0), name


def test_tail_fraction_extremes():
    g = SpectralGrid(64, 16.0)
    smooth = gaussian(g)
    assert moments(smooth).tail < 1e-12
    kmax = np.pi / g.dx
    rough = Field(g, np.exp(1j * 0.9 * kmax * (g.X + 0.0 * g.Y)))
    assert moments(rough).tail > 0.99


def test_boundary_probes():
    g = SpectralGrid(128, 32.0)
    centered = gaussian(g, 1.0, 1.0)
    assert boundary_sup(centered) < 1e-12
    assert boundary_mass_fraction(abs2(centered.values), None) < 1e-12
    shifted_vals = np.exp(-((g.X - 15.0) ** 2 + g.Y**2) / 2.0)
    shifted = Field(g, shifted_vals.astype(np.complex128))
    assert boundary_sup(shifted) > 0.5
    assert boundary_mass_fraction(abs2(shifted.values), None) > 0.1


@pytest.mark.parametrize("c", [(0, 0), (63, 37), (64, 1)])
def test_boundary_mass_fraction_reads_the_quadrant(rng, c):
    # quadrant samples of a field even about c give the share of the
    # unfolded field; a random quadrant puts mass on every ring.  About the
    # box's centre, c = (0, 0), the narrow hump puts 1.2e-11 of its mass on
    # the ring, a share that total minus inner would lose to cancellation
    n = 128
    g, h = SpectralGrid(n, 32.0), n // 2 + 1
    shares = []
    for q in (rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)),
              fold(gaussian(g, 1.0, 6.0).values, (0, 0)),
              fold(gaussian(g, 1.0, 3.2).values, (0, 0))):
        full = unfold(q, c)
        assert np.array_equal(full, np.roll(unfold(q, (0, 0)), c, (0, 1)))
        a2 = abs2(full)
        edge = [0, 1, -2, -1]  # the ring's rows, then its columns
        want = (np.sum(a2[edge]) + np.sum(a2[2:-2, edge])) / np.sum(a2)
        assert boundary_mass_fraction(a2, None) == want  # the ring's sum, to the bit
        assert abs(boundary_mass_fraction(abs2(q), c) - want) <= 1e-14 * want
        shares.append(want)
    assert (min(shares) < 2e-11) == (c == (0, 0))
    assert boundary_mass_fraction(np.zeros((h, h)), c) == 0.0


def test_checkpoint_round_trip(tmp_path, rng):
    g = SpectralGrid(64, 16.0)
    vals = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    f = Field(g, vals, t=1.25)
    path = tmp_path / "state.nls2"
    write_checkpoint(f, str(path))
    back = read_checkpoint(str(path))
    assert back.t == 1.25
    assert back.grid == g
    assert np.array_equal(back.values, vals)
    # round trip again: byte-identical files
    path2 = tmp_path / "state2.nls2"
    write_checkpoint(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_keeps_signed_zeros(tmp_path):
    g = SpectralGrid(16, 8.0)
    vals = np.ones((16, 16), dtype=complex)
    vals[0, 0] = complex(1.0, -0.0)
    vals[1, 1] = complex(-0.0, 2.0)
    path = tmp_path / "zeros.nls2"
    write_checkpoint(Field(g, vals), str(path))
    back = read_checkpoint(str(path)).values
    assert back.tobytes() == vals.tobytes()
    assert np.signbit(back[0, 0].imag) and np.signbit(back[1, 1].real)
    # the samples are written as little-endian (re, im) float64 pairs
    pairs = np.frombuffer(path.read_bytes(), "<f8", 2 * 16 * 16, 28)
    assert np.array_equal(pairs.view(np.int64), vals.view(np.int64).ravel())
    assert parse_checkpoint(path.read_bytes()).values.flags.writeable


def test_checkpoint_rejects_tampering(tmp_path):
    g = SpectralGrid(64, 16.0)
    f = gaussian(g)
    path = tmp_path / "state.nls2"
    write_checkpoint(f, str(path))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_checkpoint(str(path))


def test_checkpoint_grid_mismatch(tmp_path):
    f = gaussian(SpectralGrid(64, 16.0))
    path = tmp_path / "state.nls2"
    write_checkpoint(f, str(path))
    with pytest.raises(ValueError):
        read_checkpoint(str(path), SpectralGrid(64, 32.0))
