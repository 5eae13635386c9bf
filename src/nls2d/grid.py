"""Periodic spectral grid, discrete operators, and discrete integral norms.

The continuum problem lives on the plane; we approximate it on a square
periodic box of side L with n points per axis, large enough that the fields
of interest decay below roundoff before they reach the boundary.  All
derivatives are Fourier multipliers and all integrals are the rectangle rule
dx^2 * sum, which is spectrally accurate for smooth periodic integrands.

A field even in x and in y about a grid point c (the origin j = n/2 for
c = 0) is fixed by its (n/2+1)^2 quadrant: `fold` takes it, indexed by the
distance from c, `unfold` extends it back, and a quadrant sample or DCT-I
coefficient (Boyd 2001, ch. 8) stands for `multiplicity` of the grid's per
axis.  c = None names the full grid's own layout, so `fold`, `unfold` and
`boundary_mass_fraction` read either; the last counts in O(n) the box's
inner rows that each quadrant index stands for.
"""

from __future__ import annotations

import csv
import hashlib
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import fft

CHECKPOINT_MAGIC = b"NLS2"
CHECKPOINT_VERSION = 1


class SpectralGrid:
    """Uniform n x n periodic grid on [-L/2, L/2)^2 with FFT wavenumbers.

    Wavenumbers follow the signed FFT convention k_j = 2*pi*j~/L with the
    Nyquist mode assigned to the negative frequency.  Derivative operators
    use i*k with the Nyquist row zeroed so derivatives of real fields stay
    real; quadratic forms (norms) keep the full multiplier.
    """

    def __init__(self, n: int, L: float):
        n = int(n)
        L = float(L)
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        if not (L > 0.0):
            raise ValueError(f"box length must be positive, got {L}")
        self.n = n
        self.L = L
        self.dx = L / n
        # signed box coordinate, origin at the center, held as (n, 1) and
        # (1, n) axes that broadcast against a field
        self.x1d = (np.arange(n) - n // 2) * self.dx
        self.X = self.x1d[:, None]
        self.Y = self.x1d[None, :]
        self.R = np.hypot(self.X, self.Y)
        # signed wavenumbers, Nyquist negative
        self.k1d = 2.0 * np.pi * fft.fftfreq(n, d=self.dx)
        self.K2 = self.k1d[:, None] ** 2 + self.k1d[None, :] ** 2
        self.k_nyquist = np.pi * n / L
        # derivative multipliers with the Nyquist row zeroed, held as (n, 1)
        # and (1, n) axes that broadcast against a field
        kd = self.k1d.copy()
        kd[n // 2] = 0.0
        self.ikx = 1j * kd[:, None]
        self.iky = 1j * kd[None, :]
        # modes past 2/3 Nyquist count as spectral tail
        self.tail_mask = np.sqrt(self.K2) > (2.0 / 3.0) * self.k_nyquist

    def __eq__(self, other):
        return (
            isinstance(other, SpectralGrid)
            and self.n == other.n
            and self.L == other.L
        )

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, L={self.L})"

    def __reduce__(self):
        # the arrays follow from n and L, so a pickle carries only those
        return SpectralGrid, (self.n, self.L)


def fold(a: np.ndarray, c: tuple[int, int] | None) -> np.ndarray:
    """The samples of an n x n array: a itself if c is None, else the
    quadrant of a even about the grid point c, whose index i holds grid
    index (c + n/2 - i) mod n per axis."""
    if c is None:
        return a
    n = len(a)
    return a[np.ix_(*((ci + n // 2 - np.arange(n // 2 + 1)) % n for ci in c))]


def unfold(q: np.ndarray, c: tuple[int, int] | None) -> np.ndarray:
    """The n x n array whose samples (see `fold`) are q."""
    if c is None:
        return q
    n = 2 * len(q) - 2
    return q[np.ix_(*(_quadrant_index(n, ci) for ci in c))]


def multiplicity(n: int) -> np.ndarray:
    """How many of the grid's n indices per axis each quadrant index stands
    for: 1 at 0 and n/2, 2 elsewhere."""
    return np.where(np.arange(n // 2 + 1) % (n // 2), 2.0, 1.0)


def _quadrant_index(n: int, c: int) -> np.ndarray:
    """The quadrant index of each of an axis's n grid indices j, for an
    array even about c: |(j - c) mod n - n/2|."""
    return np.abs((np.arange(n) - c) % n - n // 2)


class Field:
    """Complex samples of u(., t) on a grid, with a time stamp."""

    def __init__(self, grid: SpectralGrid, values: np.ndarray, t: float = 0.0):
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape != (grid.n, grid.n):
            raise ValueError(
                f"values shape {values.shape} does not match grid n={grid.n}"
            )
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("field contains non-finite samples")
        self.grid = grid
        self.values = values
        self.t = float(t)


@dataclass(frozen=True)
class Moments:
    """The discrete invariants of a field and its spectrum.

    Integrals are dx^2 * sum over the samples of |u|^2 = re^2 + im^2 and its
    cube.  The gradient norm and the momentum are Parseval sums over the
    spectrum, taken as k^2 and the Nyquist-zeroed k on the row and column
    sums of |uh|^2; the tail is the share of sum |uh|^2 carried by the modes
    past 2/3 Nyquist.
    """

    mass: float      # int |u|^2
    grad_sq: float   # int |grad u|^2
    l6_6: float      # int |u|^6
    px: float        # Im int conj(u) du/dx
    py: float        # Im int conj(u) du/dy
    tail: float

    @property
    def energy(self) -> float:
        return 0.5 * self.grad_sq - self.l6_6 / 6.0

    @property
    def virial(self) -> float:  # V'' by the virial identity
        return 8.0 * self.grad_sq - (16.0 / 3.0) * self.l6_6


def moments(f: Field, fh: np.ndarray | None = None) -> Moments:
    """The moments of f; fh, if the caller holds it, is only read and need
    only carry the moduli of fft2(f.values)."""
    if fh is None:
        fh = fft.fft2(f.values)
    return weighted_moments(f.grid, f.values, fh, 1.0 / f.grid.n**2)


def weighted_moments(g: SpectralGrid, v: np.ndarray, vh: np.ndarray,
                     weight: float | np.ndarray) -> Moments:
    """The moments of the samples v, on the full grid or its quadrant, and
    the moduli vh of their spectrum (fft2 or DCT-I).  weight is 1 / n^2, or
    outer(m, m) / n^2 on the quadrant (m the `multiplicity`), where momentum
    is 0.0: a coefficient stands for k and -k alike."""
    h = len(v)  # n, or n/2 + 1 on the quadrant
    k, mult = g.k1d[:h], weight * g.n**2  # mult is 1.0 on the full grid
    s, p = abs2(v), abs2(vh)
    p *= mult
    rows, cols = np.sum(p, axis=1), np.sum(p, axis=0)  # over ky, over kx
    kd = g.ikx.imag[:, 0] if h == g.n else np.zeros(h)
    w, total = g.dx**2 / g.n**2, float(np.sum(rows))
    return Moments(
        mass=float(g.dx**2 * np.sum(s * mult)),
        grad_sq=float(w * (k**2 @ rows + k**2 @ cols)),
        l6_6=float(g.dx**2 * np.sum(s * s * s * mult)),
        px=float(w * (kd @ rows)),
        py=float(w * (kd @ cols)),
        tail=float(np.sum(p, where=g.tail_mask[:h, :h]) / total) if total > 0.0 else 0.0,
    )


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2, with no sqrt."""
    return np.square(z.real) + np.square(z.imag)


def spectral_gradient(f: Field, fh: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives (du/dx, du/dy) via the i*k multiplier; fh is
    fft2(f.values) if the caller holds it, and is only read."""
    if fh is None:
        fh = fft.fft2(f.values)
    ux = fft.ifft2(f.grid.ikx * fh)
    uy = fft.ifft2(f.grid.iky * fh)
    return ux, uy


def boundary_sup(f: Field) -> float:
    """Max |f| on the outermost one-cell ring of the box."""
    v = f.values  # |.| of the ring alone, not of the n^2 samples
    return float(max(np.abs(v[[0, -1]]).max(), np.abs(v[:, [0, -1]]).max()))


def boundary_mass_fraction(a2: np.ndarray, c: tuple[int, int] | None) -> float:
    """Share of the mass in the outermost two-cell ring of the box, from the
    |u|^2 samples a2 (see `fold`): on the quadrant, per axis, an index weighs
    the inner grid indices 2 ... n-3 it stands for."""
    if c is None:
        total, inner = np.sum(a2), np.sum(a2[2:-2, 2:-2])
    else:
        n, m = 2 * len(a2) - 2, multiplicity(2 * len(a2) - 2)
        rows, cols = (np.bincount(_quadrant_index(n, ci)[2:-2], minlength=len(a2))
                      for ci in c)
        total = np.einsum("i,ij,j->", m, a2, m)
        inner = np.einsum("i,ij,j->", rows, a2, cols)
    return float((total - inner) / total) if total else 0.0


def variance(f: Field) -> float:
    """int |x|^2 |u|^2 over the box; meaningless once mass reaches the boundary."""
    a2 = abs2(f.values)
    frac = boundary_mass_fraction(a2, None)
    if frac > 1e-10:
        raise ValueError(
            f"boundary mass fraction {frac:.2e} exceeds 1e-10; "
            "variance is not meaningful on a wrapped field"
        )
    g = f.grid
    x2 = g.x1d**2  # |x|^2 = X^2 + Y^2 on the row and column sums
    return float(g.dx**2 * (x2 @ np.sum(a2, axis=1) + x2 @ np.sum(a2, axis=0)))


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """A temp file beside path that replaces it once written; a writer that
    raises leaves the old file at path, if any, and no temp file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_float_csv(path, header, rows) -> None:
    """Write a CSV table atomically, each number cell the repr of a float, so
    a parse gives back the bits of every value; None is an empty cell and a
    str is written as is."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v if isinstance(v, str)
                             else repr(float(v)) for v in row])


def write_checkpoint(f: Field, path) -> str:
    """Write the binary field checkpoint; returns the sha256 hex digest of
    the bytes written.

    Layout: magic "NLS2", version u32, n u32, L f64, t f64, then n^2
    little-endian complex128 samples, (re, im) f64 pairs, in row-major order.
    """
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIdd", CHECKPOINT_VERSION, f.grid.n, f.grid.L, f.t
    )
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as fh:
        for chunk in (header, f.values.astype("<c16", copy=False).data):
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def read_checkpoint(path, grid: SpectralGrid | None = None) -> Field:
    """Read a field checkpoint; builds the grid from the header if not given."""
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read(), grid)


def parse_checkpoint(data: bytes, grid: SpectralGrid | None = None) -> Field:
    """The field held in a checkpoint's bytes (see `write_checkpoint`)."""
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {data[:4]!r}")
    version, n, L, t = struct.unpack_from("<IIdd", data, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if len(data) < 28 + 16 * n * n:
        raise ValueError("checkpoint truncated")
    if grid is None:
        grid = SpectralGrid(n, L)
    elif grid.n != n or grid.L != L:
        raise ValueError(
            f"checkpoint grid (n={n}, L={L}) does not match the supplied grid"
        )
    # a copy, so the field is writable; re + 1j im would lose a -0.0
    return Field(grid, np.frombuffer(data, "<c16", n * n, 28).reshape(n, n).copy(), t)
