"""Periodic spectral grid, discrete operators, and discrete integral norms.

The continuum problem lives on the plane; we approximate it on a square
periodic box of side L with n points per axis, large enough that the fields
of interest decay below roundoff before they reach the boundary.  All
derivatives are Fourier multipliers and all integrals are the rectangle rule
dx^2 * sum, which is spectrally accurate for smooth periodic integrands.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

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
        # signed box coordinate, origin at the center
        self.x1d = (np.arange(n) - n // 2) * self.dx
        self.X, self.Y = np.meshgrid(self.x1d, self.x1d, indexing="ij")
        self.R = np.hypot(self.X, self.Y)
        # signed wavenumbers, Nyquist negative
        self.k1d = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx)
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

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.t)


@dataclass(frozen=True)
class Moments:
    """The discrete invariants of a field, read off one forward FFT.

    Integrals are dx^2 * sum over the samples; the gradient norm and the
    momentum are Parseval sums over the spectrum, and the tail is the share
    of sum |uh|^2 carried by the modes past 2/3 Nyquist.
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


def moments(f: Field) -> Moments:
    """Mass, gradient norm, L6 integral, momentum and spectral tail of f."""
    g = f.grid
    fh = np.fft.fft2(f.values)
    fh2 = np.abs(fh) ** 2
    w = g.dx**2 / g.n**2
    a = np.abs(f.values)
    total = float(np.sum(fh2))
    return Moments(
        mass=float(g.dx**2 * np.sum(a**2)),
        grad_sq=float(w * np.sum(g.K2 * fh2)),
        l6_6=float(g.dx**2 * np.sum(a**6)),
        px=float(w * np.imag(np.sum(np.conj(fh) * (g.ikx * fh)))),
        py=float(w * np.imag(np.sum(np.conj(fh) * (g.iky * fh)))),
        tail=float(np.sum(fh2[g.tail_mask]) / total) if total > 0.0 else 0.0,
    )


def spectral_gradient(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives (du/dx, du/dy) via the i*k multiplier."""
    fh = np.fft.fft2(f.values)
    ux = np.fft.ifft2(f.grid.ikx * fh)
    uy = np.fft.ifft2(f.grid.iky * fh)
    return ux, uy


def boundary_sup(f: Field) -> float:
    """Max |f| on the outermost one-cell ring of the box."""
    a = np.abs(f.values)
    return float(
        max(a[0, :].max(), a[-1, :].max(), a[:, 0].max(), a[:, -1].max())
    )


def boundary_mass_fraction(f: Field) -> float:
    """Share of the mass integral sitting in the outermost two-cell ring."""
    a2 = np.abs(f.values) ** 2
    total = np.sum(a2)
    if total == 0.0:
        return 0.0
    inner = np.sum(a2[2:-2, 2:-2])
    return float((total - inner) / total)


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


def write_checkpoint(f: Field, path) -> None:
    """Write the binary field checkpoint.

    Layout: magic "NLS2", version u32, n u32, L f64, t f64, then n^2
    little-endian (re, im) f64 pairs in row-major order.
    """
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIdd", CHECKPOINT_VERSION, f.grid.n, f.grid.L, f.t
    )
    interleaved = np.empty((f.grid.n, f.grid.n, 2), dtype="<f8")
    interleaved[..., 0] = f.values.real
    interleaved[..., 1] = f.values.imag
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(interleaved.tobytes())


def read_checkpoint(path, grid: SpectralGrid | None = None) -> Field:
    """Read a field checkpoint; builds the grid from the header if not given."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        version, n = struct.unpack("<II", fh.read(8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        L, t = struct.unpack("<dd", fh.read(16))
        raw = fh.read(16 * n * n)
    if len(raw) != 16 * n * n:
        raise ValueError("checkpoint truncated")
    if grid is None:
        grid = SpectralGrid(n, L)
    elif grid.n != n or grid.L != L:
        raise ValueError(
            f"checkpoint grid (n={n}, L={L}) does not match the supplied grid"
        )
    interleaved = np.frombuffer(raw, dtype="<f8").reshape(n, n, 2)
    values = interleaved[..., 0] + 1j * interleaved[..., 1]
    return Field(grid, values, t)
