"""Periodic grid, discrete Fourier transforms, and L^p norms.

Convention (pinned): for a function sampled at x_j = jL/N,

    fhat(xi_k) = sum_j f(x_j) e^{-i xi_k . x_j} dx^n,
    f(x_j)    = (1/L^n) sum_k fhat(xi_k) e^{+i xi_k . x_j},

with frequencies xi_k = 2 pi k / L, k in {-N/2, ..., N/2 - 1} in FFT
order.  Under this convention D = -i d/dx acts as the multiplier xi,
and a constant c on a period-2pi grid has fhat(0) = 2 pi c.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponentError, InvalidInputError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^dim."""

    dim: int = 1
    points_per_axis: int = 256
    period: float = 2 * np.pi

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidInputError(f"dim must be 1 or 2, got {self.dim}")
        n = self.points_per_axis
        if not isinstance(n, (int, np.integer)) or not _is_power_of_two(int(n)) or n < 8:
            raise InvalidInputError(
                f"points_per_axis must be a power of two >= 8, got {n}")
        if not self.period > 0:
            raise InvalidInputError(f"period must be positive, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def freq_spacing(self) -> float:
        return 2 * np.pi / self.period

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    def nodes_1d(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def frequencies_1d(self) -> np.ndarray:
        """Frequencies 2 pi k / L in FFT order."""
        n = self.points_per_axis
        return 2 * np.pi * np.fft.fftfreq(n, d=self.period / n)

    def node_mesh(self) -> tuple:
        """Tuple of dim arrays of shape self.shape giving node coordinates."""
        return tuple(np.meshgrid(*[self.nodes_1d()] * self.dim, indexing="ij"))

    def frequency_mesh(self) -> tuple:
        return tuple(np.meshgrid(*[self.frequencies_1d()] * self.dim, indexing="ij"))


@dataclass(frozen=True)
class GridFunction:
    """Complex samples, one per grid node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise InvalidInputError(
                f"sample shape {v.shape} does not match grid shape {self.grid.shape}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralFunction:
    """Fourier coefficients fhat(xi_k), one per frequency, FFT order."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise InvalidInputError(
                f"coefficient shape {c.shape} does not match grid shape {self.grid.shape}")
        object.__setattr__(self, "coefficients", c)


def fft_forward(f: GridFunction) -> SpectralFunction:
    g = f.grid
    coeff = np.fft.fftn(f.values) * g.spacing ** g.dim
    return SpectralFunction(g, coeff)


def fft_inverse(F: SpectralFunction) -> GridFunction:
    g = F.grid
    scale = (g.points_per_axis / g.period) ** g.dim
    return GridFunction(g, np.fft.ifftn(F.coefficients) * scale)


def lp_norm(f: GridFunction, p) -> float:
    return float(lp_norms(f.grid, f.values, p))


def lp_norms(grid: Grid, values, p) -> np.ndarray:
    """L^p norms over the trailing grid axes of a stack of sampled functions."""
    axes = tuple(range(-grid.dim, 0))
    if p == np.inf or p == "inf":
        return np.max(np.abs(values), axis=axes)
    p = float(p)
    if p < 1:
        raise InvalidExponentError(f"exponent must be >= 1 or inf, got {p}")
    return (np.sum(np.abs(values) ** p, axis=axes) * grid.spacing ** grid.dim) ** (1.0 / p)


def fractional_derivative(f: GridFunction, alpha: float) -> GridFunction:
    """Fourier multiplier |xi|^alpha; the zero mode passes through when alpha = 0."""
    if alpha < 0:
        raise InvalidInputError(f"alpha must be nonnegative, got {alpha}")
    g = f.grid
    mesh = g.frequency_mesh()
    absxi = np.sqrt(sum(m ** 2 for m in mesh))
    if alpha == 0:
        mult = np.ones_like(absxi)
    else:
        mult = absxi ** alpha
    coeff = np.fft.fftn(f.values) * mult
    return GridFunction(g, np.fft.ifftn(coeff))


def spectral_derivative(f: GridFunction, axis: int = 0) -> GridFunction:
    """D = -i d/dx along the given axis: multiplier xi, unpaired mode zeroed."""
    g = f.grid
    if not 0 <= axis < g.dim:
        raise InvalidInputError(f"axis {axis} out of range for dim {g.dim}")
    xi = g.frequencies_1d()
    xi[g.points_per_axis // 2] = 0.0  # unpaired -N/2 mode, odd multiplier
    shape = [1] * g.dim
    shape[axis] = g.points_per_axis
    mult = xi.reshape(shape)
    coeff = np.fft.fftn(f.values) * mult
    return GridFunction(g, np.fft.ifftn(coeff))


def translate(f: GridFunction, steps) -> GridFunction:
    """f(. + steps*dx), exact circular shift by whole nodes per axis."""
    g = f.grid
    steps = (int(steps),) if np.isscalar(steps) else tuple(int(s) for s in steps)
    if len(steps) != g.dim:
        raise InvalidInputError(f"need {g.dim} shift components, got {len(steps)}")
    return GridFunction(g, np.roll(f.values, shift=[-s for s in steps],
                                   axis=tuple(range(g.dim))))


def phase_table(step: float, offsets, count: int, block: int, start: int = 0):
    """Two-level table of e^{i (start + j) step p}, j < count, per offset p.

    With j = q block + r it returns (coarse, fine), coarse[q] = e^{i (start
    + q block) step p} and fine[r] = e^{i r step p}, so the entry j is
    coarse[j // block] * fine[j % block]: count / block + block rows of
    exponentials stand for count rows.
    """
    p = np.asarray(offsets, dtype=float)
    return tuple(_expi(np.outer(t * step, p))
                 for t in (start + np.arange(0, count, block), np.arange(block)))


def _expi(t: np.ndarray) -> np.ndarray:
    """e^{i t} for real t: cos and sin written into the real and imaginary
    views of one complex array, without np.exp(1j * t)'s complex temporaries."""
    out = np.empty(t.shape, dtype=complex)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def eval_at(f: GridFunction, *coords) -> np.ndarray:
    """Trigonometric interpolation of f at off-grid points.

    coords: one array per axis, broadcastable to a common shape.  Along
    each axis the sum over frequencies k = q B + r - N/2, with B =
    2^floor(log2 N / 2), is two small products with phase_table's factors:
    over r against the fine table, then over q against the coarse one.  No
    point-by-frequency phase matrix is built.  The unpaired mode -N/2 is
    read as a cosine, so real samples interpolate to real values.
    """
    g = f.grid
    if len(coords) != g.dim:
        raise InvalidInputError(f"need {g.dim} coordinate arrays, got {len(coords)}")
    pts = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in coords])
    n, h = g.points_per_axis, g.freq_spacing
    block = 1 << (n.bit_length() - 1) // 2
    vals = np.fft.fftshift(np.fft.fftn(f.values))[None]  # raw DFT, k = -N/2 first
    for axis, p in enumerate(pts):  # contract one frequency axis per coordinate
        p = p.ravel()
        coarse, fine = phase_table(h, p, n, block, start=-(n // 2))
        c = vals.reshape(vals.shape[0], n // block, block, -1)  # (point, q, r, rest)
        inner = (np.tensordot(fine, c[0], axes=(0, 1)) if axis == 0
                 else np.einsum("rp,pqrs->pqs", fine, c))
        # cos(a) - e^{-ia} = i sin(a) turns the unpaired mode into a cosine
        vals = np.einsum("qp,pqs->ps", coarse, inner) \
            + 1j * np.sin(n // 2 * h * p)[:, None] * c[:, 0, 0]
    return vals.reshape(pts[0].shape) / n ** g.dim
