"""Spectral fields on the flat torus (R/Z)^2.

Everything downstream (dynamics, flows, curvature) is built on the
primitives here: uniform grids, one real field type, exact derivatives,
the Helmholtz operator 1 - Laplacian and its inverse, Parseval inner
products, dealiased products and direct off-grid evaluation.

Conventions
-----------
* The period is 1 in each direction; mode (j1, j2) has physical wavenumber
  (2*pi*j1, 2*pi*j2).
* A Field has samples of shape (*components, nx, ny) and the real half
  spectrum rfft2(values) / (nx * ny) of shape (*components, nx, ny/2 + 1):
  rows j1 in FFT order, columns j2 = 0..ny/2, where each of 1..ny/2-1 also
  stands for its mirror -j2.  It computes whichever form it lacks on first
  use.  Every operator acts on the last two axes and broadcasts over the
  component axes.
* One Nyquist rule: in each axis the unpaired -n/2 coefficient is a cosine,
  split evenly between -n/2 and +n/2, so the corner goes four ways.  First
  derivatives zero it; the Helmholtz symbol 1 + |k|^2 keeps every mode.
* Products are dealiased: each factor is lifted once to real samples on a
  pad_factor-times finer grid, the products of a term are summed there and
  the sum is truncated once, reading each Nyquist row and column back as
  the mean of the padded -n/2 and +n/2 ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TWO_PI",
    "TorusGrid",
    "Field",
    "VectorField",
    "make_grid",
    "stack",
    "partial_x",
    "partial_y",
    "gradient",
    "divergence",
    "laplacian",
    "helmholtz",
    "helmholtz_inverse",
    "l2_inner",
    "h1_inner",
    "pointwise_product",
    "dot",
    "tdot",
    "det",
    "eval_spectra",
    "cosine_mode",
    "random_bandlimited",
]

TWO_PI = 2.0 * np.pi

DEFAULT_PAD_FACTOR = 2


@dataclass(frozen=True)
class TorusGrid:
    """Uniform nx-by-ny sampling of [0,1)^2 with samples x_j = j/nx, y_k = k/ny."""

    nx: int
    ny: int

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 4 or n % 2 != 0:
                raise ValueError(f"{name}={n}: grid dimensions must be even and >= 4")

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) / self.nx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) / self.ny

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) coordinate arrays of shape (nx, ny)."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as an (nx*ny, 2) array, row-major in (x, y)."""
        X, Y = self.mesh
        return np.column_stack([X.ravel(), Y.ravel()])

    @cached_property
    def modes_x(self) -> np.ndarray:
        """Integer modes j1 in [-nx/2, nx/2), FFT ordering."""
        return np.fft.fftfreq(self.nx, d=1.0 / self.nx)

    @cached_property
    def modes_y(self) -> np.ndarray:
        """Integer modes j2 in [0, ny/2], the columns of the half spectrum."""
        return np.fft.rfftfreq(self.ny, d=1.0 / self.ny)

    @cached_property
    def column_weights(self) -> np.ndarray:
        """Columns j2 = 1..ny/2-1 also stand for their mirror -j2: weight 2, else 1."""
        return np.where((self.modes_y > 0) & (self.modes_y < self.ny // 2), 2.0, 1.0)

    @cached_property
    def ksq(self) -> np.ndarray:
        """|k|^2 on the half spectrum, k = 2*pi*(j1, j2)."""
        return (TWO_PI * self.modes_x[:, None]) ** 2 + (TWO_PI * self.modes_y[None, :]) ** 2

    @cached_property
    def grad_symbol(self) -> np.ndarray:
        """Multipliers of (d/dx, d/dy) stacked as (2, nx, ny/2 + 1); Nyquist modes zeroed."""
        jx, jy = self.modes_x.copy(), self.modes_y.copy()
        jx[self.nx // 2] = 0.0
        jy[self.ny // 2] = 0.0
        return np.stack(np.broadcast_arrays((1j * TWO_PI * jx)[:, None], (1j * TWO_PI * jy)[None, :]))

    @cached_property
    def helmholtz_symbol(self) -> np.ndarray:
        return 1.0 + self.ksq

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def half_shape(self) -> tuple[int, int]:
        return (self.nx, self.ny // 2 + 1)


def make_grid(nx: int, ny: int) -> TorusGrid:
    """Build a TorusGrid; rejects odd or undersized dimensions."""
    return TorusGrid(int(nx), int(ny))


def _read_only(array: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """array, which must end in shape, made read-only in place."""
    if array.shape[-2:] != shape:
        raise ValueError(f"array of shape {array.shape} does not end in {shape}")
    array.flags.writeable = False
    return array


def _private(array: np.ndarray) -> np.ndarray:
    """array itself if read-only, else a copy, so a caller's later writes cannot reach a Field."""
    return array.copy() if array.flags.writeable else array


def _owned(grid: TorusGrid, values: np.ndarray | None = None, spectrum: np.ndarray | None = None) -> "Field":
    """Field over arrays nothing else writes (fresh library arrays or read-only ones), frozen in place."""
    return Field.__new__(Field)._set(grid, values, spectrum)


class Field:
    """Real periodic field of shape (*components, nx, ny) on a TorusGrid.

    Built from samples, Field(grid, values), or from a half spectrum,
    Field.from_spectrum(grid, spectrum); the other form is computed once, on
    first use, and both are read-only.  Sums, differences and real multiples
    act on the samples of the whole stack.  Indexing selects components:
    u[0] is u1 and J[0, 1] is d u1 / dy.
    """

    __slots__ = ("grid", "_values", "_spectrum")

    # Makes numpy scalars defer to the Field operators below.
    __array_ufunc__ = None

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        self._set(grid, _private(np.asarray(values, dtype=np.float64)), None)

    def _set(self, grid: TorusGrid, values: np.ndarray | None, spectrum: np.ndarray | None) -> "Field":
        self.grid = grid
        self._values = None if values is None else _read_only(values, grid.shape)
        self._spectrum = None if spectrum is None else _read_only(spectrum, grid.half_shape)
        return self

    @classmethod
    def from_spectrum(cls, grid: TorusGrid, spectrum: np.ndarray) -> "Field":
        """Real field with this half spectrum, whose columns 0 and ny/2 are Hermitian along x."""
        return _owned(grid, spectrum=_private(np.asarray(spectrum, dtype=np.complex128)))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            shape = self.grid.shape
            self._values = _read_only(np.fft.irfft2(self._spectrum, s=shape, norm="forward"), shape)
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = _read_only(np.fft.rfft2(self._values, norm="forward"), self.grid.half_shape)
        return self._spectrum

    def __getitem__(self, index) -> "Field":
        return _owned(self.grid, None if self._values is None else self._values[index],
                      None if self._spectrum is None else self._spectrum[index])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _combine(self, other: "Field", op) -> "Field":
        if not isinstance(other, Field):
            return NotImplemented
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        return _owned(self.grid, op(self.values, other.values))

    def __add__(self, other: "Field") -> "Field":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Field") -> "Field":
        return self._combine(other, operator.sub)

    def __mul__(self, c) -> "Field":
        return _owned(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self * -1.0


def stack(fields) -> Field:
    """Fields of one grid and one component shape, stacked on a new first axis."""
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("fields live on different grids")
    return _owned(grid, np.stack([f.values for f in fields]))


class VectorField:
    """Constructors of two-component Fields."""

    @staticmethod
    def from_values(grid: TorusGrid, v1: np.ndarray, v2: np.ndarray) -> Field:
        return Field(grid, np.stack([v1, v2]))

    @staticmethod
    def constant(grid: TorusGrid, c1: float, c2: float) -> Field:
        return VectorField.from_values(grid, np.full(grid.shape, float(c1)), np.full(grid.shape, float(c2)))

    @staticmethod
    def zero(grid: TorusGrid) -> Field:
        return Field(grid, np.zeros((2,) + grid.shape))


def _multiply_symbol(f: Field, symbol: np.ndarray) -> Field:
    return _owned(f.grid, spectrum=f.spectrum * symbol)


def partial_x(f: Field) -> Field:
    return _multiply_symbol(f, f.grid.grad_symbol[0])


def partial_y(f: Field) -> Field:
    return _multiply_symbol(f, f.grid.grad_symbol[1])


def gradient(u: Field) -> Field:
    """First derivatives on a new last component axis: entry [..., j] = d/dx_j.

    For a vector field entry [i, j] is d u_i / d x_j; for a scalar it is the
    gradient vector.
    """
    return _owned(u.grid, spectrum=u.spectrum[..., None, :, :] * u.grid.grad_symbol)


def divergence(u: Field) -> Field:
    """Contraction of the last component axis with the gradient: sum_j d u_j / d x_j."""
    return _owned(u.grid, spectrum=np.sum(u.spectrum * u.grid.grad_symbol, axis=-3))


def laplacian(f: Field) -> Field:
    return _multiply_symbol(f, -f.grid.ksq)


def helmholtz(u: Field) -> Field:
    """Momentum map m = (1 - Laplacian) u, applied componentwise."""
    return _multiply_symbol(u, u.grid.helmholtz_symbol)


def helmholtz_inverse(m: Field) -> Field:
    """Velocity u with (1 - Laplacian) u = m, applied componentwise."""
    return _multiply_symbol(m, 1.0 / m.grid.helmholtz_symbol)


def _parseval_sum(f: Field, g: Field, weight) -> float:
    """Parseval sum of weight * f * conj(g) over the full spectrum, from the half spectra."""
    if f.grid != g.grid or f.spectrum.shape != g.spectrum.shape:
        raise ValueError("fields live on different grids or have different components")
    return float(np.sum(f.grid.column_weights * weight * np.real(f.spectrum * np.conj(g.spectrum))))


def l2_inner(u: Field, v: Field) -> float:
    """L^2 pairing sum_i integral(u_i v_i), computed via Parseval."""
    return _parseval_sum(u, v, 1.0)


def h1_inner(u: Field, v: Field) -> float:
    """Metric pairing integral(u . (1 - Laplacian) v), computed via Parseval."""
    return _parseval_sum(u, v, u.grid.helmholtz_symbol)


def _lift(f: Field, pad_factor: int, symbol=None) -> np.ndarray:
    """Samples of f, or of its image under the Fourier multiplier symbol, on the
    pad_factor-times finer grid (pad_factor=1: the samples on f's grid).

    The Nyquist row and column are split evenly between -n/2 and +n/2, so
    the corner goes four ways.
    """
    s = f.spectrum if symbol is None else f.spectrum * symbol
    if pad_factor == 1:
        return f.values if symbol is None else np.fft.irfft2(s, s=f.grid.shape, norm="forward")
    hx, hy = f.grid.nx // 2, f.grid.ny // 2
    px, py = pad_factor * f.grid.nx, pad_factor * f.grid.ny
    # Columns past +n/2 of the padded half spectrum are zero; irfft2 pads them,
    # and mirrors column +n/2 onto -n/2.
    half = np.zeros(s.shape[:-2] + (px, hy + 1), dtype=np.complex128)
    half[..., :hx + 1, :] = s[..., :hx + 1, :]  # rows 0..n/2-1, then -n/2 at +n/2
    half[..., px - hx:, :] = s[..., hx:, :]     # rows -n/2..-1
    half[..., :, hy] *= 0.5
    half[..., [hx, px - hx], :] *= 0.5
    return np.fft.irfft2(half, s=(px, py), norm="forward")


def _truncate(grid: TorusGrid, samples: np.ndarray, pad_factor: int) -> Field:
    """Field of the modes of grid in padded samples (pad_factor=1: the samples themselves).

    The Nyquist row and column are the means of the padded -n/2 and +n/2
    ones, so the corner is the mean of the four padded corners.
    """
    if pad_factor == 1:
        return _owned(grid, samples)
    hx, hy, px = grid.nx // 2, grid.ny // 2, pad_factor * grid.nx
    # Only the kept columns are transformed along x.
    r = np.fft.fft(np.fft.rfft(samples, norm="forward")[..., :hy + 1], axis=-2, norm="forward")
    half = np.concatenate([r[..., :hx, :], r[..., px - hx:, :]], axis=-2)
    half[..., hx, :] = 0.5 * (half[..., hx, :] + r[..., hx, :])
    # Column -n/2 is the mirror image of column +n/2: conj at -j1.
    nyquist = half[..., hy]
    half[..., hy] = 0.5 * (nyquist + np.conj(nyquist[..., (-np.arange(grid.nx)) % grid.nx]))
    return _owned(grid, spectrum=half)


def _dealiased(f: Field, g: Field, pad_factor: int, combine) -> Field:
    """combine(lifted f, lifted g), formed on the padded grid and truncated once."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    return _truncate(f.grid, combine(_lift(f, pad_factor), _lift(g, pad_factor)), pad_factor)


def pointwise_product(f: Field, g: Field, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Product fg evaluated on a pad_factor-times finer grid, then truncated.

    Component axes broadcast.  Exact whenever the combined bandwidth of f and
    g fits the padded grid; pad_factor=1 is the plain aliased grid product.
    """
    return _dealiased(f, g, pad_factor, np.multiply)


def dot(J: Field, v: Field, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Matrix-vector product (J v)_i = sum_j J_ij v_j with dealiased products."""
    return _dealiased(J, v, pad_factor, lambda j, v: j[:, 0] * v[0] + j[:, 1] * v[1])


def tdot(J: Field, w: Field, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Transposed product (J^T w)_i = sum_j J_ji w_j with dealiased products."""
    return _dealiased(J, w, pad_factor, lambda j, w: j[0] * w[0] + j[1] * w[1])


def det(J: Field) -> Field:
    """Pointwise determinant of a 2x2 matrix field."""
    v = J.values
    return _owned(J.grid, v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0])


def _powers(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[j] = exp(2 pi i j t) for j = 0..len(out)-1 at each point of t.

    One complex exp per point; the higher powers come by doubling,
    z^(k+i) = z^k z^i, so each carries about log2(j) roundings.
    """
    out[0] = 1.0
    out[1] = np.exp((2j * np.pi) * t)
    k, h = 1, len(out) - 1
    while k < h:
        m = min(k, h - k)
        np.multiply(out[1:1 + m], out[k], out=out[k + 1:k + 1 + m])
        k += m
    return out


def eval_spectra(grid: TorusGrid, spectra: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 gradient: bool = False):
    """Direct trigonometric summation of a stack of half spectra at arbitrary points.

    spectra has shape (*components, nx, ny/2 + 1) and xs, ys share one
    shape; returns real values of shape (*components, *xs.shape).  The
    bases exp(2 pi i j x) and exp(2 pi i j y) are powers of one exp per
    point, negative j their conjugates.  The Nyquist row and column are
    summed as cos(pi nx x) and cos(pi ny y), the corner as their product.
    The bases are shared across the stack, so evaluating several fields at
    one point set costs little more than evaluating one.

    With gradient=True, returns (values, first derivatives), the latter of
    shape (*components, 2, *xs.shape) with entry [..., j, :] = d/dx_j: the
    off-grid values of `gradient` of the stack, Nyquist modes zeroed.  d/dy
    reuses the sums over x; d/dx is summed over x with them, as an
    x-differentiated copy of the stack.
    """
    spectra = np.asarray(spectra, dtype=np.complex128)
    lead, shape = spectra.shape[:-2], np.shape(xs)
    xs = np.ravel(np.asarray(xs, dtype=np.float64))
    ys = np.ravel(np.asarray(ys, dtype=np.float64))
    hx = grid.nx // 2
    ex = np.empty((grid.nx, xs.size), dtype=np.complex128)
    _powers(xs, ex[:hx + 1])
    ex[hx] = ex[hx].real
    np.conjugate(ex[hx - 1:0:-1], out=ex[hx + 1:])  # rows j1 in FFT order
    ey = _powers(ys, np.empty((grid.ny // 2 + 1, ys.size), dtype=np.complex128))
    ey[-1] = ey[-1].real
    ey *= grid.column_weights[:, None]
    coeffs = np.swapaxes(spectra.reshape((-1,) + grid.half_shape), -1, -2)  # (fields, ny/2+1, nx)
    if gradient:
        coeffs = np.concatenate([coeffs, coeffs * grid.grad_symbol[0][:, 0]])
    partial = coeffs @ ex  # sums over x: (fields, ny/2+1, points)
    sums = np.einsum("fyp,yp->fp", partial, ey).real
    if not gradient:
        return sums.reshape(lead + shape)
    n = len(sums) // 2
    dy = np.einsum("fyp,yp->fp", partial[:n], ey * grid.grad_symbol[1][0][:, None]).real
    return sums[:n].reshape(lead + shape), np.stack([sums[n:], dy], axis=1).reshape(lead + (2,) + shape)


def cosine_mode(grid: TorusGrid, j1: int, j2: int, amplitude: float = 1.0,
                direction=(1.0, 1.0)) -> Field:
    """Vector field amplitude * cos(2*pi*(j1 x + j2 y)) * direction."""
    if abs(j1) >= grid.nx // 2 or abs(j2) >= grid.ny // 2:
        raise ValueError(f"mode ({j1}, {j2}) is not resolvable on grid {grid.shape}")
    X, Y = grid.mesh
    wave = amplitude * np.cos(TWO_PI * (j1 * X + j2 * Y))
    return Field(grid, np.multiply.outer(np.asarray(direction, dtype=np.float64), wave))


def random_bandlimited(grid: TorusGrid, seed: int, kmax: int, amplitude: float) -> Field:
    """Reproducible random real vector field with modes |j1|, |j2| <= kmax.

    The sup-norm over both components is scaled to `amplitude`.
    """
    if kmax >= min(grid.nx, grid.ny) // 2:
        raise ValueError(f"kmax={kmax} too large for grid {grid.shape}")
    rng = np.random.default_rng(seed)
    mask = (np.abs(grid.modes_x)[:, None] <= kmax) & (grid.modes_y[None, :] <= kmax)
    spec = np.fft.rfft2(rng.standard_normal((2,) + grid.shape), norm="forward")
    u = Field.from_spectrum(grid, np.where(mask, spec, 0.0))
    sup = u.sup_norm()
    if sup == 0.0 or amplitude == 0.0:
        return VectorField.zero(grid)
    return u * (float(amplitude) / sup)
