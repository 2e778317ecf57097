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
  component axes.  Fourier multipliers, sums, differences, real multiples
  and stack all act on the half spectrum, so linear algebra on fields
  never synthesizes samples.
* One operand rule, checked before any transform or lift: the operands of
  an operation share one grid; those of sums, differences, stack and the
  pairings have equal components, and the velocities and maps of dynamics
  and flow have components (2,).  Products broadcast their components.
* One Nyquist rule: in each axis the unpaired -n/2 coefficient is a cosine,
  split evenly between -n/2 and +n/2, so the corner goes four ways.  First
  derivatives zero it; the Helmholtz symbol 1 + |k|^2 keeps every mode.
* One constant rule: a constant makes no transform.  _lift fills a
  constant's padded samples with its mean, _padded_rows yields no gradient
  rows of a constant, whose products are +-0 and, added to an accumulator
  that starts at +0, change no bit, and dot returns a zero half spectrum
  before any lift when a factor is zero.  _zero tests each operand in
  place, reading two coefficients first.
* pointwise_product and dot are always dealiased (only flow's map
  quantities, in the one map frame of flow._checked_det, multiply samples):
  each factor is taken to real samples on the grid's padded_shape, the
  smallest grid on which a quadratic product is exact (Orszag's rule), the
  products of a term are summed there and the sum is truncated once,
  reading each Nyquist row and column back as the mean of the padded -n/2
  and +n/2 ones.  In dot and the momentum transports a matrix or gradient
  factor is streamed by row blocks (_padded_rows) and the other factor is
  lifted whole (_lift); pointwise_product lifts both.  The lifts, padded
  half spectra and products live in per-thread scratch that grows to the
  largest call and is reused; only the truncated half spectrum is fresh.
  Streamed rows and the truncation's row transforms run in row blocks of
  r rows, each within _BLOCK_BYTES of a plane: r = M up to 64^2, M/4 at
  128^2.  After euler_rhs, christoffel, dot and pointwise_product on an
  n-by-n grid padded to M-by-M, each thread keeps
  112 M^2 + 32 M (n + 2) + 32 r (M + 2) bytes, 0.42 MB at 32^2, 1.66 MB at
  64^2 and 5.64 MB at 128^2; after dot alone 32 M^2 + 32 M (n + 2) + 32 M r
  bytes, 0.21, 0.85 and 2.43 MB; after euler_rhs alone
  48 M^2 + 16 M (n + 2) + 32 M r bytes, 0.23, 0.91 and 2.66 MB.
* eval_spectra sums off-grid on real cos/sin bases, one real matmul per
  field over x, in per-thread scratch that grows to the largest call and is
  reused: for values and gradients at all n^2 points of an n-by-n grid
  each thread keeps 8 n^2 (5n + 8) bytes, 1.4 MB at 32^2, 10.7 MB at 64^2
  and 85 MB at 128^2.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import InitVar, dataclass
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
    "eval_spectra",
    "cosine_mode",
    "random_bandlimited",
]

TWO_PI = 2.0 * np.pi

# Per-thread buffers of eval_spectra and the dealiased products; threads never
# share them.
_scratch = threading.local()


def _scratch_array(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's scratch array `name` viewed as shape: grown to the largest call, then reused."""
    size = math.prod(shape)
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_scratch, name, buf)
    return buf[:size].reshape(shape)


def _padded_size(n: int) -> int:
    """Smallest even M >= 3n/2 + 2 with no prime factor above 5."""
    m = 3 * n // 2 + 2
    m += m % 2
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 2


@dataclass(frozen=True)
class TorusGrid:
    """Uniform nx-by-ny sampling of [0,1)^2 with samples x_j = j/nx, y_k = k/ny."""

    nx: int
    ny: int
    names: InitVar[tuple[str, str]] = ("nx", "ny")  # what errors call nx and ny

    def __post_init__(self, names):
        for n, name in zip((self.nx, self.ny), names):
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

    @cached_property
    def helmholtz_inverse_symbol(self) -> np.ndarray:
        return 1.0 / self.helmholtz_symbol

    @cached_property
    def padded_shape(self) -> tuple[int, int]:
        """Grid of the dealiased products: per axis the smallest even 5-smooth M >= 3n/2 + 2.

        A product of two fields reaches modes +-n (the split Nyquist halves),
        and on M points mode n folds onto n - M, outside the kept -n/2..n/2
        only if M > 3n/2.  Sizes built from 2, 3 and 5 keep the FFTs on their
        fastest radices.
        """
        return (_padded_size(self.nx), _padded_size(self.ny))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def half_shape(self) -> tuple[int, int]:
        return (self.nx, self.ny // 2 + 1)


def _integral(value, name: str) -> int:
    """value as an int; ValueError if it is not a whole number, which is never truncated, or is past float range."""
    try:
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, not {value!r}")
    except OverflowError:
        raise ValueError(f"{name} is too large") from None
    return int(value)


def make_grid(nx: int, ny: int, names: tuple[str, str] = ("nx", "ny")) -> TorusGrid:
    """Build a TorusGrid; rejects fractional, odd or undersized dimensions, calling them names."""
    return TorusGrid(_integral(nx, names[0]), _integral(ny, names[1]), names)


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


def _operands(fields, components=None) -> TorusGrid:
    """The grid that fields share, each with components if given, or "equal" ones; else one
    ValueError naming each operand's grid and components, read from whichever form it holds."""
    shapes = [(f._spectrum if f._values is None else f._values).shape[:-2] for f in fields]
    want = shapes[0] if components == "equal" and shapes else components
    if shapes and all(f.grid == fields[0].grid and want in (None, s) for f, s in zip(fields, shapes)):
        return fields[0].grid
    need = {None: "", "equal": " and equal components"}.get(components, f" and components {components}")
    got = ", ".join(f"{f.grid.shape} {s}" for f, s in zip(fields, shapes)) or "none"
    raise ValueError(f"operands need one grid{need}, not {got}")


class Field:
    """Real periodic field of shape (*components, nx, ny) on a TorusGrid.

    Built from samples, Field(grid, values), or from a half spectrum,
    Field.from_spectrum(grid, spectrum); the other form is computed once, on
    first use, and both are read-only.  Sums, differences, real multiples
    and stack act on the half spectrum of the whole stack, whichever forms
    the operands hold, so a field built from samples is transformed the
    first time it is combined, and only then.  Indexing selects components:
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
        return _owned(_operands([self, other], "equal"), spectrum=op(self.spectrum, other.spectrum))

    def __add__(self, other: "Field") -> "Field":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Field") -> "Field":
        return self._combine(other, operator.sub)

    def __mul__(self, c) -> "Field":
        return _owned(self.grid, spectrum=self.spectrum * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self * -1.0


def stack(fields) -> Field:
    """Fields of one grid and one component shape, at least one, stacked on a new first axis."""
    return _owned(_operands(fields, "equal"), spectrum=np.stack([f.spectrum for f in fields]))


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
    return _multiply_symbol(m, m.grid.helmholtz_inverse_symbol)


def _parseval_sum(f: Field, g: Field, weight) -> float:
    """Parseval sum of weight * f * conj(g) over the full spectrum, from the half spectra."""
    _operands([f, g], "equal")
    return float(np.sum(f.grid.column_weights * weight * np.real(f.spectrum * np.conj(g.spectrum))))


def l2_inner(u: Field, v: Field) -> float:
    """L^2 pairing sum_i integral(u_i v_i), computed via Parseval."""
    return _parseval_sum(u, v, 1.0)


def h1_inner(u: Field, v: Field) -> float:
    """Metric pairing integral(u . (1 - Laplacian) v), computed via Parseval."""
    return _parseval_sum(u, v, u.grid.helmholtz_symbol)


def _zero(f: Field, mean: bool = True) -> bool:
    """Whether the half spectrum of f is zero, or with mean=False zero off the
    mean mode (0, 0), so that every derivative of f is exactly zero.

    A field that is not zero rarely lacks both the (0, 1) and the (1, 0)
    coefficient of its first component, so those two are read first; only
    then is the spectrum scanned, with no temporary of its size.
    """
    s = f.spectrum
    if s.item(1) or s.item(s.shape[-1]):
        return False
    return not (s[..., 0, 1:].any() or s[..., 1:, :].any() or (mean and s[..., 0, 0].any()))


def _padded_half(f: Field, symbol=None) -> np.ndarray:
    """Padded half spectrum of f, or of its image under the Fourier multiplier
    symbol, transformed over x: the x-pass of irfft2, in this thread's
    complex scratch.

    The Nyquist row and column are split evenly between -n/2 and +n/2, so
    the corner goes four ways.  Only the columns up to +n/2 are kept: irfft
    pads the rest with zeros and mirrors column +n/2 onto -n/2.
    """
    s = f.spectrum
    lead = (s.shape if symbol is None else np.broadcast(s, symbol).shape)[:-2]
    hx, hy = f.grid.nx // 2, f.grid.ny // 2
    px = f.grid.padded_shape[0]
    half = _scratch_array("spectrum", lead + (px, hy + 1), np.complex128)
    # Rows 0..n/2-1, then -n/2 at +n/2; and rows -n/2..-1 at the end.
    for to, take in ((slice(0, hx + 1), slice(0, hx + 1)), (slice(px - hx, px), slice(hx, None))):
        if symbol is None:
            half[..., to, :] = s[..., take, :]
        else:
            np.multiply(s[..., take, :], symbol[..., take, :], out=half[..., to, :])
    half[..., hx + 1:px - hx, :] = 0.0
    half[..., :, hy] *= 0.5
    half[..., hx::px - 2 * hx, :] *= 0.5  # rows +n/2 and -n/2
    return np.fft.ifft(half, axis=-2, norm="forward", out=half)


def _lift(f: Field, name: str) -> np.ndarray:
    """Samples of f on the grid's padded_shape, in this thread's scratch array
    `name`: the y-pass of irfft2 after _padded_half, or for a constant f its
    mean, filled in with no transform."""
    out = _scratch_array(name, f.spectrum.shape[:-2] + f.grid.padded_shape)
    if _zero(f, mean=False):
        out[...] = f.spectrum[..., :1, :1].real + 0.0  # a -0 mean fills +0, as the transform mostly gives
        return out
    return np.fft.irfft(_padded_half(f), n=out.shape[-1], norm="forward", out=out)


# Bytes of one padded plane's samples that a row block may hold: a whole
# plane up to 64^2 (a 100 by 100 plane), a quarter of one at 128^2.
_BLOCK_BYTES = 96 * 1024


def _row_blocks(px: int, py: int) -> list[slice]:
    """The fewest even row blocks of a padded (px, py) plane that each hold at
    most _BLOCK_BYTES of samples, a row at least; the last may be shorter."""
    count = min(px, -(-px * py * 8 // _BLOCK_BYTES))
    step = -(-px // count)
    return [slice(r, min(r + step, px)) for r in range(0, px, step)]


def _block_scratch(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's row-block scratch as shape: the streamed rows and their
    products and the truncation's row transforms share it in turn."""
    words = math.prod(shape) * np.dtype(dtype).itemsize // 8
    return _scratch_array("block", (words,)).view(dtype).reshape(shape)


def _padded_rows(f: Field, gradient: bool = False):
    """Padded samples of a pair or 2x2 stack f, or with gradient=True of the
    gradient of a scalar f, one row block at a time: yields (rows, g, spare),
    g the samples of rows shaped like f's components (then the gradient's)
    and spare the rest of this thread's four-plane row-block scratch, which
    the next block reuses.  The gradient of a constant f is zero, and no
    row of it is yielded."""
    if gradient and _zero(f, mean=False):
        return
    half = _padded_half(f, f.grid.grad_symbol if gradient else None)
    lead, (px, py) = half.shape[:-2], f.grid.padded_shape
    blocks = _row_blocks(px, py)
    scratch = _block_scratch((4, blocks[0].stop, py))
    k = math.prod(lead)
    for rows in blocks:
        block = scratch[:, :rows.stop - rows.start]
        g = block[:k].reshape(lead + block.shape[1:])
        np.fft.irfft(half[..., rows, :], n=py, norm="forward", out=g)
        yield rows, g, block[k:]


def _truncate(grid: TorusGrid, samples: np.ndarray) -> Field:
    """Field of the modes of grid in samples on its padded_shape.

    The Nyquist row and column are the means of the padded -n/2 and +n/2
    ones, so the corner is the mean of the four padded corners.  The rows
    are transformed over y in row blocks, and their kept columns gathered
    in this thread's complex scratch of the padded half spectra, then
    transformed over x.  Only the half spectrum of the result is fresh.
    """
    hx, hy = grid.nx // 2, grid.ny // 2
    lead, (px, py) = samples.shape[:-2], samples.shape[-2:]
    blocks = _row_blocks(px, py)
    rows = _block_scratch(lead + (blocks[0].stop, py // 2 + 1), np.complex128)
    r = _scratch_array("spectrum", lead + (px, hy + 1), np.complex128)
    for block in blocks:
        out = rows[..., :block.stop - block.start, :]
        r[..., block, :] = np.fft.rfft(samples[..., block, :], norm="forward", out=out)[..., :hy + 1]
    np.fft.fft(r, axis=-2, norm="forward", out=r)
    half = np.concatenate([r[..., :hx, :], r[..., px - hx:, :]], axis=-2)
    half[..., hx, :] = 0.5 * (half[..., hx, :] + r[..., hx, :])
    # Column -n/2 is the mirror image of column +n/2: conj at -j1.
    nyquist = half[..., hy]
    half[..., hy] = 0.5 * (nyquist + np.conj(nyquist[..., (-np.arange(grid.nx)) % grid.nx]))
    return _owned(grid, spectrum=half)


def _dealiased(f: Field, g: Field, combine) -> Field:
    """combine(lifted f, lifted g), formed on the padded grid and truncated once.

    Both lifts are this thread's scratch, and f's serves for g when g is f;
    combine may build its result in scratch too, but never in the lifts.
    """
    grid = _operands([f, g])
    lf = _lift(f, "lift_f")
    return _truncate(grid, combine(lf, lf if g is f else _lift(g, "lift_g")))


def pointwise_product(f: Field, g: Field) -> Field:
    """Product fg formed on the grid's padded_shape, then truncated.

    Component axes broadcast.  The product of any two fields of the grid is
    exact there.
    """
    return _dealiased(f, g, lambda a, b: np.multiply(
        a, b, out=_scratch_array("acc", np.broadcast_shapes(a.shape, b.shape))))


def dot(J: Field, v: Field) -> Field:
    """Matrix-vector product (J v)_i = sum_j J_ij v_j of a 2x2 matrix field and
    a vector field, dealiased: v is lifted whole, J streamed by row blocks.
    A zero J or v gives a zero product with no transform."""
    grid = _operands([J, v])
    shapes = (J.spectrum.shape[:-2], v.spectrum.shape[:-2])
    if shapes != ((2, 2), (2,)):
        raise ValueError(f"dot takes components (2, 2) and (2,), not {shapes[0]} and {shapes[1]}")
    if _zero(J) or _zero(v):
        return _owned(grid, spectrum=np.zeros(v.spectrum.shape, np.complex128))
    lv = _lift(v, "lift_g")
    acc = _scratch_array("acc", lv.shape)
    for rows, g, _ in _padded_rows(J):
        np.multiply(g[:, 0], lv[0, rows], out=g[:, 0])
        np.multiply(g[:, 1], lv[1, rows], out=g[:, 1])
        np.add(g[:, 0], g[:, 1], out=acc[:, rows])
    return _truncate(grid, acc)


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


def _fold_rows(spectra: np.ndarray, hx: int) -> np.ndarray:
    """Real coefficients of the sums over x of a stack of half spectra (fields, nx, ny/2 + 1).

    Rows j1 and -j1 fold into c_j1 + c_-j1 on cos(2 pi j1 x), j1 = 0..nx/2 (the
    Nyquist row alone), and i (c_j1 - c_-j1) on sin(2 pi j1 x), j1 = 1..nx/2-1.
    Returns (fields, 2 (ny/2 + 1), nx): the real parts of the columns j2, then
    their imaginary parts, on the cos rows followed by the sin rows.
    """
    plus, minus = spectra[:, 1:hx], spectra[:, :hx:-1]
    c = np.concatenate([spectra[:, :1], plus + minus, spectra[:, hx:hx + 1], 1j * (plus - minus)], axis=1)
    return np.ascontiguousarray(np.concatenate([c.real, c.imag], axis=2).swapaxes(1, 2))


def eval_spectra(grid: TorusGrid, spectra: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 gradient: bool = False):
    """Direct trigonometric summation of a stack of half spectra at arbitrary points.

    spectra has shape (*components, nx, ny/2 + 1) and xs, ys share one
    shape; returns real values of shape (*components, *xs.shape).  The sums
    run on real bases: cos and sin of 2 pi j x and 2 pi j y, the real and
    imaginary parts of powers of one complex exp per point.  Rows +-j1 fold
    into cos and sin coefficients, so the sum over x is one real matmul per
    field; the sum over y pairs its real and imaginary parts with w cos and
    -w sin, w the column weights.  The Nyquist row and column are summed as
    cos(pi nx x) and cos(pi ny y), the corner as their product.  The bases
    are shared across the stack, so evaluating several fields at one point
    set costs little more than evaluating one.

    Every points-by-modes array lives in per-thread scratch that grows to
    the largest call and is then reused; only the results are fresh.  The
    fields are summed one at a time, so the scratch does not grow with the
    stack: with gradient=True at all n^2 points of an n-by-n grid, as
    `flow.invert` evaluates, each thread keeps 8 n^2 (5n + 8) bytes, 1.4 MB
    at 32^2, 10.7 MB at 64^2 and 85 MB at 128^2.

    With gradient=True, returns (values, first derivatives), the latter of
    shape (*components, 2, *xs.shape) with entry [..., j, :] = d/dx_j: the
    off-grid values of `gradient` of the stack, Nyquist modes zeroed.  d/dy
    reuses the sums over x; d/dx is summed over x with the same bases, from
    an x-differentiated copy of the stack.
    """
    spectra = np.asarray(spectra, dtype=np.complex128)
    lead, shape = spectra.shape[:-2], np.shape(xs)
    if spectra.shape[-2:] != grid.half_shape:
        raise ValueError(f"spectra of shape {spectra.shape} do not end in the half shape {grid.half_shape}")
    if np.shape(ys) != shape:
        raise ValueError(f"xs of shape {shape} and ys of shape {np.shape(ys)} differ")
    xs = np.ravel(np.asarray(xs, dtype=np.float64))
    ys = np.ravel(np.asarray(ys, dtype=np.float64))
    n, hx, hy = xs.size, grid.nx // 2, grid.ny // 2
    z = _scratch_array("powers", (max(hx, hy) + 1, n), np.complex128)
    bx = _scratch_array("x_basis", (grid.nx, n))
    _powers(xs, z[:hx + 1])
    bx[:hx + 1] = z[:hx + 1].real  # cos rows 0..nx/2, the last one cos(pi nx x)
    bx[hx + 1:] = z[1:hx].imag     # sin rows 1..nx/2-1
    by = _scratch_array("y_basis", (2 * (hy + 1), n))
    _powers(ys, z[:hy + 1])
    w = grid.column_weights[:, None]
    np.multiply(z[:hy + 1].real, w, out=by[:hy + 1])   # pairs Re P
    np.multiply(z[:hy + 1].imag, -w, out=by[hy + 1:])  # pairs Im P
    by[-1] = 0.0  # the Nyquist column is cos(pi ny y) alone
    stacked = spectra.reshape((-1,) + grid.half_shape)
    coeffs = _fold_rows(stacked, hx)
    partial = _scratch_array("partial", (2 * (hy + 1), n))
    values = np.empty((len(coeffs), n))
    if gradient:
        # d/dy of Re(P exp(2 pi i j2 y)) pairs Re P with -k w sin and Im P with -k w cos.
        k = grid.grad_symbol[1][0].imag[:, None]
        by_dy = _scratch_array("y_basis_dy", by.shape)
        np.multiply(by[hy + 1:], k, out=by_dy[:hy + 1])
        np.multiply(by[:hy + 1], -k, out=by_dy[hy + 1:])
        dx_coeffs = _fold_rows(stacked * grid.grad_symbol[0], hx)
        derivatives = np.empty((len(coeffs), 2, n))
    for f in range(len(coeffs)):
        np.matmul(coeffs[f], bx, out=partial)
        np.einsum("yp,yp->p", partial, by, out=values[f])
        if gradient:
            np.einsum("yp,yp->p", partial, by_dy, out=derivatives[f, 1])
            np.matmul(dx_coeffs[f], bx, out=partial)
            np.einsum("yp,yp->p", partial, by, out=derivatives[f, 0])
    if not gradient:
        return values.reshape(lead + shape)
    return values.reshape(lead + shape), derivatives.reshape(lead + (2,) + shape)


def cosine_mode(grid: TorusGrid, j1: int, j2: int, amplitude: float = 1.0,
                direction=(1.0, 1.0)) -> Field:
    """Vector field amplitude * cos(2*pi*(j1 x + j2 y)) * direction; j1 and j2 are integers."""
    j1, j2 = _integral(j1, "j1"), _integral(j2, "j2")
    if np.shape(direction) != (2,):
        raise ValueError(f"direction must be a pair, not {direction!r}")
    if abs(j1) >= grid.nx // 2 or abs(j2) >= grid.ny // 2:
        raise ValueError(f"mode ({j1}, {j2}) is not resolvable on grid {grid.shape}")
    wave = amplitude * np.cos(TWO_PI * (j1 * grid.x[:, None] + j2 * grid.y[None, :]))
    return Field(grid, np.multiply.outer(np.asarray(direction, dtype=np.float64), wave))


def random_bandlimited(grid: TorusGrid, seed: int, kmax: int, amplitude: float) -> Field:
    """Reproducible random real vector field with modes |j1|, |j2| <= kmax.

    The sup-norm over both components is scaled to `amplitude`; kmax = 0
    gives a constant field.
    """
    if kmax < 0:
        raise ValueError(f"kmax={kmax} must be >= 0")
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
