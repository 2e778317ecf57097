import re
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from torusflow import spectral
from torusflow.dynamics import euler_rhs, euler_rhs_geometric, momentum_transport
from torusflow.spectral import (
    Field,
    TorusGrid,
    VectorField,
    cosine_mode,
    divergence,
    dot,
    eval_spectra,
    gradient,
    h1_inner,
    helmholtz,
    helmholtz_inverse,
    l2_inner,
    laplacian,
    make_grid,
    partial_x,
    partial_y,
    pointwise_product,
    random_bandlimited,
    stack,
)

from conftest import TWO_PI, count_transforms, sample_scalar, sample_vector


class TestGrid:
    def test_sample_points(self):
        g = make_grid(8, 8)
        assert_allclose(g.x, np.arange(8) / 8.0)
        assert_allclose(g.y, np.arange(8) / 8.0)

    def test_rectangular_modes(self):
        g = make_grid(4, 8)
        assert sorted(g.modes_x.astype(int)) == [-2, -1, 0, 1]
        # the half spectrum keeps the columns j2 = 0..ny/2, in order
        assert list(g.modes_y.astype(int)) == [0, 1, 2, 3, 4]
        assert g.ksq.shape == g.grad_symbol.shape[1:] == g.helmholtz_symbol.shape == (4, 5)
        assert list(g.column_weights) == [1.0, 2.0, 2.0, 2.0, 1.0]

    @pytest.mark.parametrize("nx,ny", [(7, 8), (8, 7), (2, 8), (8, 0), (3, 3)])
    def test_rejects_bad_dimensions(self, nx, ny):
        with pytest.raises(ValueError):
            make_grid(nx, ny)

    @pytest.mark.parametrize("nx,ny", [(32.5, 32.9), (32, 32.5), (16.000001, 16), (float("nan"), 16),
                                       (float("inf"), 16)])
    def test_rejects_fractional_dimensions(self, nx, ny):
        # Never truncated: make_grid(32.5, 32.9) once built a 32-by-32 grid.
        with pytest.raises(ValueError, match="must be an integer"):
            make_grid(nx, ny)

    @pytest.mark.parametrize("nx,ny", [(16.0, 16), (np.int64(16), 8), (8, np.float64(16.0))])
    def test_integral_dimensions_of_any_type(self, nx, ny):
        g = make_grid(nx, ny)
        assert g == TorusGrid(int(nx), int(ny)) and type(g.nx) is int and type(g.ny) is int


class TestTransform:
    def test_constant_spectrum(self, grid32):
        f = Field(grid32, np.ones(grid32.shape))
        spec = f.spectrum
        assert abs(spec[0, 0] - 1.0) < 1e-14
        assert np.max(np.abs(spec)) == pytest.approx(1.0)
        off = spec.copy()
        off = np.array(off)
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-14

    def test_single_mode(self):
        g = make_grid(16, 16)
        f = sample_scalar(g, lambda x, y: np.sin(TWO_PI * x))
        spec = np.array(f.spectrum)
        assert abs(spec[1, 0] - (-0.5j)) < 1e-14
        assert abs(spec[-1, 0] - (0.5j)) < 1e-14
        spec[1, 0] = spec[-1, 0] = 0.0
        assert np.max(np.abs(spec)) < 1e-14

    def test_round_trip_random(self, grid32):
        rng = np.random.default_rng(42)
        vals = rng.standard_normal(grid32.shape)
        f = Field(grid32, vals)
        back = Field.from_spectrum(grid32, f.spectrum)
        assert_allclose(back.values, vals, rtol=0, atol=1e-12 * np.max(np.abs(vals)))

    def test_half_of_the_full_spectrum(self, grid32):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(grid32.shape)
        full = np.fft.fft2(vals, norm="forward")
        assert_allclose(Field(grid32, vals).spectrum, full[:, :grid32.ny // 2 + 1], atol=1e-15)

    def test_conjugate_symmetry(self, grid32):
        # columns 0 and ny/2 are their own mirror images: Hermitian along x
        rng = np.random.default_rng(3)
        spec = Field(grid32, rng.standard_normal(grid32.shape)).spectrum
        neg = (-np.arange(grid32.nx)) % grid32.nx
        for col in (0, grid32.ny // 2):
            assert_allclose(spec[:, col], np.conj(spec[neg, col]), atol=1e-13)

    def test_parseval(self, grid32):
        rng = np.random.default_rng(11)
        f = Field(grid32, rng.standard_normal(grid32.shape))
        weighted = np.sum(grid32.column_weights * np.abs(f.spectrum) ** 2)
        assert np.mean(f.values**2) == pytest.approx(weighted, rel=1e-12)

    def test_spectrum_first(self, grid32):
        f = Field(grid32, np.random.default_rng(4).standard_normal((2,) + grid32.shape))
        g = Field.from_spectrum(grid32, f.spectrum)
        assert g.spectrum is f.spectrum
        assert_allclose(g[1].values, f[1].values, atol=1e-14)
        assert not g.values.flags.writeable and not g.spectrum.flags.writeable

    def test_caller_arrays_are_copied(self, grid32):
        vals = np.random.default_rng(5).standard_normal((2,) + grid32.shape)
        spec = Field(grid32, vals).spectrum.copy()
        f, g = Field(grid32, vals), Field.from_spectrum(grid32, spec)
        expected_f, expected_g = f.values.copy(), g.spectrum.copy()
        vals += 1.0
        spec *= 2.0
        assert np.array_equal(f.values, expected_f) and np.array_equal(g.spectrum, expected_g)
        assert np.array_equal(f.spectrum, Field(grid32, expected_f).spectrum)
        assert np.array_equal(g.values, Field.from_spectrum(grid32, expected_g).values)

    def test_computed_forms_are_read_only(self, grid32):
        f = random_bandlimited(grid32, 6, kmax=3, amplitude=1.0)
        for h in (f, partial_x(f), gradient(f), divergence(f), f + f, 2.0 * f, stack([f[0], f[1]]),
                  pointwise_product(f, f)):
            assert not h.values.flags.writeable and not h.spectrum.flags.writeable

    def test_size_mismatch(self, grid32):
        with pytest.raises(ValueError):
            Field.from_spectrum(grid32, np.zeros((8, 8), dtype=complex))
        with pytest.raises(ValueError):
            Field.from_spectrum(grid32, np.zeros(grid32.shape, dtype=complex))
        with pytest.raises(ValueError):
            Field(grid32, np.zeros((8, 8)))


class TestDerivatives:
    def test_partial_x_single_mode(self, grid32):
        f = sample_scalar(grid32, lambda x, y: np.sin(TWO_PI * x))
        expected = sample_scalar(grid32, lambda x, y: TWO_PI * np.cos(TWO_PI * x))
        assert_allclose(partial_x(f).values, expected.values, atol=1e-12)

    def test_divergence_cross_terms(self, grid32):
        u = sample_vector(
            grid32,
            lambda x, y: np.sin(TWO_PI * y),
            lambda x, y: np.sin(TWO_PI * x),
        )
        assert divergence(u).sup_norm() < 1e-12

    def test_laplacian_eigenfunction(self, grid32):
        f = sample_scalar(grid32, lambda x, y: np.sin(TWO_PI * x) * np.sin(TWO_PI * y))
        assert_allclose(laplacian(f).values, -8.0 * np.pi**2 * f.values, atol=1e-10)

    def test_exact_on_every_paired_mode(self):
        g = make_grid(8, 8)
        X, Y = g.mesh
        for j1 in range(-3, 4):
            for j2 in range(-3, 4):
                phase = 0.3 * j1 - 0.1 * j2
                f = Field(g, np.cos(TWO_PI * (j1 * X + j2 * Y) + phase))
                dfx = Field(g, -TWO_PI * j1 * np.sin(TWO_PI * (j1 * X + j2 * Y) + phase))
                dfy = Field(g, -TWO_PI * j2 * np.sin(TWO_PI * (j1 * X + j2 * Y) + phase))
                assert np.max(np.abs(partial_x(f).values - dfx.values)) < 1e-11 * max(1, abs(j1))
                assert np.max(np.abs(partial_y(f).values - dfy.values)) < 1e-11 * max(1, abs(j2))

    def test_nyquist_cosine_derivative_is_zero(self):
        # cos(pi*nx*x) samples to (-1)^j; its analytic x-derivative samples to
        # zero at the grid points, which is what the zeroed multiplier returns
        g = make_grid(8, 8)
        X, _ = g.mesh
        f = Field(g, np.cos(TWO_PI * 4 * X))
        assert partial_x(f).sup_norm() < 1e-12

    def test_gradient_layout(self, grid32):
        u = sample_vector(
            grid32,
            lambda x, y: np.sin(TWO_PI * y),
            lambda x, y: np.cos(TWO_PI * x),
        )
        J = gradient(u)
        assert J[0, 0].sup_norm() < 1e-12
        assert_allclose(J[0, 1].values, sample_scalar(grid32, lambda x, y: TWO_PI * np.cos(TWO_PI * y)).values, atol=1e-12)
        assert_allclose(J[1, 0].values, sample_scalar(grid32, lambda x, y: -TWO_PI * np.sin(TWO_PI * x)).values, atol=1e-12)
        assert J[1, 1].sup_norm() < 1e-12


class TestHelmholtz:
    def test_fixes_constants(self, grid32):
        u = VectorField.constant(grid32, 1.0, 1.0)
        m = helmholtz(u)
        assert_allclose(m[0].values, 1.0)
        assert_allclose(m[1].values, 1.0)

    def test_single_mode_eigenvalue(self, grid32):
        f = sample_scalar(grid32, lambda x, y: np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
        u = stack([f, f * 0.0])
        m = helmholtz(u)
        assert_allclose(m[0].values, (1.0 + 8.0 * np.pi**2) * f.values, atol=1e-11)

    def test_inverse_single_mode(self, grid32):
        f = sample_scalar(grid32, lambda x, y: np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
        u = helmholtz_inverse(stack([f, f * 0.0]))
        assert_allclose(u[0].values, f.values / (1.0 + 8.0 * np.pi**2), atol=1e-13)

    def test_inverse_symbol_is_the_reciprocal(self):
        grid = make_grid(16, 24)
        assert grid.helmholtz_inverse_symbol is grid.helmholtz_inverse_symbol
        assert grid.helmholtz_inverse_symbol.tobytes() == (1.0 / grid.helmholtz_symbol).tobytes()

    def test_inverse_fixes_constants(self, grid32):
        u = helmholtz_inverse(VectorField.constant(grid32, 2.5, -1.0))
        assert_allclose(u[0].values, 2.5)
        assert_allclose(u[1].values, -1.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip(self, seed):
        g = make_grid(16, 16)
        u = random_bandlimited(g, seed, kmax=7, amplitude=1.0)
        back = helmholtz_inverse(helmholtz(u))
        assert (back - u).sup_norm() < 1e-12
        forward = helmholtz(helmholtz_inverse(u))
        assert (forward - u).sup_norm() < 1e-12


class TestInnerProducts:
    def test_h1_of_ones(self, grid32):
        one = VectorField.constant(grid32, 1.0, 1.0)
        assert h1_inner(one, one) == pytest.approx(2.0, abs=1e-14)

    def test_l2_of_sine(self, grid32):
        u = sample_vector(grid32, lambda x, y: np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        assert l2_inner(u, u) == pytest.approx(0.5, rel=1e-13)

    def test_h1_of_sine(self, grid32):
        u = sample_vector(grid32, lambda x, y: np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        assert h1_inner(u, u) == pytest.approx((1.0 + 4.0 * np.pi**2) / 2.0, rel=1e-13)

    def test_symmetry(self, grid32):
        u = random_bandlimited(grid32, 5, kmax=4, amplitude=1.0)
        v = random_bandlimited(grid32, 6, kmax=4, amplitude=1.0)
        assert l2_inner(u, v) == pytest.approx(l2_inner(v, u), rel=1e-12)
        assert h1_inner(u, v) == pytest.approx(h1_inner(v, u), rel=1e-12)

    def test_h1_positive_definite(self, grid32):
        u = random_bandlimited(grid32, 7, kmax=4, amplitude=1.0)
        assert h1_inner(u, u) > 0

    def test_spectral_matches_trapezoid(self, grid32):
        u = random_bandlimited(grid32, 8, kmax=7, amplitude=1.0)
        v = random_bandlimited(grid32, 9, kmax=7, amplitude=1.0)
        quad = np.mean(u[0].values * v[0].values) + np.mean(u[1].values * v[1].values)
        assert l2_inner(u, v) == pytest.approx(quad, abs=1e-10)

    def test_grid_mismatch(self, grid32):
        other = random_bandlimited(make_grid(16, 16), 0, kmax=2, amplitude=1.0)
        u = random_bandlimited(grid32, 0, kmax=2, amplitude=1.0)
        with pytest.raises(ValueError):
            l2_inner(u, other)


class TestDot:
    def test_rejects_misshaped_factors_before_any_lift(self, monkeypatch, grid16):
        lifts = []
        monkeypatch.setattr(spectral, "_lift", lambda *args: lifts.append(args))
        u = random_bandlimited(grid16, 0, kmax=2, amplitude=1.0)
        J = gradient(u)
        for matrix, vector, named in [(J, u[0], "(2, 2) and ()"), (stack([J, J]), u, "(2, 2, 2) and (2,)"),
                                      (u, u, "(2,) and (2,)")]:
            with pytest.raises(ValueError, match=re.escape(named)):
                dot(matrix, vector)
        assert lifts == []


class TestZeroRule:
    @pytest.mark.parametrize("zero", ["J", "v"])
    def test_dot_with_a_zero_factor_makes_no_transform(self, monkeypatch, grid16, zero):
        u = random_bandlimited(grid16, 0, kmax=2, amplitude=1.0)
        J = gradient(VectorField.constant(grid16, 1.0, -2.0) if zero == "J" else u)
        v = VectorField.zero(grid16) if zero == "v" else u
        J.spectrum, v.spectrum  # computed here, so dot transforms neither
        got = []
        with monkeypatch.context() as patch:
            for kernel in ("_lift", "_padded_rows", "_truncate"):
                patch.setattr(spectral, kernel, None)
            assert count_transforms(patch, lambda: got.append(dot(J, v)), grid16.padded_shape) == ([], [], 0)
        assert got[0].spectrum.shape == (2,) + grid16.half_shape and not got[0].spectrum.any()
        monkeypatch.setattr(spectral, "_zero", lambda f, mean=True: False)
        assert np.array_equal(dot(J, v).spectrum, got[0].spectrum)

    def test_dot_with_a_constant_factor_is_not_skipped(self, grid16):
        v = random_bandlimited(grid16, 0, kmax=2, amplitude=1.0)
        J = Field(grid16, np.broadcast_to(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None, None], (2, 2) + grid16.shape))
        expected = stack([v[0] + 2.0 * v[1], 3.0 * v[0] + 4.0 * v[1]])
        assert (dot(J, v) - expected).sup_norm() < 1e-14
        assert (dot(gradient(v), VectorField.constant(grid16, 1.0, 0.0)) - gradient(v)[:, 0]).sup_norm() < 1e-14

    @pytest.mark.parametrize("n, padded", [(16, 30), (24, 40), (40, 64), (96, 150)])
    def test_lift_of_a_constant_is_its_mean_with_no_transform(self, monkeypatch, n, padded):
        grid = make_grid(n, n)
        assert grid.padded_shape == (padded, padded)
        mean = np.zeros((2,) + grid.half_shape, np.complex128)
        mean[:, 0, 0] = (0.7, -2.5)
        for f in (Field.from_spectrum(grid, mean), VectorField.constant(grid, 0.0, 1.0)):
            f.spectrum  # computed here, so only the lift could transform
            got = []
            with monkeypatch.context() as patch:
                counted = count_transforms(patch, lambda: got.append(spectral._lift(f, "lift_f").copy()),
                                           grid.padded_shape)
            assert counted == ([], [], 0)
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_zero", lambda f, mean=True: False)
                assert spectral._lift(f, "lift_f").tobytes() == got[0].tobytes()

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("mode", [(0, 0), (0, 1), (1, 0), (0, 3), (0, 8), (2, 0), (15, 8)])
    def test_zero_reads_every_coefficient(self, grid16, component, mode):
        spectrum = np.zeros((2,) + grid16.half_shape, np.complex128)
        assert spectral._zero(Field.from_spectrum(grid16, spectrum))
        spectrum[(component,) + mode] = 1e-300
        f = Field.from_spectrum(grid16, spectrum)
        assert not spectral._zero(f)
        assert spectral._zero(f, mean=False) == (mode == (0, 0))


class TestPointwiseProduct:
    def test_product_to_sum(self, grid32):
        f = sample_scalar(grid32, lambda x, y: np.sin(TWO_PI * x))
        expected = sample_scalar(grid32, lambda x, y: 0.5 * (1.0 - np.cos(2 * TWO_PI * x)))
        got = pointwise_product(f, f)
        assert_allclose(got.values, expected.values, atol=1e-13)

    def test_identity_factor(self, grid32):
        one = Field(grid32, np.ones(grid32.shape))
        g = random_bandlimited(grid32, 1, kmax=9, amplitude=1.0)[0]
        assert (pointwise_product(one, g) - g).sup_norm() < 1e-13

    def test_matches_closed_form(self, grid32):
        f = sample_scalar(grid32, lambda x, y: np.sin(TWO_PI * x) * np.cos(2 * TWO_PI * y))
        g = sample_scalar(grid32, lambda x, y: np.cos(TWO_PI * x) * np.sin(TWO_PI * y))
        # product bandwidth (2, 3) fits the grid, so the dealiased product is
        # just the analytic product sampled at grid points
        X, Y = grid32.mesh
        expected = (np.sin(TWO_PI * X) * np.cos(2 * TWO_PI * Y)) * (np.cos(TWO_PI * X) * np.sin(TWO_PI * Y))
        assert_allclose(pointwise_product(f, g).values, expected, atol=1e-13)

    @given(s1=st.integers(0, 2**31 - 1), s2=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_alias_free_matches_direct(self, s1, s2):
        # bandwidth sum below Nyquist: plain sample product has no aliasing
        g = make_grid(32, 32)
        f1 = random_bandlimited(g, s1, kmax=7, amplitude=1.0)[0]
        f2 = random_bandlimited(g, s2, kmax=7, amplitude=1.0)[0]
        got = pointwise_product(f1, f2)
        assert np.max(np.abs(got.values - f1.values * f2.values)) < 1e-12

    def test_truncation_drops_high_modes(self):
        # j=15 squared on a 32-grid: true product has modes {0, +-30}; only the
        # mean survives truncation, while the aliased grid product would fold
        g = make_grid(32, 32)
        f = sample_scalar(g, lambda x, y: np.sin(15 * TWO_PI * x))
        got = pointwise_product(f, f)
        assert_allclose(got.values, 0.5, atol=1e-12)

    def test_oversampled_oracle(self):
        # reference: sample the interpolants on a 4x finer grid analytically,
        # multiply there, and read off the coarse-grid modes
        g = make_grid(16, 16)
        fine = make_grid(64, 64)
        terms_f = [(1, 2, 0.7), (3, -1, -0.4)]
        terms_g = [(2, 2, 0.5), (-1, 3, 0.9)]

        def build(terms):
            def fn(x, y):
                out = np.zeros_like(x)
                for j1, j2, a in terms:
                    out = out + a * np.cos(TWO_PI * (j1 * x + j2 * y) + 0.2 * j1)
                return out

            return fn

        f = sample_scalar(g, build(terms_f))
        h = sample_scalar(g, build(terms_g))
        Xf, Yf = fine.mesh
        dense = build(terms_f)(Xf, Yf) * build(terms_g)(Xf, Yf)
        dense_spec = np.fft.fft2(dense) / (64 * 64)
        idx = np.fft.fftfreq(16, d=1 / 16).astype(int)
        coarse_spec = dense_spec[np.ix_(idx, np.arange(9))]  # columns j2 = 0..8
        expected = Field.from_spectrum(g, coarse_spec)
        got = pointwise_product(f, h)
        assert (got - expected).sup_norm() < 1e-12



def _five_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestPaddedShape:
    """Per axis, the smallest even 5-smooth size at least 3n/2 + 2."""

    @staticmethod
    def minimal(n):
        return next(m for m in range(1, 4 * n)
                    if m % 2 == 0 and _five_smooth(m) and 2 * m >= 3 * n + 4)

    @pytest.mark.parametrize("n", range(4, 513, 2))
    def test_minimal_admissible_size(self, n):
        m = self.minimal(n)
        assert make_grid(n, 4).padded_shape[0] == m
        assert make_grid(4, n).padded_shape[1] == m

    @pytest.mark.parametrize("n, m", [(16, 30), (32, 50), (64, 100), (128, 200), (256, 400)])
    def test_paper_sizes(self, n, m):
        # 7 is not a factor: 98 and 196 would be the 7-smooth choices at 64 and 128.
        assert make_grid(n, n).padded_shape == (m, m)

    @pytest.mark.parametrize("nx, ny", [(16, 24), (24, 16), (6, 512), (130, 18)])
    def test_rectangular_per_axis(self, nx, ny):
        assert make_grid(nx, ny).padded_shape == (self.minimal(nx), self.minimal(ny))


# Factors for the dense oracle below: sums of terms a cos(2 pi j1 x + p1)
# cos(2 pi j2 y + p2) on a 16^2 (or 16x24) grid, each with content in the
# Nyquist row (j1 = nx/2, cosine phase), the Nyquist column and the corner.
# Such a sum is its own trigonometric interpolant, with the unpaired Nyquist
# coefficient split evenly between -n/2 and +n/2 in each axis, so products of
# the sums, formed on a 4x grid where they are exact, are what the dealiased
# products must return, read back under the same rule.
ORACLE_N = 16
NYQ = ORACLE_N // 2


def oracle_terms(rng, nyq=(NYQ, NYQ), count=3):
    a = rng.standard_normal(count + 3)
    j = rng.integers(1 - np.array(nyq), nyq, size=(count, 2))
    p = rng.uniform(0.0, TWO_PI, size=(count + 2, 2))
    terms = [(a[i], j[i, 0], p[i, 0], j[i, 1], p[i, 1]) for i in range(count)]
    jr, jc = rng.integers(0, nyq[::-1])
    terms.append((a[count], nyq[0], 0.0, jr, p[count, 1]))
    terms.append((a[count + 1], jc, p[count + 1, 0], nyq[1], 0.0))
    # The corner mode cos(pi nx x) cos(pi ny y).
    terms.append((a[count + 2], nyq[0], 0.0, nyq[1], 0.0))
    return terms


def oracle_derivative(terms, axis, nyq=(NYQ, NYQ)):
    """d/dx (axis 0) or d/dy (axis 1), zeroing the unpaired Nyquist mode as the library does."""
    out = []
    for a, j1, p1, j2, p2 in terms:
        j = (j1, j2)[axis]
        if j != nyq[axis]:
            shifted = [p1, p2]
            shifted[axis] += np.pi / 2
            out.append((TWO_PI * j * a, j1, shifted[0], j2, shifted[1]))
    return out


def oracle_sample(tree, X, Y):
    """Samples of a term list, or of a nested list of term lists as a component stack."""
    if isinstance(tree[0], tuple):
        return sum(a * np.cos(TWO_PI * j1 * X + p1) * np.cos(TWO_PI * j2 * Y + p2)
                   for a, j1, p1, j2, p2 in tree)
    return np.stack([oracle_sample(t, X, Y) for t in tree])


class TestDenseOracle:
    grid = make_grid(ORACLE_N, ORACLE_N)
    fine = make_grid(4 * ORACLE_N, 4 * ORACLE_N)

    @property
    def nyq(self):
        return (self.grid.nx // 2, self.grid.ny // 2)

    def terms(self, rng):
        return oracle_terms(rng, self.nyq)

    def derivative(self, terms, axis):
        return oracle_derivative(terms, axis, self.nyq)

    def field(self, tree):
        return Field(self.grid, oracle_sample(tree, *self.grid.mesh))

    def dense(self, tree):
        return oracle_sample(tree, *self.fine.mesh)

    def expected(self, dense):
        # The modes -n/2..n/2 of the dense product, the +-n/2 ones at half
        # weight in each axis, summed directly at the coarse grid points.
        idx = [np.arange(-h, h + 1) for h in self.nyq]
        half = [np.where(np.abs(i) == h, 0.5, 1.0) for i, h in zip(idx, self.nyq)]
        spec = np.fft.fft2(dense, norm="forward")[..., idx[0][:, None], idx[1][None, :]] * np.outer(*half)
        bx = np.exp(2j * np.pi * np.outer(idx[0], self.grid.x))
        by = np.exp(2j * np.pi * np.outer(idx[1], self.grid.y))
        return np.einsum("...jk,jx,ky->...xy", spec, bx, by).real

    def error(self, got, dense):
        """Sup-norm error of got against the oracle, relative to the oracle's sup-norm."""
        want = self.expected(dense)
        return np.max(np.abs(got.values - want)) / np.max(np.abs(want))

    def check(self, got, dense):
        assert self.error(got, dense) <= 1e-13
        # The product's half spectrum is the spectrum of its samples: its
        # Nyquist column is Hermitian, as products reuse it unsynthesized.
        resampled = Field(self.grid, got.values).spectrum
        assert np.max(np.abs(got.spectrum - resampled)) <= 1e-13 * np.max(np.abs(resampled))

    def test_products(self):
        rng = np.random.default_rng(11)
        f, g = self.terms(rng), self.terms(rng)
        J = [[self.terms(rng) for _ in range(2)] for _ in range(2)]
        v = [self.terms(rng) for _ in range(2)]
        dJ, dv = self.dense(J), self.dense(v)
        self.check(pointwise_product(self.field(f), self.field(g)), self.dense(f) * self.dense(g))
        self.check(pointwise_product(self.field(J), self.field(f)), dJ * self.dense(f))
        self.check(dot(self.field(J), self.field(v)), dJ[:, 0] * dv[0] + dJ[:, 1] * dv[1])

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_momentum_transport(self, b):
        rng = np.random.default_rng(12)
        m, v = [self.terms(rng) for _ in range(2)], [self.terms(rng) for _ in range(2)]
        dm, dv = self.dense(m), self.dense(v)
        grad_m = [[self.dense(self.derivative(m[i], j)) for j in range(2)] for i in range(2)]
        grad_v = [[self.dense(self.derivative(v[i], j)) for j in range(2)] for i in range(2)]
        div_v = grad_v[0][0] + grad_v[1][1]
        dense = np.stack([
            sum(grad_m[i][j] * dv[j] + grad_v[j][i] * dm[j] for j in range(2))
            + (b - 1.0) * dm[i] * div_v
            for i in range(2)
        ])
        self.check(momentum_transport(self.field(m), self.field(v), b), dense)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_euler_rhs_forms_agree(self, b):
        u = self.field([self.terms(np.random.default_rng(13)) for _ in range(2)])
        direct = euler_rhs(u, b)
        assert (direct - euler_rhs_geometric(u, b)).sup_norm() <= 1e-13 * direct.sup_norm()

    @pytest.mark.parametrize("margin, exact", [(2, True), (0, False)])
    def test_padded_size_margin(self, monkeypatch, margin, exact):
        # Nyquist x Nyquist terms reach +-n; on 3n/2 points they fold onto
        # +-n/2, one point more (even: two) keeps them off the kept modes.
        # d/dx keeps the y-Nyquist column, so derivative products fold too.
        shape = tuple(3 * n // 2 + margin for n in self.grid.shape)
        monkeypatch.setattr(TorusGrid, "padded_shape", property(lambda grid: shape))
        rng = np.random.default_rng(11)  # test_products' scalar factors
        f, g = self.terms(rng), self.terms(rng)
        products = [
            (pointwise_product(self.field(f), self.field(g)), self.dense(f) * self.dense(g)),
            (pointwise_product(partial_x(self.field(f)), self.field(g)),
             self.dense(self.derivative(f, 0)) * self.dense(g)),
        ]
        for got, dense in products:
            if exact:
                self.check(got, dense)
            else:
                assert self.error(got, dense) > 1e-2


class TestDenseOracleRectangular(TestDenseOracle):
    """The dense oracle on 16x24, padded to 30x40, with Nyquist content in both axes."""

    grid = make_grid(ORACLE_N, 24)
    fine = make_grid(4 * ORACLE_N, 4 * 24)


def direct_sum(grid, spectra, xs, ys):
    """Oracle for eval_spectra: one complex exp per point and mode, no shared powers."""
    spectra = np.asarray(spectra, dtype=np.complex128)
    shape = np.shape(xs)
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    ex = np.exp((2j * np.pi) * np.outer(xs, grid.modes_x))
    ey = np.exp((2j * np.pi) * np.outer(ys, grid.modes_y))
    ex[:, grid.nx // 2] = ex[:, grid.nx // 2].real
    ey[:, -1] = ey[:, -1].real
    ey *= grid.column_weights
    partial = np.tensordot(ex, spectra.reshape((-1,) + grid.half_shape), axes=([1], [1]))
    vals = np.einsum("pfy,py->fp", partial, ey).real
    return vals.reshape(spectra.shape[:-2] + shape)


def offgrid_points(seed, count=200):
    """Points in [-1, 2)^2 plus coordinates just below 1, just below 0 and above 1."""
    pts = np.random.default_rng(seed).uniform(-1.0, 2.0, size=(count, 2))
    edge = np.array([1.0 - 1e-12, 1.0 - 1e-7, 0.9999, -1e-12, -0.3, 1.0 + 1e-12, 1.7])
    return np.concatenate([pts, np.stack([edge, edge[::-1]], axis=1)])


# Square grids by size, and two rectangular ones: rows +-j1 fold in pairs
# along x only, so nx != ny keeps the two bases apart.
OFFGRID_GRIDS = [32, 64, 128, pytest.param((16, 24), id="16x24"), pytest.param((24, 16), id="24x16")]


def offgrid_grid(n):
    """The grid of an OFFGRID_GRIDS entry, and its mean side as a seed."""
    shape = n if isinstance(n, tuple) else (n, n)
    return make_grid(*shape), sum(shape) // 2


class TestEvalOffgrid:
    def test_closed_form_point(self, grid32):
        f = sample_scalar(grid32, lambda x, y: np.sin(TWO_PI * x))
        value = eval_spectra(grid32, f.spectrum, np.array([0.25]), np.array([0.9]))[0]
        assert value == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("spectra_shape, xs_shape, ys_shape, named", [
        ((9, 16), (4,), (4,), "(9, 16)"),
        ((16, 9), (2,), (1,), "(1,)"),
        ((16, 9), (2, 3), (6,), "(6,)"),
    ], ids=["transposed-spectrum", "broadcast-ys", "flat-ys"])
    def test_mis_shaped_input_rejected(self, grid16, spectra_shape, xs_shape, ys_shape, named):
        spectra = np.zeros(spectra_shape, dtype=complex)
        with pytest.raises(ValueError, match=re.escape(named)):
            eval_spectra(grid16, spectra, np.zeros(xs_shape), np.zeros(ys_shape))

    def test_matches_grid_samples(self, grid32):
        f = random_bandlimited(grid32, 21, kmax=10, amplitude=1.0)[0]
        pts = grid32.points
        vals = eval_spectra(grid32, f.spectrum, pts[:, 0], pts[:, 1])
        assert np.max(np.abs(vals - f.values.ravel())) < 1e-12

    def test_constant(self, grid32):
        f = Field(grid32, np.full(grid32.shape, 3.25))
        pts = np.random.default_rng(0).random((7, 2))
        assert_allclose(eval_spectra(grid32, f.spectrum, pts[:, 0], pts[:, 1]), 3.25, atol=1e-13)

    def test_spectral_accuracy_on_trig(self, grid32):
        f = sample_scalar(grid32, lambda x, y: np.cos(TWO_PI * (2 * x - y) + 0.3))
        pts = np.random.default_rng(1).random((50, 2))
        expected = np.cos(TWO_PI * (2 * pts[:, 0] - pts[:, 1]) + 0.3)
        assert_allclose(eval_spectra(grid32, f.spectrum, pts[:, 0], pts[:, 1]), expected, atol=1e-12)

    def test_nyquist_rule_off_grid(self):
        # Nyquist row, column and corner content is summed as cos(pi N x) and
        # cos(pi N y), the interpolant the dealiased products use.
        g = make_grid(ORACLE_N, ORACLE_N)
        terms = oracle_terms(np.random.default_rng(14))
        pts = np.random.default_rng(15).random((50, 2))
        f = Field(g, oracle_sample(terms, *g.mesh))
        expected = oracle_sample(terms, pts[:, 0], pts[:, 1])
        assert_allclose(eval_spectra(g, f.spectrum, pts[:, 0], pts[:, 1]), expected, atol=1e-13)

    @pytest.mark.parametrize("n", OFFGRID_GRIDS)
    def test_matches_direct_sum(self, n):
        # Full-band spectra: the Nyquist row, column and corner all carry content.
        g, n = offgrid_grid(n)
        spectra = Field(g, np.random.default_rng(n).standard_normal((2,) + g.shape)).spectrum
        pts = offgrid_points(n + 1)
        expected = direct_sum(g, spectra, pts[:, 0], pts[:, 1])
        got = eval_spectra(g, spectra, pts[:, 0], pts[:, 1])
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", OFFGRID_GRIDS)
    def test_gradient_matches_direct_sum(self, n):
        g, n = offgrid_grid(n)
        f = Field(g, np.random.default_rng(n + 2).standard_normal((2,) + g.shape))
        pts = offgrid_points(n + 3)
        vals, grad = eval_spectra(g, f.spectrum, pts[:, 0], pts[:, 1], gradient=True)
        expected = direct_sum(g, gradient(f).spectrum, pts[:, 0], pts[:, 1])
        assert grad.shape == (2, 2, len(pts))
        assert np.max(np.abs(grad - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(vals, eval_spectra(g, f.spectrum, pts[:, 0], pts[:, 1]))

    def test_gradient_nyquist_rule_off_grid(self):
        # d/dx and d/dy of the oracle sums, the unpaired Nyquist modes zeroed.
        g = make_grid(ORACLE_N, ORACLE_N)
        terms = oracle_terms(np.random.default_rng(16))
        pts = np.random.default_rng(17).random((50, 2))
        f = Field(g, oracle_sample(terms, *g.mesh))
        _, grad = eval_spectra(g, f.spectrum, pts[:, 0], pts[:, 1], gradient=True)
        for axis in (0, 1):
            expected = oracle_sample(oracle_derivative(terms, axis), pts[:, 0], pts[:, 1])
            assert_allclose(grad[axis], expected, atol=1e-12)


def full_band(grid, seed, components=(2,)):
    return Field(grid, np.random.default_rng(seed).standard_normal(components + grid.shape))


def in_fresh_thread(call):
    """call() run on a new thread, whose evaluation scratch starts empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(call()))
    worker.start()
    worker.join()
    return out[0]


class TestEvalScratch:
    """eval_spectra reuses per-thread buffers; no result may depend on them."""

    def test_result_survives_later_calls(self):
        # The later calls are no larger than the first, so they reuse its scratch.
        g, small = make_grid(32, 32), make_grid(16, 16)
        pts = offgrid_points(3)
        first = eval_spectra(g, full_band(g, 1).spectrum, pts[:, 0], pts[:, 1], gradient=True)
        kept = [a.copy() for a in first]
        eval_spectra(small, full_band(small, 2, (2, 2)).spectrum, pts[:100, 0], pts[:100, 1], gradient=True)
        eval_spectra(g, full_band(g, 3).spectrum, pts[:40, 0], pts[:40, 1])
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))

    def test_grow_then_shrink_matches_fresh_calls(self):
        # Points and fields grow, then shrink, on one thread; each call must
        # give the bits of the same call on a thread with empty scratch.
        calls = []
        for n, components, count, grad in [(16, (), 20, False), (32, (2,), 300, True),
                                           (32, (2, 2), 1200, True), (16, (2,), 60, True),
                                           (32, (), 5, False)]:
            g = make_grid(n, n)
            spectra = full_band(g, len(calls), components).spectrum
            pts = offgrid_points(len(calls) + 10, count=count)
            calls.append(partial(eval_spectra, g, spectra, pts[:, 0], pts[:, 1], gradient=grad))
        for call in calls:
            got, fresh = call(), in_fresh_thread(call)
            if isinstance(got, tuple):
                assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
            else:
                assert np.array_equal(got, fresh)


class TestCosineMode:
    @pytest.mark.parametrize("j1,j2", [(1.5, 0), (0, 1.5), (1, 1e-9), (TWO_PI, TWO_PI), (float("nan"), 1)])
    def test_rejects_fractional_indices(self, grid16, j1, j2):
        # Never reinterpreted: cosine_mode(grid, 1.5, 0) once sampled cos(3 pi x), not a torus mode.
        with pytest.raises(ValueError, match="must be an integer"):
            cosine_mode(grid16, j1, j2)

    @pytest.mark.parametrize("direction", [(1.0, 1.0, 1.0), (1.0,), [[1.0, 0.0]], 1.0])
    def test_direction_must_be_a_pair(self, grid16, direction):
        # A three-entry direction once gave a three-component field.
        with pytest.raises(ValueError, match="direction must be a pair"):
            cosine_mode(grid16, 1, 0, direction=direction)

    def test_integral_floats_are_the_same_mode(self, grid16):
        assert np.array_equal(cosine_mode(grid16, 3.0, -2.0).values, cosine_mode(grid16, 3, -2).values)

    def test_broadcast_wave_leaves_the_mesh_unbuilt(self):
        grid = make_grid(16, 24)
        u = cosine_mode(grid, 3, -2, 0.7, (1.0, -0.5))
        assert "mesh" not in vars(grid)
        X, Y = grid.mesh
        wave = 0.7 * np.cos(TWO_PI * (3 * X + -2 * Y))
        assert u.values.tobytes() == np.stack([wave, -0.5 * wave]).tobytes()


class TestRandomBandlimited:
    def test_zero_amplitude(self, grid32):
        u = random_bandlimited(grid32, 0, kmax=3, amplitude=0.0)
        assert u.sup_norm() == 0.0

    def test_deterministic(self, grid32):
        a = random_bandlimited(grid32, 123, kmax=3, amplitude=0.5)
        b = random_bandlimited(grid32, 123, kmax=3, amplitude=0.5)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_spectral_support(self):
        g = make_grid(32, 32)
        u = random_bandlimited(g, 9, kmax=2, amplitude=1.0)
        for comp in (u[0], u[1]):
            spec = comp.spectrum
            mask = (np.abs(g.modes_x)[:, None] > 2) | (np.abs(g.modes_y)[None, :] > 2)
            assert np.max(np.abs(spec[mask])) < 1e-15

    def test_amplitude_scaling(self, grid32):
        u = random_bandlimited(grid32, 4, kmax=3, amplitude=0.125)
        assert u.sup_norm() == pytest.approx(0.125, rel=1e-12)

    def test_kmax_guard(self):
        g = make_grid(8, 8)
        with pytest.raises(ValueError):
            random_bandlimited(g, 0, kmax=4, amplitude=1.0)

    def test_rejects_negative_kmax(self, grid16):
        # Once an all-zero field.
        with pytest.raises(ValueError, match=re.escape("kmax=-1 must be >= 0")):
            random_bandlimited(grid16, 0, kmax=-1, amplitude=1.0)

    def test_kmax_zero_is_a_constant_field(self, grid16):
        u = random_bandlimited(grid16, 0, kmax=0, amplitude=0.5)
        assert u.sup_norm() == pytest.approx(0.5, rel=1e-12)
        assert np.ptp(u.values, axis=(1, 2)) == pytest.approx([0.0, 0.0], abs=1e-15)
