import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from torusflow.dynamics import (
    BlowupError,
    ConservationReport,
    EulerState,
    ad_star,
    check_commuting_identity,
    check_metric_compatibility,
    christoffel,
    commutator,
    conservation_report,
    conservation_row,
    euler_rhs,
    euler_rhs_geometric,
    hamiltonian,
    helmholtz_1d,
    integrate,
    integrate_1d,
    march,
    mch2_rhs,
    momentum_transport,
    profile_1d,
    rhs_1d_b,
    rk4,
    validate_b,
)
from torusflow import spectral
from torusflow.spectral import (
    Field,
    VectorField,
    divergence,
    dot,
    gradient,
    helmholtz,
    helmholtz_inverse,
    make_grid,
    partial_x,
    partial_y,
    pointwise_product,
    random_bandlimited,
    stack,
)

from conftest import TWO_PI, count_transforms, sample_scalar, sample_vector


def e1(grid):
    return VectorField.constant(grid, 1.0, 0.0)


def lift_x(grid, samples):
    """Tile a 1D array of length nx into a y-independent field."""
    samples = np.asarray(samples, dtype=np.float64)
    assert samples.size == grid.nx
    return np.tile(samples[:, None], (1, grid.ny))


def bandlimited_1d(n, seed, kmax, amplitude):
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    g = np.zeros(n)
    for k in range(1, kmax + 1):
        a, b = rng.standard_normal(2)
        g += a * np.sin(TWO_PI * k * x) + b * np.cos(TWO_PI * k * x)
    return amplitude * g / max(np.max(np.abs(g)), 1e-30)


class TestValidateB:
    def test_accepts_reals(self):
        assert validate_b(2) == 2.0
        assert validate_b(2.5) == 2.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            validate_b(bad)


class TestBOperator:
    """The quadratic operator B(u, v) = -ad_star(v, u, b) of the momentum form."""

    def test_constant_pair_vanishes(self, grid32):
        c = VectorField.constant(grid32, 0.7, -0.3)
        assert ad_star(c, c, 3.0).sup_norm() < 1e-13

    @pytest.mark.parametrize("b", [2.0, 2.7])
    def test_right_slot_constant_is_transport(self, grid64, b):
        v = random_bandlimited(grid64, seed=11, kmax=3, amplitude=0.5)
        got = -ad_star(e1(grid64), v, b)
        expected = -stack([partial_x(v[0]), partial_x(v[1])])
        assert (got - expected).sup_norm() < 1e-11

    def test_left_slot_constant_reduction(self, grid64):
        v = random_bandlimited(grid64, seed=12, kmax=3, amplitude=0.5)
        got = -ad_star(v, e1(grid64), 2.0)
        zero = Field(grid64, np.zeros(grid64.shape))
        expected = -helmholtz_inverse(
            stack([partial_x(v[0]), partial_y(v[0])]) + stack([divergence(v), zero])
        )
        assert (got - expected).sup_norm() < 1e-12

    def test_grid_mismatch(self, grid32, grid64):
        u = random_bandlimited(grid32, seed=1, kmax=2, amplitude=0.1)
        v = random_bandlimited(grid64, seed=1, kmax=2, amplitude=0.1)
        with pytest.raises(ValueError):
            ad_star(v, u, 2.0)


class TestChristoffel:
    def test_constant_pair_vanishes(self, grid32):
        c = VectorField.constant(grid32, 0.4, 0.9)
        assert christoffel(c, c, 2.0).sup_norm() < 1e-13

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), b=st.sampled_from([2.0, 2.5, 3.0]))
    def test_symmetric(self, grid32, seed, b):
        u = random_bandlimited(grid32, seed=seed, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid32, seed=seed + 77, kmax=3, amplitude=0.5)
        assert (christoffel(u, v, b) - christoffel(v, u, b)).sup_norm() < 1e-12

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_equal_arguments_one_transport(self, grid32, b):
        # christoffel(u, u) computes one transport and doubles it; a distinct
        # copy of u takes the two-transport path.  Full band, Nyquist included.
        u = Field(grid32, np.random.default_rng(41).standard_normal((2,) + grid32.shape))
        assert np.array_equal(christoffel(u, u, b).values, christoffel(u, Field(u.grid, u.values), b).values)

    def test_left_slot_constant_reduction(self, grid64):
        v = random_bandlimited(grid64, seed=21, kmax=3, amplitude=0.5)
        got = christoffel(e1(grid64), v, 2.0)
        zero = Field(grid64, np.zeros(grid64.shape))
        expected = -0.5 * helmholtz_inverse(
            stack([partial_x(v[0]), partial_y(v[0])]) + stack([divergence(v), zero])
        )
        assert (got - expected).sup_norm() < 1e-11


class TestEulerRhs:
    @pytest.mark.parametrize("b", [2.0, 2.5, 3.0])
    def test_constants_are_equilibria(self, grid32, b):
        c = VectorField.constant(grid32, -0.6, 0.25)
        assert euler_rhs(c, b).sup_norm() < 1e-13

    @pytest.mark.parametrize("b", [2.0, 2.5, 3.0])
    def test_forms_agree(self, grid64, b):
        u = random_bandlimited(grid64, seed=31, kmax=3, amplitude=0.3)
        direct = euler_rhs(u, b)
        geometric = euler_rhs_geometric(u, b)
        assert (direct - geometric).sup_norm() < 1e-11

    def test_y_independent_reduces_to_1d(self):
        grid = make_grid(64, 16)
        g = bandlimited_1d(64, seed=5, kmax=3, amplitude=0.2)
        u = VectorField.from_values(grid, lift_x(grid, g), np.zeros(grid.shape))
        for b in (2.0, 3.0):
            du = euler_rhs(u, b)
            assert du[1].sup_norm() == 0.0
            expected = rhs_1d_b(g, b)
            assert_allclose(du[0].values, lift_x(grid, expected), atol=1e-11)


class TestTransformBudget:
    """The fused kernels at 16^2: no complex FFT on the padded grid, no
    complex 2D transform on any grid, and at most a fixed number of padded
    real transforms, counted in 2D planes; a row block counts as its share
    of a plane.

    euler_rhs lifts m, u and the four rows of grad m and grad u, each pair
    of rows over y in row blocks (12 planes), and truncates one vector (2);
    christoffel lifts u, v, Au, Av and the eight rows of their gradients
    (24) and truncates two vectors (4); christoffel of u with itself runs one
    transport, lifting u once, Au and the four rows of grad u and grad Au
    (12), and truncates two vectors (4).  Cutting the planes into more row
    blocks adds no transform.
    """

    PADDED = make_grid(16, 16).padded_shape

    CALLS = {"euler_rhs": lambda u, v: euler_rhs(u, 2.0), "christoffel": lambda u, v: christoffel(u, v, 2.0),
             "christoffel_self": lambda u, v: christoffel(u, u, 2.0)}

    @pytest.mark.parametrize("name, ceiling", [("euler_rhs", 14), ("christoffel", 28), ("christoffel_self", 16)])
    def test_padded_transforms(self, monkeypatch, name, ceiling):
        grid = make_grid(16, 16)
        u, v = random_bandlimited(grid, 1, 3, 0.5), random_bandlimited(grid, 2, 3, 0.5)
        complex_padded, complex_2d, real_planes = count_transforms(
            monkeypatch, lambda: self.CALLS[name](u, v), self.PADDED)
        assert complex_padded == []
        assert complex_2d == []
        assert 0 < real_planes <= ceiling

    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_component_streams_no_gradient_rows(self, monkeypatch, constant):
        # m and v lifted (4), the rows of grad m (4) and of the other
        # component of v (2), one vector truncated (2): 12, where streaming
        # both components' rows takes 14.  The bits are those of the full path.
        grid = make_grid(16, 16)
        m, w = random_bandlimited(grid, 1, 3, 0.5), random_bandlimited(grid, 2, 3, 0.5)
        parts = [w[0], VectorField.constant(grid, 0.5, 0.5)[0]]
        v = stack(parts[::-1] if constant == 0 else parts)
        got = []
        with monkeypatch.context() as patch:
            complex_padded, complex_2d, real_planes = count_transforms(
                patch, lambda: got.append(momentum_transport(m, v, 2.0)), self.PADDED)
        assert complex_padded == [] and complex_2d == []
        assert real_planes == 4 + 4 + 2 + 2 == 12
        monkeypatch.setattr(spectral, "_zero", lambda f, mean=True: False)
        assert momentum_transport(m, v, 2.0).spectrum.tobytes() == got[0].spectrum.tobytes()

    @pytest.mark.parametrize("name", CALLS)
    def test_row_blocks_add_no_transform(self, monkeypatch, name):
        grid = make_grid(16, 16)
        u, v = random_bandlimited(grid, 1, 3, 0.5), random_bandlimited(grid, 2, 3, 0.5)
        with monkeypatch.context() as patch:
            whole = count_transforms(patch, lambda: self.CALLS[name](u, v), self.PADDED)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_BLOCK_BYTES", 4 * 8 * self.PADDED[1])
            assert len(spectral._row_blocks(*self.PADDED)) > 1
            assert count_transforms(patch, lambda: self.CALLS[name](u, v), self.PADDED) == whole


class TestSpectralAlgebra:
    """Sums, differences, real multiples and stacks act on half spectra, so
    an RK4 step transforms on the padded grid only, beside the guard's one
    synthesis of samples."""

    FULL = ("rfft2", "irfft2")  # the unpadded transforms: Field's two forms

    @staticmethod
    def transforms(monkeypatch, call) -> list[tuple[str, tuple, tuple]]:
        """(name, input shape, output shape) of every numpy.fft call made by call()."""
        calls = []

        def spy(name, original):
            def wrapped(a, *args, **kwargs):
                out = original(a, *args, **kwargs)
                calls.append((name, np.shape(a), np.shape(out)))
                return out
            return wrapped

        with monkeypatch.context() as patch:
            for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                         "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
                patch.setattr(np.fft, name, spy(name, getattr(np.fft, name)))
            call()
        return calls

    def test_one_step_transforms_its_stages_and_the_guard(self, monkeypatch, grid16):
        u0 = random_bandlimited(grid16, 1, 3, 0.5)
        u0.values, u0.spectrum  # both forms, so the initial sup norm transforms nothing
        stage = self.transforms(monkeypatch, lambda: euler_rhs(u0, 2.0))
        step = self.transforms(monkeypatch, lambda: integrate(u0, 2.0, 1e-3, 1e-3))
        px, py = grid16.padded_shape
        assert stage and all({px, py} & {*a[-2:], *b[-2:]} for _, a, b in stage)
        assert [c for c in step if c[0] not in self.FULL] == 4 * stage
        assert [c for c in step if c[0] in self.FULL] == [("irfft2", (2,) + grid16.half_shape, (2,) + grid16.shape)]

    def test_combinations_of_spectra_transform_nothing(self, monkeypatch, grid16):
        u = Field.from_spectrum(grid16, random_bandlimited(grid16, 2, 3, 0.5).spectrum)
        v = Field.from_spectrum(grid16, random_bandlimited(grid16, 3, 3, 0.5).spectrum)
        results = []
        assert self.transforms(monkeypatch, lambda: results.append(
            stack([u + v, u - v, 2.5 * u, v * -0.5, -u]).spectrum)) == []
        expected = [u.spectrum + v.spectrum, u.spectrum - v.spectrum, u.spectrum * 2.5,
                    v.spectrum * -0.5, u.spectrum * -1.0]
        assert np.array_equal(results[0], np.stack(expected))


class TestRowBlocks:
    """The transports, dot and the truncations cut the padded planes into
    row blocks once a plane exceeds spectral._BLOCK_BYTES: the gradient rows
    of the transports, the rows of dot's matrix J and the rows each
    truncation transforms.  Every output bit is the same as from whole
    planes."""

    @pytest.mark.parametrize("n", [16, 32])
    def test_uneven_blocks_change_no_bit(self, monkeypatch, n):
        grid = make_grid(n, n)
        u, v = random_bandlimited(grid, 5, 3, 0.5), random_bandlimited(grid, 6, 3, 0.5)
        J = gradient(u)
        calls = [
            lambda: euler_rhs(u, 2.0),
            lambda: euler_rhs(u, 2.5),
            lambda: christoffel(u, v, 2.0),
            lambda: christoffel(u, v, 3.0),
            lambda: christoffel(u, u, 2.0),
            lambda: christoffel(u, u, 3.0),
            lambda: dot(J, v),
            lambda: pointwise_product(J, u[1]),
        ]
        px, py = grid.padded_shape
        assert len(spectral._row_blocks(px, py)) == 1
        whole = [call().spectrum.tobytes() for call in calls]
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 4 * 8 * py)  # 4 rows a block
        sizes = {block.stop - block.start for block in spectral._row_blocks(px, py)}
        assert len(sizes) == 2 and max(sizes) == 4  # the last block is shorter
        assert [call().spectrum.tobytes() for call in calls] == whole


def on_fresh_thread(call):
    """call() on a new thread, whose scratch starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(call).result(timeout=120)


class TestScratch:
    """The dealiased products run in per-thread scratch that grows to the
    largest call and is then reused."""

    # Warm tracemalloc peaks at 64^2 with every padded plane allocated afresh
    # on each call, as the kernel once did (numpy 2.4.6).
    FRESH_PEAK = {"euler_rhs": 1.19e6, "christoffel": 1.74e6}

    @pytest.mark.parametrize("name", ["euler_rhs", "christoffel"])
    def test_warm_call_allocates_a_third(self, grid64, name):
        u, v = random_bandlimited(grid64, 1, 3, 0.5), random_bandlimited(grid64, 2, 3, 0.5)
        call = {"euler_rhs": lambda: euler_rhs(u, 2.0), "christoffel": lambda: christoffel(u, v, 2.0)}[name]
        call()  # grows this thread's scratch and caches the spectra
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= self.FRESH_PEAK[name] / 3

    # n -> padded size M and rows r of a row block, as the spectral docstring gives them.
    PADDED_ROWS = {32: (50, 50), 64: (100, 100), 128: (200, 50)}

    @staticmethod
    def kept_bytes(calls) -> int:
        """Scratch bytes a fresh thread keeps after running calls."""
        def run():
            for call in calls:
                call()
            return sum(a.nbytes for a in vars(spectral._scratch).values())
        return on_fresh_thread(run)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_euler_rhs_keeps_the_documented_bytes(self, n):
        grid = make_grid(n, n)
        M, r = self.PADDED_ROWS[n]
        assert grid.padded_shape == (M, M) and spectral._row_blocks(M, M)[0].stop == r
        u = random_bandlimited(grid, 1, 3, 0.5)
        kept = self.kept_bytes([lambda: euler_rhs(u, 2.0)])
        assert kept == 48 * M * M + 16 * M * (n + 2) + 32 * M * r
        assert kept <= 3.0e6

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_every_product_keeps_the_documented_bytes(self, n):
        grid = make_grid(n, n)
        M, r = self.PADDED_ROWS[n]
        u, v = random_bandlimited(grid, 1, 3, 0.5), random_bandlimited(grid, 2, 3, 0.5)
        J = gradient(u)
        kept = self.kept_bytes([lambda: euler_rhs(u, 2.0), lambda: christoffel(u, v, 2.0),
                                lambda: christoffel(u, u, 2.0), lambda: dot(J, v),
                                lambda: pointwise_product(J, u[1])])
        assert kept == 112 * M * M + 32 * M * (n + 2) + 32 * r * (M + 2)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_dot_keeps_no_plane_of_its_matrix(self, n):
        # v's lift and the sum are whole planes; J's samples live only in row blocks.
        grid = make_grid(n, n)
        M, r = self.PADDED_ROWS[n]
        J, v = gradient(random_bandlimited(grid, 1, 3, 0.5)), random_bandlimited(grid, 2, 3, 0.5)
        assert self.kept_bytes([lambda: dot(J, v)]) == 32 * M * M + 32 * M * (n + 2) + 32 * M * r

    def test_interleaved_grids_match_a_fresh_thread(self):
        calls = []
        for shape in [(16, 16), (16, 24), (32, 32)]:
            grid = make_grid(*shape)
            u, v = random_bandlimited(grid, 3, 3, 0.5), random_bandlimited(grid, 4, 3, 0.5)
            J = gradient(u)  # a 2x2 stack
            calls += [
                lambda u=u: euler_rhs(u, 2.5),
                lambda u=u, v=v: christoffel(u, v, 3.0),
                lambda u=u: christoffel(u, u, 2.0),
                lambda J=J, v=v: dot(J, v),
                lambda J=J, u=u: pointwise_product(J, u[1]),
            ]
        fresh = [on_fresh_thread(call).spectrum.tobytes() for call in calls]
        # Forward, backward, then one call per grid in turn: every scratch
        # array is reused at smaller, larger and differently shaped sizes.
        k = len(calls) // 3
        order = [*range(len(calls)), *reversed(range(len(calls))),
                 *(g * k + i for i in range(k) for g in (2, 0, 1))]
        warm = on_fresh_thread(lambda: [calls[i]().spectrum.tobytes() for i in order])
        assert [fresh[i] for i in order] == warm


class TestCommutingIdentity:
    def test_zero_fields(self, grid32):
        z = VectorField.zero(grid32)
        assert check_commuting_identity(z, z) == 0.0

    def test_constant_first_argument(self, grid64):
        v = random_bandlimited(grid64, seed=41, kmax=3, amplitude=0.5)
        assert check_commuting_identity(e1(grid64), v) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_bandlimited(self, grid64, seed):
        u = random_bandlimited(grid64, seed=seed, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid64, seed=seed + 100, kmax=3, amplitude=0.5)
        assert check_commuting_identity(u, v) < 1e-10


class TestCommutator:
    def test_self_bracket_vanishes(self, grid32):
        u = random_bandlimited(grid32, seed=51, kmax=3, amplitude=0.8)
        assert commutator(u, u).sup_norm() == 0.0

    def test_constant_left_slot(self, grid64):
        v = random_bandlimited(grid64, seed=52, kmax=3, amplitude=0.5)
        got = commutator(e1(grid64), v)
        expected = -stack([partial_x(v[0]), partial_x(v[1])])
        assert (got - expected).sup_norm() < 1e-12

    def test_antisymmetric(self, grid32):
        u = random_bandlimited(grid32, seed=53, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid32, seed=54, kmax=3, amplitude=0.5)
        assert (commutator(u, v) + commutator(v, u)).sup_norm() == 0.0

    def test_jacobi_identity(self, grid64):
        u = random_bandlimited(grid64, seed=55, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid64, seed=56, kmax=3, amplitude=0.5)
        w = random_bandlimited(grid64, seed=57, kmax=3, amplitude=0.5)
        total = (
            commutator(commutator(u, v), w)
            + commutator(commutator(v, w), u)
            + commutator(commutator(w, u), v)
        )
        assert total.sup_norm() < 1e-10


class TestAdStar:
    def test_zero_velocity(self, grid32):
        w = random_bandlimited(grid32, seed=61, kmax=3, amplitude=0.5)
        assert ad_star(VectorField.zero(grid32), w).sup_norm() == 0.0

    def test_constant_velocity_transports_momentum(self, grid64):
        c = VectorField.constant(grid64, 0.3, -0.2)
        w = random_bandlimited(grid64, seed=62, kmax=3, amplitude=0.5)
        aw = helmholtz(w)
        expected = helmholtz_inverse(dot(gradient(aw), c))
        assert (ad_star(c, w) - expected).sup_norm() < 1e-12

    @pytest.mark.parametrize("b", [2.0, 2.7])
    def test_self_action_is_negative_rhs(self, grid64, b):
        u = random_bandlimited(grid64, seed=63, kmax=3, amplitude=0.3)
        assert (euler_rhs(u, b) + ad_star(u, u, b)).sup_norm() < 1e-11


class TestHamiltonian:
    def test_zero(self, grid32):
        assert hamiltonian(VectorField.zero(grid32)) == 0.0

    def test_unit_constant(self, grid32):
        assert abs(hamiltonian(VectorField.constant(grid32, 1.0, 1.0)) - 1.0) < 1e-13

    def test_single_mode(self, grid32):
        u = sample_vector(grid32, lambda x, y: np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        assert abs(hamiltonian(u) - (1.0 + 4.0 * np.pi**2) / 4.0) < 1e-12


class TestMetricCompatibility:
    def test_zero_triple(self, grid32):
        z = VectorField.zero(grid32)
        assert check_metric_compatibility(z, z, z) == 0.0

    def test_constant_transport_slot(self, grid64):
        v = random_bandlimited(grid64, seed=71, kmax=3, amplitude=0.5)
        assert check_metric_compatibility(e1(grid64), v, v) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_triple_b2(self, grid64, seed):
        u = random_bandlimited(grid64, seed=seed, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid64, seed=seed + 10, kmax=3, amplitude=0.5)
        w = random_bandlimited(grid64, seed=seed + 20, kmax=3, amplitude=0.5)
        assert check_metric_compatibility(u, v, w, b=2.0) < 1e-10

    def test_b3_violates(self, grid64):
        u = random_bandlimited(grid64, seed=72, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid64, seed=73, kmax=3, amplitude=0.5)
        w = random_bandlimited(grid64, seed=74, kmax=3, amplitude=0.5)
        assert check_metric_compatibility(u, v, w, b=3.0) > 1e-3


class TestIntegration:
    def test_state_momentum_is_derived(self, grid32):
        u = random_bandlimited(grid32, seed=81, kmax=2, amplitude=0.1)
        s = EulerState(0.0, u)
        assert (s.m - helmholtz(u)).sup_norm() == 0.0

    def test_constant_is_fixed_point(self, grid32):
        c = VectorField.constant(grid32, 0.2, -0.1)
        traj = integrate(c, 3.0, t_end=0.01, dt=1e-3)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.01, abs=1e-15)
        assert (traj.final.u - c).sup_norm() < 1e-13

    def test_record_stride(self, grid32):
        u = random_bandlimited(grid32, seed=83, kmax=2, amplitude=0.02)
        traj = integrate(u, 2.0, t_end=0.01, dt=1e-3, record_stride=4)
        assert_allclose(traj.times, [0.0, 0.004, 0.008, 0.01])

    def test_fourth_order_self_convergence(self, grid32):
        u0 = random_bandlimited(grid32, seed=7, kmax=2, amplitude=0.05)
        t_end = 0.05
        ref = integrate(u0, 3.0, t_end, dt=t_end / 80).final.u
        e1_ = (integrate(u0, 3.0, t_end, dt=t_end / 10).final.u - ref).sup_norm()
        e2_ = (integrate(u0, 3.0, t_end, dt=t_end / 20).final.u - ref).sup_norm()
        assert e2_ > 1e-14, "error too close to roundoff to measure order"
        assert 12.0 < e1_ / e2_ < 20.0

    def test_blowup_abort(self, grid32):
        u0 = random_bandlimited(grid32, seed=84, kmax=2, amplitude=0.05)
        with pytest.raises(BlowupError):
            integrate(u0, 3.0, t_end=0.01, dt=1e-3, blowup_factor=1e-6)

    def test_nonfinite_abort(self, grid32):
        vals = np.zeros(grid32.shape)
        vals[0, 0] = np.nan
        u0 = VectorField.from_values(grid32, vals, np.zeros(grid32.shape))
        with pytest.raises(BlowupError):
            integrate(u0, 2.0, t_end=0.002, dt=1e-3)

    def test_rejects_partial_steps(self, grid32):
        u0 = VectorField.zero(grid32)
        with pytest.raises(ValueError):
            integrate(u0, 2.0, t_end=0.0105, dt=1e-3)

    def test_energy_conservation_short_b2(self, grid32):
        u0 = random_bandlimited(grid32, seed=85, kmax=2, amplitude=0.02)
        traj = integrate(u0, 2.0, t_end=0.05, dt=1e-3)
        report = conservation_report(traj)
        assert report.hamiltonian_drift < 1e-8
        assert list(report.hamiltonian) == [hamiltonian(s.u) for s in traj.states]

    def test_state_is_built_once_per_record(self, grid16):
        u0 = random_bandlimited(grid16, seed=87, kmax=2, amplitude=0.05)
        built = []

        def state(t, u):
            built.append(t)
            return EulerState(t, u)

        traj = integrate(u0, 2.0, t_end=0.01, dt=1e-3, record_stride=3, state=state)
        assert built == list(traj.times)
        assert [round(t / 1e-3) for t in built] == [0, 3, 6, 9, 10]
        default = integrate(u0, 2.0, t_end=0.01, dt=1e-3, record_stride=3)
        assert all(np.array_equal(a.u.values, b.u.values) for a, b in zip(traj.states, default.states))

    @pytest.mark.parametrize("seed, steps", [(1, [0, 3, 6, 7]), (2, [0, 3, 6, 9])],
                             ids=["last-accepted-added", "last-accepted-recorded"])
    def test_partial_rows_on_blowup(self, grid16, seed, steps):
        # Rows built at record time are the rows of the recorded fields, and the
        # last accepted step is added once, whether or not the stride took it.
        u0 = random_bandlimited(grid16, seed=seed, kmax=2, amplitude=50.0)

        def partial(build):
            kept = []
            with pytest.raises(BlowupError):
                integrate(u0, 2.0, t_end=0.05, dt=1e-3, record_stride=3,
                          state=lambda t, u: kept.append(build(t, u)))
            return kept

        fields, rows = partial(EulerState), partial(conservation_row)
        assert [round(row[0] / 1e-3) for row in rows] == steps
        assert [row[0] for row in rows] == [field.t for field in fields]
        got = ConservationReport.from_rows(rows)
        expected = ConservationReport.from_rows(conservation_row(field.t, field.u) for field in fields)
        for name in ("times", "hamiltonian", "sup_u"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name

    @pytest.mark.parametrize("rejected", [1, 7, 8])
    def test_abort_records_the_last_accepted_step_once(self, rejected):
        error, kept = RuntimeError("rejected"), []

        def guard(t, y):
            if round(t / 0.1) == rejected:
                raise error

        with pytest.raises(RuntimeError) as info:
            march(lambda t, y: y, 1.0, 1.0, 0.1, 3, guard, lambda t, y: kept.append(round(t / 0.1)))
        steps = [0, 3, 6, 9][:(rejected - 1) // 3 + 1]
        if (rejected - 1) % 3:
            steps.append(rejected - 1)
        assert kept == steps
        assert info.value is error and vars(error) == {}  # re-raised unchanged

    def test_drift_definition(self):
        report = ConservationReport(
            times=np.array([0.0, 1.0, 2.0]),
            hamiltonian=np.array([2.0, 2.5, 1.0]),
            sup_u=np.array([1.0, 1.0, 1.0]),
        )
        assert report.hamiltonian_drift == pytest.approx(0.5)


class TestRK4:
    def test_linear_ode_step_is_the_quartic_taylor_polynomial(self, grid16):
        u = random_bandlimited(grid16, seed=86, kmax=3, amplitude=0.7)
        lam, dt = -2.5, 0.1
        z = lam * dt
        got = rk4(lambda t, y: lam * y, 0.0, u, dt)
        expected = u.values * (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
        assert np.max(np.abs(got.values - expected)) <= 8 * np.finfo(float).eps * u.sup_norm()

    def test_stage_sum_has_the_textbook_bits(self, grid16):
        # The running sum ((k1 + 2 k2) + 2 k3) + k4 rounds as the one-line formula does.
        u = random_bandlimited(grid16, seed=88, kmax=3, amplitude=0.5)
        dt = 1e-2

        def rhs(t, y):
            return euler_rhs(y, 3.0)

        k1 = rhs(0.0, u)
        k2 = rhs(0.5 * dt, u + (0.5 * dt) * k1)
        k3 = rhs(0.5 * dt, u + (0.5 * dt) * k2)
        k4 = rhs(dt, u + dt * k3)
        expected = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(rk4(rhs, 0.0, u, dt).values, expected.values)

    def test_stages_see_their_times(self):
        # dy/dt = t is integrated exactly: y(t0 + dt) - y(t0) = dt (t0 + dt / 2)
        t0, dt = 0.3, 0.25
        got = rk4(lambda t, y: t, t0, 1.0, dt)
        assert got == pytest.approx(1.0 + dt * (t0 + dt / 2.0), rel=1e-15)


class TestMeanVelocity:
    """The mean of u, its (0, 0) mode, moves at the rate (2 - b) mean((Au) div u).

    Of the transport, grad(Au).u integrates to -mean((Au) div u) and
    (grad u)^T Au to zero, so the mean is conserved at b = 2 alone.
    """

    @pytest.mark.parametrize("b", [0.5, 2.0, 2.5, 3.0])
    def test_rate(self, grid32, b):
        for seed in (0, 1, 2):
            u = random_bandlimited(grid32, seed=seed, kmax=4, amplitude=0.5)
            source = pointwise_product(helmholtz(u), divergence(u)).spectrum[:, 0, 0].real
            rate = euler_rhs(u, b).spectrum[:, 0, 0].real
            # Seen at 2e-14 against a source of about 50.
            assert np.max(np.abs(rate - (2.0 - b) * source)) <= 1e-13 * np.max(np.abs(source))

    def test_conserved_at_b2_drifts_at_b3(self, grid32):
        u0 = random_bandlimited(grid32, seed=3, kmax=3, amplitude=0.2)

        def drift(b):
            means = np.array([s.u.spectrum[:, 0, 0].real for s in integrate(u0, b, 0.02, 1e-3).states])
            return np.max(np.abs(means - means[0]))

        # Seen: 6e-18 at b = 2, 0.029 at b = 2.5 and 0.058 at b = 3, on a sup
        # norm of 0.2.  The drift is (2 - b) t mean((Au0) div u0) up to O(t^2).
        assert drift(2.0) <= 1e-14 * u0.sup_norm()
        assert drift(3.0) > 1e-2 * u0.sup_norm()
        assert drift(2.5) / drift(3.0) == pytest.approx(0.5, abs=0.01)


class TestLinearizationAboutConstantFlow:
    """A constant flow u = c is steady at every b.  Linearized about it,
    m_t + u.grad m + (grad u)^T m + (b - 1)(div u) m = 0 sends a mode
    a exp(2 pi i k.x) to G a exp(2 pi i k.x), with
    G = -i[2 pi (c.k) I + (2 pi / alpha) M], alpha = 1 + 4 pi^2 |k|^2 and
    M = k c^T + (b - 1) c k^T.  The (b - 1) c k^T part is the
    (b - 1)(div u) m term on a genuinely 2D mode.  M has trace b (c.k) and
    determinant -(b - 1)|c x k|^2, so a mode grows just when
    b^2 (c.k)^2 < 4 (1 - b)|c x k|^2, at the rate
    (pi / alpha) sqrt(4 (1 - b)|c x k|^2 - b^2 (c.k)^2).
    """

    C = np.array([0.7, -0.3])
    MODES = [(1, 2), (0, 3), (2, -1)]

    @classmethod
    def generator(cls, b: float, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        alpha = 1.0 + TWO_PI**2 * (k @ k)
        M = np.outer(k, cls.C) + (b - 1.0) * np.outer(cls.C, k)
        return -1j * (TWO_PI * (cls.C @ k) * np.eye(2) + (TWO_PI / alpha) * M)

    @staticmethod
    def wave(grid, k) -> np.ndarray:
        X, Y = grid.mesh
        return np.exp(1j * TWO_PI * (k[0] * X + k[1] * Y))

    def mode(self, grid, a, k) -> np.ndarray:
        """Samples of Re(a exp(2 pi i k.x)) for a complex 2-vector a."""
        return np.real(a[:, None, None] * self.wave(grid, k))

    def response(self, grid, b: float, delta: np.ndarray) -> np.ndarray:
        # The right-hand side is quadratic, so the central difference at
        # step 1 is its exact linearization about c.
        c = self.C[:, None, None] * np.ones(grid.shape)
        plus, minus = (euler_rhs(Field(grid, c + s * delta), b).values for s in (1.0, -1.0))
        return 0.5 * (plus - minus)

    def mismatch(self, grid, b: float, predicted_b: float) -> float:
        """Largest gap between the measured response to e cos and e sin of
        each mode and the one G at predicted_b gives, relative to the latter."""
        worst = 0.0
        for k in self.MODES:
            for a in (*np.eye(2, dtype=complex), *(-1j * np.eye(2))):
                want = self.mode(grid, self.generator(predicted_b, k) @ a, k)
                got = self.response(grid, b, self.mode(grid, a, k))
                worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
        return worst

    @pytest.mark.parametrize("b", [0.5, 2.0, 2.5, 3.0])
    def test_response_is_the_closed_form_mode(self, grid16, b):
        # Seen at 2.5e-13 at most.
        assert self.mismatch(grid16, b, b) <= 1e-11

    @pytest.mark.parametrize("b", [3.0, 2.5])
    def test_b2_prediction_misses_other_b(self, grid16, b):
        # Seen: 7.5e-2 at b = 3 and 3.8e-2 at b = 2.5.
        assert self.mismatch(grid16, b, 2.0) > 1e-2

    @pytest.mark.parametrize("k, rate", [((1, 2), 0.0381), ((0, 3), 0.0259), ((2, -1), 0.0)])
    def test_growth_rates_below_b1(self, grid16, k, rate):
        b, wave = 0.5, self.wave(grid16, k)
        measured = np.empty((2, 2), dtype=complex)
        for j, e in enumerate(np.eye(2, dtype=complex)):
            response = self.response(grid16, b, self.mode(grid16, e, k))
            measured[:, j] = 2.0 * np.mean(response * np.conj(wave), axis=(1, 2))
        alpha = 1.0 + TWO_PI**2 * (k[0] ** 2 + k[1] ** 2)
        cross, along = self.C[0] * k[1] - self.C[1] * k[0], self.C @ k
        predicted = np.pi / alpha * np.sqrt(max(0.0, 4.0 * (1.0 - b) * cross**2 - b**2 * along**2))
        growth = np.sort(np.linalg.eigvals(measured).real)
        assert np.max(np.abs(growth - [-predicted, predicted])) <= 1e-12
        assert predicted == pytest.approx(rate, abs=5e-5)


class TestOneDimensional:
    def test_constant_is_equilibrium(self):
        g = np.full(32, 0.4)
        assert np.max(np.abs(rhs_1d_b(g, 3.0))) < 1e-14

    def test_trajectory_matches_2d(self):
        grid = make_grid(32, 8)
        g0 = bandlimited_1d(32, seed=9, kmax=3, amplitude=0.05)
        u0 = VectorField.from_values(grid, lift_x(grid, g0), np.zeros(grid.shape))
        for b in (2.0, 2.5):
            final_2d = integrate(u0, b, t_end=0.02, dt=1e-3).final.u
            final_1d = integrate_1d(g0, b, t_end=0.02, dt=1e-3)
            assert final_2d[1].sup_norm() < 1e-14
            assert_allclose(final_2d[0].values, lift_x(grid, final_1d), atol=1e-11)

    def test_helmholtz_1d_round_trip(self):
        g = bandlimited_1d(64, seed=10, kmax=5, amplitude=1.0)
        assert_allclose(helmholtz_1d(helmholtz_1d(g), inverse=True), g, atol=1e-12)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            rhs_1d_b(np.zeros(7), 2.0)

    def test_profile_kmax_must_be_nonnegative(self):
        # kmax < 0 once gave an all-zero profile; kmax = 0 still does.
        with pytest.raises(ValueError, match=re.escape("kmax=-1 must be >= 0")):
            profile_1d(16, 0, -1, 0.5)
        assert np.array_equal(profile_1d(16, 0, 0, 0.5), np.zeros(16))


class TestMCH2:
    def test_zero_state(self):
        q_t, rho_t = mch2_rhs(np.zeros(32), np.zeros(32))
        assert np.all(q_t == 0.0) and np.all(rho_t == 0.0)

    def test_vanishing_density_reduces_to_1d_b2(self):
        v = bandlimited_1d(64, seed=14, kmax=3, amplitude=0.3)
        q_t, rho_t = mch2_rhs(v, np.zeros(64))
        assert np.max(np.abs(rho_t)) == 0.0
        assert_allclose(q_t, helmholtz_1d(rhs_1d_b(v, 2.0)), atol=1e-12)

    def test_matches_planar_embedding(self):
        n = 64
        grid = make_grid(n, 16)
        v = bandlimited_1d(n, seed=15, kmax=3, amplitude=0.3)
        rho = bandlimited_1d(n, seed=16, kmax=3, amplitude=0.3)
        u = VectorField.from_values(
            grid,
            lift_x(grid, v),
            lift_x(grid, helmholtz_1d(rho, inverse=True)),
        )
        du = euler_rhs(u, 2.0)
        q_t, rho_t = mch2_rhs(v, rho)
        got_q_t = helmholtz(du)[0].values
        got_rho_t = helmholtz(du)[1].values
        assert np.max(np.ptp(got_q_t, axis=1)) < 1e-12
        assert_allclose(got_q_t[:, 0], q_t, atol=1e-10)
        assert_allclose(got_rho_t[:, 0], rho_t, atol=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            mch2_rhs(np.zeros(32), np.zeros(64))
