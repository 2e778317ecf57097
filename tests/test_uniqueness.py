"""Mode-by-mode residual algebra singling out b = 2 with the Helmholtz operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow.spectral import (
    Field,
    VectorField,
    helmholtz,
    helmholtz_inverse,
    divergence,
    make_grid,
    pointwise_product,
    random_bandlimited,
    stack,
)
from torusflow.uniqueness import (
    DiagonalPair,
    ModeIndex,
    build_diagonals,
    gl1_residual,
    gl3_residual,
    verify_theorem,
)

TWO_PI = 2.0 * np.pi


def flat_candidate(mode):
    return (1.0 + mode.n_sq) * np.ones(2, dtype=complex)


class TestModeIndex:
    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            ModeIndex(0, 0)

    def test_physical_wavenumber(self):
        m = ModeIndex(2, -1)
        assert m.n == (2 * TWO_PI, -TWO_PI)
        assert m.n_sq == pytest.approx(5 * TWO_PI**2, rel=1e-15)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            ModeIndex(1.5, 0)


class TestBuildDiagonals:
    def test_beta_reference_values(self):
        d = build_diagonals(ModeIndex(1, 0), 2.0)
        assert d.beta == pytest.approx((3 * TWO_PI, TWO_PI), rel=1e-15)

    @pytest.mark.parametrize("mode", [(1, 0), (1, 1), (2, -1)])
    def test_beta_independent_of_b(self, mode):
        m = ModeIndex(*mode)
        betas = {build_diagonals(m, b).beta for b in (2.0, 3.0, 7.5)}
        assert len(betas) == 1

    def test_alpha_affine_in_b(self):
        m = ModeIndex(2, 1)
        a2 = np.array(build_diagonals(m, 2.0).alpha)
        a3 = np.array(build_diagonals(m, 3.0).alpha)
        a4 = np.array(build_diagonals(m, 4.0).alpha)
        np.testing.assert_allclose(a4 - a3, a3 - a2, atol=1e-12)

    def test_alpha_symmetric_on_diagonal_modes(self):
        for b in (2.0, 3.0, 4.5):
            d = build_diagonals(ModeIndex(3, 3), b)
            assert d.alpha[0] == d.alpha[1]

    def test_returns_pair_type(self):
        assert isinstance(build_diagonals(ModeIndex(1, 2), 3.0), DiagonalPair)


class TestGl3Residual:
    @pytest.mark.parametrize("mode", [(1, 0), (0, 1), (1, 1), (2, 1), (3, -2)])
    def test_flat_candidate_solves_at_b2(self, mode):
        m = ModeIndex(*mode)
        assert gl3_residual(m, 2.0, flat_candidate(m)) <= 1e-11

    def test_flat_candidate_fails_off_b2(self):
        m = ModeIndex(1, 2)
        assert gl3_residual(m, 3.0, flat_candidate(m)) > 1e-3

    @given(
        n1=st.integers(min_value=-4, max_value=4),
        n2=st.integers(min_value=-4, max_value=4),
        b=st.floats(min_value=-3.0, max_value=8.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_flat_candidate_residual_is_exactly_the_b_defect(self, n1, n2, b):
        if n1 == 0 and n2 == 0:
            return
        m = ModeIndex(n1, n2)
        got = gl3_residual(m, b, flat_candidate(m))
        expected = abs(b - 2.0) * TWO_PI * abs(n1 + n2)
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("b", [2.0, 3.0, 4.5])
    def test_scaled_candidate_solves_diagonal_modes_for_every_b(self, b):
        m = ModeIndex(2, 2)
        c = (2.0 / b) * (1.0 + m.n_sq) * np.ones(2, dtype=complex)
        assert gl3_residual(m, b, c) <= 1e-11

    def test_candidate_shape_checked(self):
        with pytest.raises(ValueError):
            gl3_residual(ModeIndex(1, 0), 2.0, np.ones(3))


class TestGl1Residual:
    def test_b2_is_term_by_term_identical(self):
        grid = make_grid(16, 16)
        for seed in (3, 4, 5):
            u = random_bandlimited(grid, seed=seed, kmax=3, amplitude=0.4)
            assert gl1_residual(u, 2.0) <= 1e-11

    def test_b3_gap_is_the_divergence_term(self):
        grid = make_grid(16, 16)
        X, _ = grid.mesh
        u = stack([
            Field(grid, 0.1 * np.sin(TWO_PI * X)),
            Field(grid, np.zeros(grid.shape)),
        ])
        got = gl1_residual(u, 3.0)
        expected = helmholtz_inverse(
            pointwise_product(helmholtz(u), divergence(u))
        ).sup_norm()
        assert got > 1e-3
        assert got == pytest.approx(expected, rel=1e-12)

    def test_constants_vanish_for_every_b(self):
        grid = make_grid(16, 16)
        c = VectorField.constant(grid, 0.3, -0.2)
        for b in (2.0, 3.0, 5.5):
            assert gl1_residual(c, b) == 0.0


class TestVerifyTheorem:
    def test_b2_uniquely_consistent(self):
        rep = verify_theorem([2.0, 3.0, 4.0], [(1, 0), (0, 1), (1, 1), (2, 1)], make_grid(16, 16))
        assert rep.consistent_b == (2.0,)
        for row in rep.rows:
            if row.b == 2.0:
                assert row.gl3_residual <= 1e-11
                assert row.gl1_residual <= 1e-11
        for b in (3.0, 4.0):
            worst = max(
                max(r.gl3_residual, r.gl1_residual)
                for r in rep.rows if r.b == b
            )
            assert worst > 1e-3

    def test_row_schema(self):
        rep = verify_theorem([2.0], [(1, 1)], make_grid(16, 16))
        (row,) = rep.as_rows()
        assert set(row) == {"b", "n1", "n2", "gl3_residual", "gl1_residual", "pass"}
        assert row["pass"] is True

    def test_empty_mode_list(self):
        rep = verify_theorem([2.0, 3.0], [], make_grid(16, 16))
        assert rep.rows == ()
        assert rep.as_rows() == []
        assert rep.consistent_b == ()

    def test_explicit_grid_accepted(self):
        grid = make_grid(32, 32)
        rep = verify_theorem([2.0], [(1, 0)], grid=grid)
        assert rep.rows[0].passed
