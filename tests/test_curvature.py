"""Curvature at the identity: tensor route vs formula route vs closed forms."""

import numpy as np
import pytest

from torusflow import curvature
from torusflow.curvature import (
    basis_field,
    closed_form_S,
    curvature_tensor,
    d1_gamma,
    d1_gamma_fd,
    gamma_terms,
    mode_field,
    r_term,
    sectional_direct,
    sectional_formula,
)
from torusflow.dynamics import christoffel
from torusflow.spectral import VectorField, h1_inner, make_grid, random_bandlimited

TWO_PI = 2.0 * np.pi


def rand(grid, seed, kmax=3, amplitude=0.5):
    return random_bandlimited(grid, seed=seed, kmax=kmax, amplitude=amplitude)


class TestD1Gamma:
    def test_zero_direction_is_exactly_zero(self, grid32):
        w = rand(grid32, 1, kmax=2)
        u = rand(grid32, 2, kmax=2)
        out = d1_gamma(w, u, VectorField.zero(grid32))
        assert out.sup_norm() == 0.0

    def test_constant_fields_give_zero(self, grid32):
        c = VectorField.constant(grid32, 0.4, -1.1)
        v = rand(grid32, 3, kmax=2)
        assert d1_gamma(c, c, v).sup_norm() <= 1e-12

    def test_matches_finite_difference_of_conjugated_connection(self, grid64):
        w = rand(grid64, 7, kmax=2, amplitude=0.3)
        u = rand(grid64, 8, kmax=2, amplitude=0.3)
        v = rand(grid64, 9, kmax=2, amplitude=0.3)
        exact = d1_gamma(w, u, v)
        fd = d1_gamma_fd(w, u, v, eps=1e-4)
        assert (exact - fd).sup_norm() <= 1e-6


class TestCurvatureTensor:
    def test_equal_arguments_vanish_exactly(self, grid32):
        u = rand(grid32, 4, kmax=2)
        w = rand(grid32, 5, kmax=2)
        assert curvature_tensor(u, u, w).sup_norm() == 0.0

    def test_all_constant_slots_vanish(self, grid32):
        # The tensor with a generic third slot does NOT vanish on the
        # constant plane (the nested connection multipliers fail to
        # commute); only the fully constant contraction does.
        c1 = VectorField.constant(grid32, 1.0, 0.0)
        c2 = VectorField.constant(grid32, 0.0, 1.0)
        c3 = VectorField.constant(grid32, 0.7, -0.3)
        assert curvature_tensor(c1, c2, c3).sup_norm() <= 1e-13
        w = rand(grid32, 6, kmax=2)
        assert curvature_tensor(c1, c2, w).sup_norm() > 1e-4

    def test_antisymmetric_in_first_two_slots(self, grid32):
        u = rand(grid32, 10, kmax=2)
        v = rand(grid32, 11, kmax=2)
        w = rand(grid32, 12, kmax=2)
        total = curvature_tensor(u, v, w) + curvature_tensor(v, u, w)
        assert total.sup_norm() <= 1e-10

    def test_additive_in_last_slot(self, grid32):
        u = rand(grid32, 13, kmax=2)
        v = rand(grid32, 14, kmax=2)
        w1 = rand(grid32, 15, kmax=2)
        w2 = rand(grid32, 16, kmax=2)
        lhs = curvature_tensor(u, v, w1 + w2)
        rhs = curvature_tensor(u, v, w1) + curvature_tensor(u, v, w2)
        assert (lhs - rhs).sup_norm() <= 1e-10

    def test_homogeneous_in_direction_slot(self, grid32):
        u = rand(grid32, 17, kmax=2)
        v = rand(grid32, 18, kmax=2)
        w = rand(grid32, 19, kmax=2)
        lhs = curvature_tensor(u, 2.5 * v, w)
        # R is linear in v: every grouped term is linear in v, through the
        # connection's second slot, the bracket and the gradient products.
        rhs = 2.5 * curvature_tensor(u, v, w)
        assert (lhs - rhs).sup_norm() <= 1e-10

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("b", [2.0, 3.0])
    @pytest.mark.parametrize("pad_factor", [1, 2, 3])
    def test_matches_definition(self, n, b, pad_factor):
        # The grouped form against D1Gamma(w,u)v - D1Gamma(w,v)u
        # + Gamma(Gamma(w,v),u) - Gamma(Gamma(w,u),v), on full-band data.
        grid = make_grid(n, n)
        u, v, w = (rand(grid, seed, kmax=n // 2 - 1, amplitude=1.0) for seed in (40, 41, 42))
        p = pad_factor
        definition = (
            d1_gamma(w, u, v, b, p)
            - d1_gamma(w, v, u, b, p)
            + christoffel(christoffel(w, v, b, p), u, b, p)
            - christoffel(christoffel(w, u, b, p), v, b, p)
        )
        got = curvature_tensor(u, v, w, b, p)
        assert (got - definition).sup_norm() <= 1e-12 * definition.sup_norm()


class TestConnectionBudget:
    """Connection evaluations per call: the tensor route computes Gamma(w,u)
    and Gamma(w,v) once each (5), and a sectional_formula plane adds the
    three of gamma_terms (8).
    """

    @staticmethod
    def count(monkeypatch, call):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return christoffel(*args, **kwargs)

        monkeypatch.setattr(curvature, "christoffel", counted)
        call()
        return len(calls)

    def test_curvature_tensor(self, grid32, monkeypatch):
        u, v, w = (rand(grid32, seed, kmax=2) for seed in (43, 44, 45))
        assert self.count(monkeypatch, lambda: curvature_tensor(u, v, w)) == 5

    def test_sectional_formula_plane(self, grid32, monkeypatch):
        e, v = basis_field(grid32, 1), mode_field(grid32, TWO_PI, TWO_PI)
        assert self.count(monkeypatch, lambda: sectional_formula(e, v)) == 8


class TestSectional:
    def test_degenerate_plane_is_exactly_zero(self, grid32):
        u = rand(grid32, 20, kmax=2)
        assert sectional_direct(u, u) == 0.0

    def test_constant_basis_plane_is_flat(self, grid32):
        e1 = basis_field(grid32, 1)
        e2 = basis_field(grid32, 2)
        assert abs(sectional_direct(e1, e2)) <= 1e-13

    @pytest.mark.parametrize("i", [1, 2])
    def test_lowest_mode_closed_form(self, grid64, i):
        rep = sectional_formula(basis_field(grid64, i), mode_field(grid64, TWO_PI, TWO_PI))
        expected = closed_form_S(i, TWO_PI, TWO_PI)
        assert abs(rep.s_formula - expected) <= 1e-7
        assert abs(rep.s_direct - expected) <= 1e-7
        assert abs(expected - 0.1851549) <= 1e-7

    def test_mixed_mode_closed_form(self, grid64):
        k1, k2 = TWO_PI, 2 * TWO_PI
        rep = sectional_formula(basis_field(grid64, 2), mode_field(grid64, k1, k2))
        assert abs(rep.s_formula - closed_form_S(2, k1, k2)) <= 1e-7

    def test_report_decomposition_is_exact(self, grid32):
        u = rand(grid32, 21, kmax=2)
        v = rand(grid32, 22, kmax=2)
        rep = sectional_formula(u, v)
        assert rep.s_formula == rep.gamma_terms + rep.r_term
        assert rep.agreement == abs(rep.s_formula - rep.s_direct)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_routes_agree_on_random_planes(self, grid64, seed):
        u = rand(grid64, seed)
        v = rand(grid64, seed + 100)
        rep = sectional_formula(u, v)
        assert rep.agreement <= 1e-8 * (1.0 + abs(rep.s_formula))


class TestRTerm:
    @pytest.mark.parametrize("i", [1, 2])
    def test_vanishes_against_constant_basis_fields(self, grid64, i):
        e = basis_field(grid64, i)
        for seed in (30, 31, 32):
            w = rand(grid64, seed)
            assert abs(r_term(e, w)) <= 1e-10
            assert abs(r_term(w, e)) <= 1e-10

    def test_zero_field_gives_zero(self, grid32):
        z = VectorField.zero(grid32)
        assert r_term(z, rand(grid32, 33, kmax=2)) == 0.0

    @pytest.mark.parametrize("seeds, value", [((0, 1), -1287.943), ((2, 3), -680.641), ((4, 5), -1390.209)])
    def test_does_not_vanish_on_random_planes(self, grid32, seeds, value):
        # The twelve terms do not cancel in general: on these planes the
        # residual is negative and outweighs gamma_terms.
        u, v = (rand(grid32, s, kmax=2, amplitude=1.0) for s in seeds)
        r, g = r_term(u, v), gamma_terms(u, v)
        assert r == pytest.approx(value, rel=1e-6)
        assert r + g < 0.0 < g

    def test_consistent_with_tensor_route(self, grid32):
        u = rand(grid32, 34, kmax=2)
        v = rand(grid32, 35, kmax=2)
        r = sectional_direct(u, v) - gamma_terms(u, v)
        assert abs(r_term(u, v) - r) <= 1e-8 * (1.0 + abs(r))


class TestClosedForm:
    def test_reference_value(self):
        got = closed_form_S(1, TWO_PI, TWO_PI)
        k2 = TWO_PI**2
        assert got == pytest.approx(0.125 * 3 * k2 / (1 + 2 * k2), rel=1e-14)

    def test_component_swap_symmetry(self):
        assert closed_form_S(1, TWO_PI, 3 * TWO_PI) == closed_form_S(2, 3 * TWO_PI, TWO_PI)

    def test_positive_on_admissible_modes(self):
        for j1 in (1, 2, 3):
            for j2 in (1, 2, 3):
                for i in (1, 2):
                    assert closed_form_S(i, TWO_PI * j1, TWO_PI * j2) > 0.0

    @pytest.mark.parametrize("bad", [3.0, 0.0, -TWO_PI, 1.5 * TWO_PI])
    def test_rejects_inadmissible_wavenumbers(self, bad):
        with pytest.raises(ValueError):
            closed_form_S(1, bad, TWO_PI)

    def test_rejects_bad_basis_index(self):
        with pytest.raises(ValueError):
            closed_form_S(3, TWO_PI, TWO_PI)
        with pytest.raises(ValueError):
            basis_field(make_grid(8, 8), 0)

    def test_mode_field_needs_resolvable_mode(self):
        grid = make_grid(8, 8)
        with pytest.raises(ValueError):
            mode_field(grid, 4 * TWO_PI, TWO_PI)
        v = mode_field(grid, TWO_PI, 3 * TWO_PI)
        np.testing.assert_array_equal(v[0].values, v[1].values)


class TestGammaTerms:
    def test_first_term_dominates_basis_planes(self, grid64):
        # On span{e_i, v} the residual part vanishes, so the whole value
        # is carried by <Gamma(e_i,v), Gamma(e_i,v)>.
        e1 = basis_field(grid64, 1)
        v = mode_field(grid64, TWO_PI, TWO_PI)
        gam = christoffel(e1, v, 2.0)
        norm_sq = h1_inner(gam, gam)
        assert abs(gamma_terms(e1, v) - norm_sq) <= 1e-12
        assert abs(norm_sq - closed_form_S(1, TWO_PI, TWO_PI)) <= 1e-7
