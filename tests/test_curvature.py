"""Curvature at the identity: tensor route vs formula route vs closed forms."""

import dataclasses

import numpy as np
import pytest

from torusflow import curvature, spectral
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
from torusflow.spectral import Field, VectorField, h1_inner, make_grid, random_bandlimited

from conftest import count_transforms

TWO_PI = 2.0 * np.pi
ROUNDOFF = 1e-12  # relative to the largest term; about 4500 ulps


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
    def test_matches_definition(self, n, b):
        # The grouped form against D1Gamma(w,u)v - D1Gamma(w,v)u
        # + Gamma(Gamma(w,v),u) - Gamma(Gamma(w,u),v), on full-band data,
        # for a distinct w and for w = v, which folds the bracket in.
        grid = make_grid(n, n)
        u, v, z = (rand(grid, seed, kmax=n // 2 - 1, amplitude=1.0) for seed in (40, 41, 42))
        for w in (z, v):
            definition = (
                d1_gamma(w, u, v, b)
                - d1_gamma(w, v, u, b)
                + christoffel(christoffel(w, v, b), u, b)
                - christoffel(christoffel(w, u, b), v, b)
            )
            got = curvature_tensor(u, v, w, b)
            assert (got - definition).sup_norm() <= 1e-12 * definition.sup_norm()

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_folded_bracket_matches_five_evaluations(self, grid32, b):
        # A copy of v is not v, so it takes the five-evaluation grouping.
        u, v = rand(grid32, 46, kmax=2, amplitude=1.0), rand(grid32, 47, kmax=2, amplitude=1.0)
        five = curvature_tensor(u, v, Field.from_spectrum(v.grid, v.spectrum), b)
        assert five.sup_norm() > 1.0
        assert (curvature_tensor(u, v, v, b) - five).sup_norm() <= ROUNDOFF * five.sup_norm()


class TestRiemannSymmetries:
    """A symmetric Gamma is torsion-free at every b, so the first Bianchi
    identity R(u,v)w + R(v,w)u + R(w,u)v = 0 always holds.  Metric
    compatibility, which only b = 2 has, adds antisymmetry in the last pair,
    <R(u,v)w, z> = -<R(u,v)z, w>, and pair symmetry,
    <R(u,v)w, z> = <R(w,z)u, v>.  At b = 2.5 and 3 those two miss by about
    0.6, so the roundoff bound and the order-one bound sit orders apart.
    """

    ROUNDOFF = 1e-12  # relative; the identities hold to about 5e-15 at 32^2
    ORDER_ONE = 0.1

    @staticmethod
    def relative(a: float, b: float) -> float:
        """|a - b| against the larger of |a| and |b|."""
        return abs(a - b) / max(abs(a), abs(b))

    @pytest.fixture(scope="class")
    def fields(self, grid32):
        return tuple(rand(grid32, seed, kmax=2, amplitude=1.0) for seed in (11, 12, 13, 14))

    def metric_defects(self, fields, b: float) -> tuple[float, float]:
        """Relative defects of last-pair antisymmetry and of pair symmetry."""
        u, v, w, z = fields
        ruvwz = h1_inner(curvature_tensor(u, v, w, b), z)
        last_pair = self.relative(ruvwz, -h1_inner(curvature_tensor(u, v, z, b), w))
        pair = self.relative(ruvwz, h1_inner(curvature_tensor(w, z, u, b), v))
        return last_pair, pair

    def test_metric_identities_hold_at_b2(self, fields):
        last_pair, pair = self.metric_defects(fields, 2.0)
        assert last_pair <= self.ROUNDOFF
        assert pair <= self.ROUNDOFF

    @pytest.mark.parametrize("b", [2.5, 3.0])
    def test_metric_identities_fail_off_b2(self, fields, b):
        last_pair, pair = self.metric_defects(fields, b)
        assert last_pair > self.ORDER_ONE
        assert pair > self.ORDER_ONE

    @pytest.mark.parametrize("b", [0.0, 2.0, 2.5, 3.0])
    def test_first_bianchi_identity_at_every_b(self, fields, b):
        u, v, w, _ = fields
        terms = (curvature_tensor(u, v, w, b), curvature_tensor(v, w, u, b), curvature_tensor(w, u, v, b))
        scale = max(t.sup_norm() for t in terms)
        assert scale > self.ORDER_ONE
        assert (terms[0] + terms[1] + terms[2]).sup_norm() <= self.ROUNDOFF * scale


class TestConnectionBudget:
    """Connection evaluations and transports per call: christoffel(u, v)
    runs two transports and christoffel(u, u) one.  The tensor route
    computes Gamma(w,u) and Gamma(w,v) once each: five evaluations and ten
    transports for a distinct w, four and seven for w = v, where the bracket
    term folds into the second group.  A sectional_formula plane adds the
    three one-transport evaluations of gamma_terms: seven and ten.  On a
    closed-form plane the calls are the same, but the products of the
    constant field's zero gradient rows make no transform.
    """

    @staticmethod
    def count(monkeypatch, call):
        transports = []

        def counted(u, v, *args, **kwargs):
            transports.append(1 if v is u else 2)
            return christoffel(u, v, *args, **kwargs)

        monkeypatch.setattr(curvature, "christoffel", counted)
        call()
        return len(transports), sum(transports)

    def test_curvature_tensor(self, grid32, monkeypatch):
        u, v, w = (rand(grid32, seed, kmax=2) for seed in (43, 44, 45))
        assert self.count(monkeypatch, lambda: curvature_tensor(u, v, w)) == (5, 10)

    def test_curvature_tensor_in_its_direction(self, grid32, monkeypatch):
        u, v = (rand(grid32, seed, kmax=2) for seed in (43, 44))
        assert self.count(monkeypatch, lambda: curvature_tensor(u, v, v)) == (4, 7)

    def test_sectional_formula_plane(self, grid32, monkeypatch):
        e, v = basis_field(grid32, 1), mode_field(grid32, 1, 1)
        assert self.count(monkeypatch, lambda: sectional_formula(e, v)) == (7, 10)

    # In padded real planes (see test_dynamics.TestTransformBudget): a
    # christoffel of two fields takes 28, of one field 16, and a dot 8 (the
    # four rows of J and two of v lifted, one vector truncated).  With no
    # constant operand, gamma_terms makes 3 x 16, the tensor 3 x 28 + 16 and 5
    # dots, and r_term 11 dots: 276.
    def test_padded_transforms_of_a_random_plane(self, grid32, monkeypatch):
        u, v = rand(grid32, 43, kmax=2), rand(grid32, 44, kmax=2)
        complex_padded, complex_2d, real_planes = count_transforms(
            monkeypatch, lambda: sectional_formula(u, v), grid32.padded_shape)
        assert complex_padded == [] and complex_2d == []
        assert real_planes == 3 * 16 + (3 * 28 + 16) + 16 * 8 == 276

    def test_padded_transforms_of_a_plane(self, grid32, monkeypatch):
        # On span{e, v}, e constant, e and A e are lifted as their means with
        # no transform, and their eight gradient rows are never streamed:
        # Gamma(e, e) takes only its truncation, 4, and the two Gamma of e and
        # another field 28 - 8 - 4 = 16 each.  A dot with a zero factor takes
        # none (the tensor's grad e.v and six of r_term's dots), and one whose
        # vector is e takes 6, the rows of J and the truncation: the tensor's
        # grad v.e and grad(Gamma(v, v)).e, and r_term's grad v.e and
        # grad(grad v.e).e.  So gamma_terms makes 4 + 2 x 16, the tensor
        # 2 x 16 + 16 + 28 and dots 2 x 8 + 2 x 6, and r_term dots
        # 3 x 8 + 2 x 6: 176.
        e, v = basis_field(grid32, 1), mode_field(grid32, 1, 1)
        complex_padded, complex_2d, real_planes = count_transforms(
            monkeypatch, lambda: sectional_formula(e, v), grid32.padded_shape)
        assert complex_padded == [] and complex_2d == []
        assert real_planes == (4 + 2 * 16) + (2 * 16 + 16 + 28 + 2 * 8 + 2 * 6) + (3 * 8 + 2 * 6) == 176

    @pytest.mark.parametrize("i", [1, 2])
    def test_christoffel_of_a_constant_makes_only_its_truncation(self, grid32, monkeypatch, i):
        # Both lifts are fills and no gradient row is streamed: what is left
        # is the truncation of the two vectors, 4 planes.
        e = basis_field(grid32, i)
        complex_padded, complex_2d, real_planes = count_transforms(
            monkeypatch, lambda: christoffel(e, e, 2.0), grid32.padded_shape)
        assert complex_padded == [] and complex_2d == []
        assert real_planes == 4

    @pytest.mark.parametrize("n", [24, 40, 96])
    def test_basis_fields_are_constant_off_powers_of_two(self, n):
        # So the zero skip fires on radix-3 and radix-5 grids as well.
        grid = make_grid(n, n)
        for i in (1, 2):
            e = basis_field(grid, i)
            assert np.count_nonzero(e.spectrum) == 1 and e.spectrum[i - 1, 0, 0] == 1.0
            assert spectral._zero(e, mean=False) and not spectral._zero(e)


def _bits(report) -> bytes:
    return np.array(dataclasses.astuple(report)).tobytes()


class TestZeroFactorSkip:
    """Skipping the transforms of a constant changes no bit: with
    spectral._zero patched to call every operand nonconstant, every lift
    and product runs in full, and the closed-form planes give the same bits."""

    @staticmethod
    def unskipped(monkeypatch):
        monkeypatch.setattr(spectral, "_zero", lambda f, mean=True: False)

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("j", [(1, 1), (2, 1)])
    def test_sectional_formula(self, grid32, monkeypatch, i, j):
        e, v = basis_field(grid32, i), mode_field(grid32, *j)
        skipped = sectional_formula(e, v)
        self.unskipped(monkeypatch)
        assert _bits(sectional_formula(e, v)) == _bits(skipped)

    @pytest.mark.parametrize("i", [1, 2])
    def test_sectional_formula_on_a_radix_3_grid(self, grid16, monkeypatch, i):
        assert grid16.padded_shape == (30, 30)
        e, v = basis_field(grid16, i), mode_field(grid16, 1, 1)
        skipped = sectional_formula(e, v)
        self.unskipped(monkeypatch)
        assert _bits(sectional_formula(e, v)) == _bits(skipped)

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_christoffel(self, grid32, monkeypatch, i, b):
        e, v = basis_field(grid32, i), mode_field(grid32, 1, 1)
        skipped = [christoffel(e, v, b), christoffel(v, e, b), christoffel(e, e, b)]
        self.unskipped(monkeypatch)
        full = [christoffel(e, v, b), christoffel(v, e, b), christoffel(e, e, b)]
        assert [g.spectrum.tobytes() for g in full] == [g.spectrum.tobytes() for g in skipped]


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
        rep = sectional_formula(basis_field(grid64, i), mode_field(grid64, 1, 1))
        expected = closed_form_S(i, 1, 1)
        assert abs(rep.s_formula - expected) <= 1e-7
        assert abs(rep.s_direct - expected) <= 1e-7
        assert abs(expected - 0.1851549) <= 1e-7

    def test_mixed_mode_closed_form(self, grid64):
        j1, j2 = 1, 2
        rep = sectional_formula(basis_field(grid64, 2), mode_field(grid64, j1, j2))
        assert abs(rep.s_formula - closed_form_S(2, j1, j2)) <= 1e-7

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
        got = closed_form_S(1, 1, 1)
        k2 = TWO_PI**2
        assert got == pytest.approx(0.125 * 3 * k2 / (1 + 2 * k2), rel=1e-14)
        assert got == 0.18515498472381303  # the README's value

    def test_component_swap_symmetry(self):
        assert closed_form_S(1, 1, 3) == closed_form_S(2, 3, 1)

    def test_positive_on_admissible_modes(self):
        for j1 in (1, 2, 3):
            for j2 in (1, 2, 3):
                for i in (1, 2):
                    assert closed_form_S(i, j1, j2) > 0.0

    @pytest.mark.parametrize("bad", [TWO_PI, 0.0, -TWO_PI, 1.5 * TWO_PI])
    def test_rejects_inadmissible_wavenumbers(self, bad):
        # Modes are integer indices j, k = 2 pi j: an old-style call with a
        # physical wavenumber fails loudly instead of building another mode.
        for mode in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError):
                closed_form_S(1, *mode)
            with pytest.raises(ValueError):
                mode_field(make_grid(64, 64), *mode)

    @pytest.mark.parametrize("j", [0, -1, -3, 0.5, 2 + 1e-9, float("nan")])
    def test_rejects_non_positive_or_fractional_indices(self, j):
        for mode in ((j, 1), (1, j)):
            with pytest.raises(ValueError):
                closed_form_S(1, *mode)
            with pytest.raises(ValueError):
                mode_field(make_grid(16, 16), *mode)

    def test_integral_floats_are_the_same_mode(self, grid32):
        assert closed_form_S(2, 1.0, 3.0) == closed_form_S(2, 1, 3)
        np.testing.assert_array_equal(mode_field(grid32, 2.0, 1.0).values, mode_field(grid32, 2, 1).values)

    def test_rejects_bad_basis_index(self):
        with pytest.raises(ValueError):
            closed_form_S(3, 1, 1)
        with pytest.raises(ValueError):
            basis_field(make_grid(8, 8), 0)

    def test_mode_field_needs_resolvable_mode(self):
        grid = make_grid(8, 8)
        with pytest.raises(ValueError):
            mode_field(grid, 4, 1)
        v = mode_field(grid, 1, 3)
        np.testing.assert_array_equal(v[0].values, v[1].values)


class TestGammaTerms:
    def test_first_term_dominates_basis_planes(self, grid64):
        # On span{e_i, v} the residual part vanishes, so the whole value
        # is carried by <Gamma(e_i,v), Gamma(e_i,v)>.
        e1 = basis_field(grid64, 1)
        v = mode_field(grid64, 1, 1)
        gam = christoffel(e1, v, 2.0)
        norm_sq = h1_inner(gam, gam)
        assert abs(gamma_terms(e1, v) - norm_sq) <= 1e-12
        assert abs(norm_sq - closed_form_S(1, 1, 1)) <= 1e-7

    @pytest.mark.parametrize("b", [2.0, 2.5, 3.0])
    def test_polarization_matches_christoffel(self, grid32, b):
        # Gamma is symmetric and bilinear at every b, so the diagonal
        # evaluations give Gamma(u, v); roundoff scales with the largest.
        u, v = rand(grid32, 48, kmax=2, amplitude=1.0), rand(grid32, 49, kmax=2, amplitude=1.0)
        s = u + v
        gss, guu, gvv = (christoffel(f, f, b) for f in (s, u, v))
        guv = christoffel(u, v, b)
        scale = max(g.sup_norm() for g in (gss, guu, gvv))
        assert (0.5 * (gss - guu - gvv) - guv).sup_norm() <= ROUNDOFF * scale
        reference = h1_inner(guv, guv) - h1_inner(guu, gvv)
        assert abs(reference) > 1.0
        scale = max(h1_inner(g, g) for g in (gss, guu, gvv))
        assert abs(gamma_terms(u, v, b) - reference) <= ROUNDOFF * scale
