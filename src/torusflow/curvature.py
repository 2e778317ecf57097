"""Sectional curvature of the right-invariant metric at the identity (b = 2).

Two independent routes to the same number:

* the direct route pairs the local curvature tensor
  R(u,v)w = D1Gamma(w,u)v - D1Gamma(w,v)u + Gamma(Gamma(w,v),u) - Gamma(Gamma(w,u),v)
  against u.  Since Gamma is bilinear and symmetric, the tensor is computed
  in the grouped form
  R(u,v)w = Gamma(Gamma(w,v) - grad w.v, u) + Gamma(grad w.u - Gamma(w,u), v)
            - Gamma([u,v], w) + grad(Gamma(w,u)).v - grad(Gamma(w,v)).u,
  which evaluates Gamma(w,u) and Gamma(w,v) once each: five connection
  evaluations where the definition takes ten, and four for R(u,v)v, whose
  bracket term folds into the second group,
* the formula route evaluates S(u,v) = <Gamma(u,v),Gamma(u,v)>
  - <Gamma(u,u),Gamma(v,v)> + R(u,v), where R(u,v) is a fixed twelve-term
  expression in gradients of u and v (eleven pairings), and Gamma(u,v)
  comes by polarization from three diagonal evaluations.

A plane costs seven connection evaluations, ten transports and sixteen
dealiased dots: 276 padded real transforms at 32^2.  On the closed-form
planes below, e_i is constant: the transports stream no gradient rows of
it, and seven dots have a zero factor and make no transform (spectral's
zero rule), so a plane takes 196 transforms, with the same bits.  The two
routes share no computed value: their agreement on random band-limited
data is the main correctness oracle; closed-form positive values on
span{e_i, sin(k1 x) sin(k2 y) (1,1)}, with k = 2*pi*j for a positive
integer mode j, pin the absolute normalization.  Every pairing is the metric
(A-weighted) inner product h1_inner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import christoffel, commutator, validate_b
from .flow import DiffeoMap, christoffel_conjugated
from .spectral import (
    TWO_PI,
    Field,
    TorusGrid,
    VectorField,
    _integral,
    cosine_mode,
    dot,
    gradient,
    h1_inner,
)

__all__ = [
    "CurvatureReport",
    "d1_gamma",
    "curvature_tensor",
    "sectional_direct",
    "gamma_terms",
    "r_term",
    "sectional_formula",
    "closed_form_S",
    "mode_field",
    "basis_field",
]

@dataclass(frozen=True)
class CurvatureReport:
    """Both curvature routes for one plane plus their decomposition."""

    s_formula: float
    s_direct: float
    gamma_terms: float
    r_term: float

    @property
    def agreement(self) -> float:
        return abs(self.s_formula - self.s_direct)


def d1_gamma(w: Field, u: Field, v: Field, b=2.0) -> Field:
    """Derivative of the conjugated connection with respect to the
    configuration, in direction v, at the identity:

        D1Gamma(w, u)v = -Gamma(grad w . v, u) - Gamma(grad u . v, w)
                         + grad(Gamma(w, u)) . v
    """
    b = validate_b(b)
    gam = christoffel(w, u, b)
    return (
        dot(gradient(gam), v)
        - christoffel(dot(gradient(w), v), u, b)
        - christoffel(dot(gradient(u), v), w, b)
    )


def d1_gamma_fd(w: Field, u: Field, v: Field, b=2.0, eps: float = 1e-4) -> Field:
    """Central finite difference of eps -> Gamma_{id + eps v}(w, u); oracle for d1_gamma."""
    plus = christoffel_conjugated(DiffeoMap(eps * v), w, u, b)
    minus = christoffel_conjugated(DiffeoMap((-eps) * v), w, u, b)
    return (1.0 / (2.0 * eps)) * (plus - minus)


def curvature_tensor(u: Field, v: Field, w: Field, b=2.0) -> Field:
    """Local curvature tensor R(u, v)w at the identity; antisymmetric in (u, v).

    By definition R(u,v)w = D1Gamma(w,u)v - D1Gamma(w,v)u
    + Gamma(Gamma(w,v),u) - Gamma(Gamma(w,u),v).  Expanding d1_gamma and
    grouping by bilinearity and symmetry of Gamma gives the form evaluated
    here, with Gamma(w,u) and Gamma(w,v) computed once each:

        R(u,v)w = Gamma(Gamma(w,v) - grad w.v, u) + Gamma(grad w.u - Gamma(w,u), v)
                  - Gamma([u,v], w) + grad(Gamma(w,u)).v - grad(Gamma(w,v)).u

    Five connection evaluations, ten transports for distinct u, v and w.
    When w is v the bracket term is -Gamma([u,v], v) and folds into the
    second group by linearity in the first slot, with [u,v] = grad u.v - grad v.u:

        Gamma(2 grad v.u - grad u.v - Gamma(v,u), v)

    so R(u,v)v takes four evaluations (seven transports) and reuses grad v.u.
    The fold needs only w = v and linearity, so it holds at every b.  The
    two grouped arguments are exact negatives when u == v, so R(u,u)w is
    exactly zero.
    """
    b = validate_b(b)
    jw = gradient(w)
    gwu, gwv = christoffel(w, u, b), christoffel(w, v, b)
    r = christoffel(gwv - dot(jw, v), u, b)
    if w is v:
        r = r + christoffel(2.0 * dot(jw, u) - dot(gradient(u), v) - gwu, v, b)
    else:
        r = r + christoffel(dot(jw, u) - gwu, v, b) - christoffel(commutator(u, v), w, b)
    return r + dot(gradient(gwu), v) - dot(gradient(gwv), u)


def sectional_direct(u: Field, v: Field, b=2.0) -> float:
    """Unnormalized sectional curvature <R(u,v)v, u> through the tensor route."""
    return h1_inner(curvature_tensor(u, v, v, b), u)


def gamma_terms(u: Field, v: Field, b=2.0) -> float:
    """<Gamma(u,v), Gamma(u,v)> - <Gamma(u,u), Gamma(v,v)>.

    Gamma is symmetric and bilinear at every b, so polarization gives
    Gamma(u,v) = (Gamma(u+v, u+v) - Gamma(u,u) - Gamma(v,v)) / 2: three
    evaluations of one transport each, where Gamma(u,v) itself takes two.
    """
    guu = christoffel(u, u, b)
    s = u + v
    twice = christoffel(s, s, b) - guu  # 2 Gamma(u,v) + Gamma(v,v)
    del s
    gvv = christoffel(v, v, b)
    twice = twice - gvv
    return 0.25 * h1_inner(twice, twice) - h1_inner(guu, gvv)


def r_term(u: Field, v: Field) -> float:
    """The twelve-term residual part of the curvature formula.

    The terms -<grad(grad u.v).v, u> and <grad(grad v.u).v, u> share their
    pairing and are summed as <grad(grad v.u - grad u.v).v, u>, so eleven
    pairings are made; that is linearity of grad and dot alone.

    Vanishes identically when either argument is a constant field, but not
    in general: on random band-limited planes it is negative and outweighs
    gamma_terms (at 32^2, kmax 2 and amplitude 1, seeds (0, 1) give about
    -1288 against 596), so there the sectional curvature is negative.
    """
    ju, jv = gradient(u), gradient(v)
    uv, vu = dot(ju, v), dot(jv, u)
    # Paired before uu and vv exist, so this call holds no more fields at
    # once than the pairings below do.
    merged = h1_inner(dot(gradient(vu - uv), v), u)
    uu, vv = dot(ju, u), dot(jv, v)
    return (
        h1_inner(uu, vv)
        - h1_inner(uv, uv)
        + h1_inner(vu, uv)
        - h1_inner(vu, vu)
        + h1_inner(dot(gradient(uu), v), v)
        + merged
        - h1_inner(dot(gradient(vu), u), v)
        - h1_inner(dot(jv, uu), v)
        - h1_inner(dot(ju, vv), u)
        + h1_inner(dot(jv, vu), u)
        + h1_inner(dot(ju, vu), v)
    )


def sectional_formula(u: Field, v: Field) -> CurvatureReport:
    """Both curvature routes for the plane span{u, v}.

    s_formula is gamma_terms + r_term by construction; s_direct comes from
    the tensor route, so the report's agreement field measures how well the
    two independent computations coincide.
    """
    g = gamma_terms(u, v, 2.0)
    r = r_term(u, v)
    return CurvatureReport(
        s_formula=g + r,
        s_direct=sectional_direct(u, v, 2.0),
        gamma_terms=g,
        r_term=r,
    )


def _check_plane_mode(j1: int, j2: int) -> None:
    """ValueError unless the mode (j1, j2) of a curvature plane is a pair of positive integers."""
    if min(_integral(j1, "j1"), _integral(j2, "j2")) < 1:
        raise ValueError(f"curvature plane mode ({j1}, {j2}) must have positive indices")


def closed_form_S(i: int, j1: int, j2: int) -> float:
    """Closed-form sectional curvature on span{e_i, mode_field(j1, j2)}.

    With k = 2*pi*j, S(e1, v) = (1/8)(2 k1^2 + k2^2)/(1 + k1^2 + k2^2) and
    S(e2, v) swaps the roles of k1 and k2; positive for every plane mode.
    """
    _check_plane_mode(j1, j2)
    k1, k2 = TWO_PI * j1, TWO_PI * j2
    if i == 2:
        k1, k2 = k2, k1
    elif i != 1:
        raise ValueError("basis index must be 1 or 2")
    return 0.125 * (2.0 * k1**2 + k2**2) / (1.0 + k1**2 + k2**2)


def basis_field(grid: TorusGrid, i: int) -> Field:
    """Constant basis vector field e_i."""
    if i == 1:
        return VectorField.constant(grid, 1.0, 0.0)
    if i == 2:
        return VectorField.constant(grid, 0.0, 1.0)
    raise ValueError("basis index must be 1 or 2")


def mode_field(grid: TorusGrid, j1: int, j2: int) -> Field:
    """sin(2 pi j1 x) sin(2 pi j2 y) in both components, as a difference of cosine modes."""
    _check_plane_mode(j1, j2)
    plus = cosine_mode(grid, j1, j2, 0.5)
    return cosine_mode(grid, j1, -j2, 0.5) - plus
