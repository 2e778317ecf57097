"""Sectional curvature of the right-invariant metric at the identity (b = 2).

Two independent routes to the same number:

* the direct route pairs the local curvature tensor
  R(u,v)w = D1Gamma(w,u)v - D1Gamma(w,v)u + Gamma(Gamma(w,v),u) - Gamma(Gamma(w,u),v)
  against u.  Since Gamma is bilinear and symmetric, the tensor is computed
  in the grouped form
  R(u,v)w = Gamma(Gamma(w,v) - grad w.v, u) + Gamma(grad w.u - Gamma(w,u), v)
            - Gamma([u,v], w) + grad(Gamma(w,u)).v - grad(Gamma(w,v)).u,
  which evaluates Gamma(w,u) and Gamma(w,v) once each: five connection
  evaluations where the definition takes ten,
* the formula route evaluates S(u,v) = <Gamma(u,v),Gamma(u,v)>
  - <Gamma(u,u),Gamma(v,v)> + R(u,v), where R(u,v) is a fixed twelve-term
  expression in gradients of u and v.

Their agreement on random band-limited data is the main correctness oracle;
closed-form positive values on span{e_i, sin(k1 x) sin(k2 y) (1,1)} pin the
absolute normalization.  Every pairing is the metric (A-weighted) inner
product h1_inner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import christoffel, commutator, validate_b
from .flow import DiffeoMap, christoffel_conjugated
from .spectral import (
    DEFAULT_PAD_FACTOR,
    TWO_PI,
    Field,
    TorusGrid,
    VectorField,
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


def d1_gamma(w: Field, u: Field, v: Field, b=2.0,
             pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Derivative of the conjugated connection with respect to the
    configuration, in direction v, at the identity:

        D1Gamma(w, u)v = -Gamma(grad w . v, u) - Gamma(grad u . v, w)
                         + grad(Gamma(w, u)) . v
    """
    b = validate_b(b)
    gam = christoffel(w, u, b, pad_factor)
    return (
        dot(gradient(gam), v, pad_factor)
        - christoffel(dot(gradient(w), v, pad_factor), u, b, pad_factor)
        - christoffel(dot(gradient(u), v, pad_factor), w, b, pad_factor)
    )


def d1_gamma_fd(w: Field, u: Field, v: Field, b=2.0,
                eps: float = 1e-4, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Central finite difference of eps -> Gamma_{id + eps v}(w, u); oracle for d1_gamma."""
    plus = christoffel_conjugated(DiffeoMap(eps * v), w, u, b, pad_factor)
    minus = christoffel_conjugated(DiffeoMap((-eps) * v), w, u, b, pad_factor)
    return (1.0 / (2.0 * eps)) * (plus - minus)


def curvature_tensor(u: Field, v: Field, w: Field, b=2.0,
                     pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Local curvature tensor R(u, v)w at the identity; antisymmetric in (u, v).

    By definition R(u,v)w = D1Gamma(w,u)v - D1Gamma(w,v)u
    + Gamma(Gamma(w,v),u) - Gamma(Gamma(w,u),v).  Expanding d1_gamma and
    grouping by bilinearity and symmetry of Gamma gives the form evaluated
    here, with Gamma(w,u) and Gamma(w,v) computed once each:

        R(u,v)w = Gamma(Gamma(w,v) - grad w.v, u) + Gamma(grad w.u - Gamma(w,u), v)
                  - Gamma([u,v], w) + grad(Gamma(w,u)).v - grad(Gamma(w,v)).u

    The two grouped arguments are exact negatives when u == v, so
    R(u,u)w is exactly zero.
    """
    b = validate_b(b)
    p = pad_factor
    jw = gradient(w)
    gwu, gwv = christoffel(w, u, b, p), christoffel(w, v, b, p)
    return (
        christoffel(gwv - dot(jw, v, p), u, b, p)
        + christoffel(dot(jw, u, p) - gwu, v, b, p)
        - christoffel(commutator(u, v, p), w, b, p)
        + dot(gradient(gwu), v, p)
        - dot(gradient(gwv), u, p)
    )


def sectional_direct(u: Field, v: Field, b=2.0,
                     pad_factor: int = DEFAULT_PAD_FACTOR) -> float:
    """Unnormalized sectional curvature <R(u,v)v, u> through the tensor route."""
    return h1_inner(curvature_tensor(u, v, v, b, pad_factor), u)


def gamma_terms(u: Field, v: Field, b=2.0, pad_factor: int = DEFAULT_PAD_FACTOR) -> float:
    """<Gamma(u,v), Gamma(u,v)> - <Gamma(u,u), Gamma(v,v)>."""
    guv = christoffel(u, v, b, pad_factor)
    return h1_inner(guv, guv) - h1_inner(
        christoffel(u, u, b, pad_factor), christoffel(v, v, b, pad_factor)
    )


def r_term(u: Field, v: Field, pad_factor: int = DEFAULT_PAD_FACTOR) -> float:
    """The twelve-term residual part of the curvature formula.

    Vanishes identically when either argument is a constant field, but not
    in general: on random band-limited planes it is negative and outweighs
    gamma_terms (at 32^2, kmax 2 and amplitude 1, seeds (0, 1) give about
    -1288 against 596), so there the sectional curvature is negative.
    """
    p = pad_factor
    ju, jv = gradient(u), gradient(v)
    uu, uv, vu, vv = dot(ju, u, p), dot(ju, v, p), dot(jv, u, p), dot(jv, v, p)
    return (
        h1_inner(uu, vv)
        - h1_inner(uv, uv)
        + h1_inner(vu, uv)
        - h1_inner(vu, vu)
        + h1_inner(dot(gradient(uu), v, p), v)
        - h1_inner(dot(gradient(uv), v, p), u)
        + h1_inner(dot(gradient(vu), v, p), u)
        - h1_inner(dot(gradient(vu), u, p), v)
        - h1_inner(dot(jv, uu, p), v)
        - h1_inner(dot(ju, vv, p), u)
        + h1_inner(dot(jv, vu, p), u)
        + h1_inner(dot(ju, vu, p), v)
    )


def sectional_formula(u: Field, v: Field, pad_factor: int = DEFAULT_PAD_FACTOR) -> CurvatureReport:
    """Both curvature routes for the plane span{u, v}.

    s_formula is gamma_terms + r_term by construction; s_direct comes from
    the tensor route, so the report's agreement field measures how well the
    two independent computations coincide.
    """
    g = gamma_terms(u, v, 2.0, pad_factor)
    r = r_term(u, v, pad_factor)
    return CurvatureReport(
        s_formula=g + r,
        s_direct=sectional_direct(u, v, 2.0, pad_factor),
        gamma_terms=g,
        r_term=r,
    )


def _mode_index(k: float) -> int:
    j = k / TWO_PI
    ji = int(round(j))
    if ji < 1 or abs(j - ji) > 1e-9:
        raise ValueError(f"wavenumber {k} is not a positive multiple of 2*pi")
    return ji


def closed_form_S(i: int, k1: float, k2: float) -> float:
    """Closed-form sectional curvature on span{e_i, sin(k1 x) sin(k2 y) (1,1)}.

    S(e1, v) = (1/8)(2 k1^2 + k2^2)/(1 + k1^2 + k2^2) and S(e2, v) swaps the
    roles of k1 and k2; positive for every admissible wavenumber pair.
    """
    _mode_index(k1), _mode_index(k2)
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


def mode_field(grid: TorusGrid, k1: float, k2: float) -> Field:
    """The product mode sin(k1 x) sin(k2 y) in both components, as a difference of cosine modes."""
    j1, j2 = _mode_index(k1), _mode_index(k2)
    plus = cosine_mode(grid, j1, j2, 0.5)
    return cosine_mode(grid, j1, -j2, 0.5) - plus
