"""The one operand rule: every operation of spectral, dynamics and flow that
takes several fields, or needs a vector field, rejects a wrong operand with
one ValueError naming each operand's grid and components, before any lift,
inversion, Jacobian or off-grid evaluation."""

from types import SimpleNamespace

import pytest

from torusflow import dynamics, flow, spectral
from torusflow.dynamics import ad_star, christoffel, euler_rhs, momentum_transport
from torusflow.flow import (
    DiffeoMap,
    GeodesicState,
    adjoint,
    body_momentum,
    body_velocity,
    christoffel_conjugated,
    coadjoint,
    compose,
    compose_field,
    eulerian_velocity,
    flow_from_velocity,
    metric_at,
)
from torusflow.spectral import (
    dot,
    gradient,
    h1_inner,
    l2_inner,
    make_grid,
    pointwise_product,
    random_bandlimited,
    stack,
)

# u, a vector field, and s, a scalar, on 16^2; w, a vector field on 8^2; phi, a map on 16^2.
U, W = "(16, 16) (2,)", "(8, 8) (2,)"
EQUAL, VECTOR, ONE_GRID = ("operands need one grid and equal components, not ",
                           "operands need one grid and components (2,), not ", "operands need one grid, not ")

CASES = {
    # Equal components.
    "sum-grid": (lambda o: o.u + o.w, EQUAL + f"{U}, {W}"),
    "difference-grid": (lambda o: o.u - o.w, EQUAL + f"{U}, {W}"),
    "sum-scalar": (lambda o: o.u + o.s, EQUAL + f"{U}, (16, 16) ()"),
    "gradient-plus-vector": (lambda o: gradient(o.u) + o.u, EQUAL + f"(16, 16) (2, 2), {U}"),
    "stack-grid": (lambda o: stack([o.u, o.w]), EQUAL + f"{U}, {W}"),
    "stack-scalar": (lambda o: stack([o.u, o.s]), EQUAL + f"{U}, (16, 16) ()"),
    "stack-empty": (lambda o: stack([]), EQUAL + "none"),
    "l2_inner-grid": (lambda o: l2_inner(o.u, o.w), EQUAL + f"{U}, {W}"),
    "l2_inner-scalar": (lambda o: l2_inner(o.u, o.s), EQUAL + f"{U}, (16, 16) ()"),
    "h1_inner-grid": (lambda o: h1_inner(o.w, o.u), EQUAL + f"{W}, {U}"),
    # One grid, any components.
    "pointwise_product-grid": (lambda o: pointwise_product(o.s, o.w), ONE_GRID + f"(16, 16) (), {W}"),
    "compose_field-grid": (lambda o: compose_field(o.w, o.phi), ONE_GRID + f"{W}, {U}"),
    "compose-grid": (lambda o: compose(DiffeoMap(o.w), o.phi), ONE_GRID + f"{W}, {U}"),
    "dot-grid": (lambda o: dot(gradient(o.u), o.w), ONE_GRID + f"(16, 16) (2, 2), {W}"),
    "adjoint-grid": (lambda o: adjoint(o.phi, o.w), ONE_GRID + f"(16, 16) (2, 2), {W}"),
    # Vector fields.
    "momentum_transport-grid": (lambda o: momentum_transport(o.u, o.w, 2.0), VECTOR + f"{U}, {W}"),
    "momentum_transport-scalar": (lambda o: momentum_transport(o.u, o.s, 2.0), VECTOR + f"{U}, (16, 16) ()"),
    "christoffel-grid": (lambda o: christoffel(o.u, o.w, 2.0), VECTOR + f"{U}, {W}"),
    "christoffel-scalar": (lambda o: christoffel(o.u, o.s, 2.0), VECTOR + f"{U}, (16, 16) ()"),
    "ad_star-grid": (lambda o: ad_star(o.u, o.w), VECTOR + f"{W}, {U}"),
    "euler_rhs-scalar": (lambda o: euler_rhs(o.s, 2.0), VECTOR + "(16, 16) (), (16, 16) ()"),
    "DiffeoMap-scalar": (lambda o: DiffeoMap(o.s), VECTOR + "(16, 16) ()"),
    "christoffel_conjugated-grid": (lambda o: christoffel_conjugated(o.phi, o.u, o.w, 2.0),
                                    VECTOR + f"{U}, {U}, {W}"),
    "christoffel_conjugated-scalar": (lambda o: christoffel_conjugated(o.phi, o.s, o.s, 2.0),
                                      VECTOR + f"{U}, (16, 16) (), (16, 16) ()"),
    "coadjoint-grid": (lambda o: coadjoint(o.phi, o.w), VECTOR + f"{U}, {W}"),
    "coadjoint-scalar": (lambda o: coadjoint(o.phi, o.s), VECTOR + f"{U}, (16, 16) ()"),
    "metric_at-grid": (lambda o: metric_at(o.phi, o.w, o.u), VECTOR + f"{U}, {W}, {U}"),
    "metric_at-scalar": (lambda o: metric_at(o.phi, o.u, o.s), VECTOR + f"{U}, {U}, (16, 16) ()"),
    "body_velocity-grid": (lambda o: body_velocity(GeodesicState(0.0, o.phi, o.w)), VECTOR + f"{U}, {W}"),
    "body_velocity-scalar": (lambda o: body_velocity(GeodesicState(0.0, o.phi, o.s)),
                             VECTOR + f"{U}, (16, 16) ()"),
    "eulerian_velocity-grid": (lambda o: eulerian_velocity(GeodesicState(0.0, o.phi, o.w)), VECTOR + f"{U}, {W}"),
    "eulerian_velocity-scalar": (lambda o: eulerian_velocity(GeodesicState(0.0, o.phi, o.s)),
                                 VECTOR + f"{U}, (16, 16) ()"),
    "body_momentum-scalar": (lambda o: body_momentum(GeodesicState(0.0, o.phi, o.s)), VECTOR + f"{U}, (16, 16) ()"),
    "flow_from_velocity-scalar": (lambda o: flow_from_velocity(lambda t: o.s, 0.1, 0.05),
                                  VECTOR + "(16, 16) ()"),
}


@pytest.fixture(scope="module")
def operands():
    grid = make_grid(16, 16)
    u = random_bandlimited(grid, 0, kmax=2, amplitude=0.1)
    phi = DiffeoMap(random_bandlimited(grid, 1, kmax=2, amplitude=0.01))
    return SimpleNamespace(u=u, s=u[0], w=random_bandlimited(make_grid(8, 8), 2, kmax=2, amplitude=0.1), phi=phi)


@pytest.mark.parametrize("name", CASES)
def test_one_rule_one_message_before_compute(monkeypatch, operands, name):
    def reached(*args, **kwargs):
        raise AssertionError("compute ran")

    for module, attr in ((spectral, "_lift"), (dynamics, "_lift"), (flow, "eval_spectra"),
                         (flow, "invert"), (flow, "_checked_det")):
        monkeypatch.setattr(module, attr, reached)
    call, message = CASES[name]
    with pytest.raises(ValueError) as info:
        call(operands)
    assert str(info.value) == message
