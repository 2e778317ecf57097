"""Flow maps on the torus and the configuration-space form of the dynamics.

A map is stored through its periodic displacement, phi(z) = z + d(z) mod 1,
so composition, inversion and differentiation all stay inside the spectral
toolbox: compositions evaluate band-limited fields at displaced points,
inverses come from Newton's method on the displacement, started from e = -d
on every call and evaluating d and grad d together off-grid, and the
Jacobian is I + grad(d).  `invert` is the one way to get phi^{-1}; no
inverse is passed between functions.

The evolution itself is carried here as the second-order label equation

    phi_tt = Gamma_phi(phi_t, phi_t),    Gamma_phi(U, V) = Gamma(U o phi^{-1}, V o phi^{-1}) o phi,

whose Eulerian readback phi_t o phi^{-1} must reproduce the velocity-form
trajectory.  The body-frame quantities (body velocity (grad phi)^{-1} phi_t,
body momentum Ad*_phi A(phi_t o phi^{-1})) and the right-invariant metric
evaluation live here too; the body momentum is the conserved quantity of
the b = 2 flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import BlowupError, Trajectory, _step_count, christoffel, march, validate_b
from .spectral import (
    DEFAULT_PAD_FACTOR,
    Field,
    TorusGrid,
    VectorField,
    det,
    dot,
    eval_spectra,
    gradient,
    helmholtz,
    pointwise_product,
    stack,
    tdot,
)

__all__ = [
    "DET_FLOOR",
    "DiffeoMap",
    "GeodesicState",
    "InversionError",
    "OrientationError",
    "apply",
    "compose",
    "invert",
    "jacobian",
    "compose_field",
    "flow_from_velocity",
    "trajectory_velocity",
    "christoffel_conjugated",
    "geodesic_integrate",
    "eulerian_velocity",
    "exp_map",
    "adjoint",
    "coadjoint",
    "body_velocity",
    "body_momentum",
    "metric_at",
]

DET_FLOOR = 1e-3
INVERT_TOL = 1e-12
INVERT_MAX_ITER = 100


class InversionError(RuntimeError):
    """Newton inversion failed to converge (map too far from identity)."""


class OrientationError(RuntimeError):
    """The Jacobian determinant dropped below the orientation guard."""


@dataclass(frozen=True)
class DiffeoMap:
    """Torus map phi(z) = z + displacement(z), coordinates taken mod 1."""

    displacement: Field

    @property
    def grid(self) -> TorusGrid:
        return self.displacement.grid

    @classmethod
    def identity(cls, grid: TorusGrid) -> "DiffeoMap":
        return cls(VectorField.zero(grid))

    @classmethod
    def translation(cls, grid: TorusGrid, a1: float, a2: float) -> "DiffeoMap":
        return cls(VectorField.constant(grid, a1, a2))


def jacobian(phi: DiffeoMap) -> Field:
    """Full Jacobian grad(phi) = I + grad(d), entry [i, j] = d phi_i / d x_j."""
    return Field(phi.grid, np.eye(2)[:, :, None, None] + gradient(phi.displacement).values)


def _checked_det(phi: DiffeoMap, det_floor: float, where: str = "on the grid") -> np.ndarray:
    """Samples of det(grad phi); OrientationError unless all exceed det_floor."""
    jdet = det(jacobian(phi)).values
    if float(np.min(jdet)) <= det_floor:
        raise OrientationError(f"det(grad phi) <= {det_floor:g} {where}")
    return jdet


def _inverse_jacobian(phi: DiffeoMap) -> Field:
    """Pointwise matrix inverse (grad phi)^{-1}."""
    inv = np.linalg.inv(np.moveaxis(jacobian(phi).values, (0, 1), (-2, -1)))
    return Field(phi.grid, np.moveaxis(inv, (-2, -1), (0, 1)))


def apply(phi: DiffeoMap, points: np.ndarray) -> np.ndarray:
    """Image of (x, y) points under phi, wrapped into [0, 1)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    shift = eval_spectra(phi.grid, phi.displacement.spectrum, pts[:, 0], pts[:, 1])
    return np.mod(pts + shift.T, 1.0).reshape(np.shape(points))


def compose_field(u: Field, phi: DiffeoMap) -> Field:
    """Samples of u o phi, i.e. the interpolant of every component of u at phi(z)."""
    if u.grid != phi.grid:
        raise ValueError("field and map live on different grids")
    X, Y = phi.grid.mesh
    d = phi.displacement.values
    return Field(phi.grid, eval_spectra(phi.grid, u.spectrum, X + d[0], Y + d[1]))


def compose(phi: DiffeoMap, psi: DiffeoMap) -> DiffeoMap:
    """Group product phi o psi; displacement d_psi(z) + d_phi(z + d_psi(z))."""
    if phi.grid != psi.grid:
        raise ValueError("maps live on different grids")
    shifted = compose_field(phi.displacement, psi)
    return DiffeoMap(psi.displacement + shifted)


def invert(phi: DiffeoMap, max_iter: int = INVERT_MAX_ITER) -> DiffeoMap:
    """Inverse map by Newton's method on e + d(z + e) = 0.

    Starts from e = -d, since the inverse of z + d is about z - d.  Each
    iteration is one off-grid evaluation of d and grad d at z + e, and solves
    with the pointwise 2x2 inverse of I + grad d(z + e); once the sup-norm
    residual drops below INVERT_TOL, that last step is taken and the result
    returned.  Raises InversionError after max_iter evaluations.
    """
    _checked_det(phi, 0.0)
    d = phi.displacement
    X, Y = phi.grid.mesh
    e = -d.values
    residual = np.inf
    for _ in range(max_iter):
        f, g = eval_spectra(phi.grid, d.spectrum, X + e[0], Y + e[1], gradient=True)
        r = e + f
        residual = float(np.max(np.abs(r)))
        a, b, c, h = 1.0 + g[0, 0], g[0, 1], g[1, 0], 1.0 + g[1, 1]
        e = e - np.stack([h * r[0] - b * r[1], a * r[1] - c * r[0]]) / (a * h - b * c)
        if residual < INVERT_TOL:
            return DiffeoMap(Field(phi.grid, e))
    raise InversionError(f"inversion stalled at residual {residual:.3e} after {max_iter} iterations")


def trajectory_velocity(trajectory) -> Callable[[float], Field]:
    """Lookup t -> u(t) for a velocity trajectory recorded at every step.

    The label integrator samples u at step midpoints, so drive it with a
    trajectory computed at half its step.
    """
    dt = trajectory.dt
    states = trajectory.states

    def u_at(t: float) -> Field:
        idx = int(round(t / dt))
        if idx < 0 or idx >= len(states) or abs(idx * dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"velocity not recorded at t={t}")
        return states[idx].u

    return u_at


def flow_from_velocity(
    u_at: Callable[[float], Field],
    t_end: float,
    dt: float,
    record_stride: int = 1,
    det_floor: float = DET_FLOOR,
) -> Trajectory:
    """Integrate phi_t(t, z) = u(t, phi(t, z)) from the identity.

    u_at must provide the velocity at step endpoints and midpoints; each
    stage evaluates the interpolant of u at the displaced labels.  The
    trajectory's states are the maps phi(t).  Aborts with OrientationError
    when det(grad phi) falls to det_floor.
    """
    grid = u_at(0.0).grid

    def guard(t: float, d: Field) -> None:
        _checked_det(DiffeoMap(d), det_floor, f"at t={t:.6g}")

    return march(lambda t, d: compose_field(u_at(t), DiffeoMap(d)), VectorField.zero(grid),
                 t_end, dt, record_stride, guard, lambda t, d: DiffeoMap(d))


def christoffel_conjugated(phi: DiffeoMap, U: Field, V: Field, b,
                           pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Conjugated connection Gamma_phi(U, V) = Gamma(U o phi^{-1}, V o phi^{-1}) o phi.

    U and V are composed with phi^{-1} as one stack, in one off-grid evaluation.
    """
    b = validate_b(b)
    if U.grid != phi.grid or V.grid != phi.grid:
        raise ValueError("fields and map live on different grids")
    UVc = compose_field(stack([U, V]), invert(phi))
    return compose_field(christoffel(UVc[0], UVc[1], b, pad_factor), phi)


@dataclass(frozen=True)
class GeodesicState:
    """Configuration phi, material velocity phi_t (sampled at labels), time t."""

    t: float
    phi: DiffeoMap
    phi_t: Field


def geodesic_integrate(
    u0: Field,
    b,
    t_end: float,
    dt: float,
    record_stride: int = 1,
    det_floor: float = DET_FLOOR,
    pad_factor: int = DEFAULT_PAD_FACTOR,
) -> Trajectory:
    """Geodesic from the identity with initial material velocity u0.

    States are recorded every record_stride steps (plus the final one);
    each accepted step is guarded by the orientation floor.  On abort
    (BlowupError for a non-finite velocity, OrientationError, or
    InversionError) err.partial holds the trajectory up to the last
    accepted state.
    """
    b = validate_b(b)

    def guard(t: float, y: Field) -> None:
        if not np.isfinite(y[1].sup_norm()):
            raise BlowupError(f"non-finite material velocity at t={t:.6g}")
        _checked_det(DiffeoMap(y[0]), det_floor, f"at t={t:.6g}")

    def rhs(t: float, y: Field) -> Field:
        return stack([y[1], christoffel_conjugated(DiffeoMap(y[0]), y[1], y[1], b, pad_factor)])

    y0 = stack([VectorField.zero(u0.grid), u0])
    return march(rhs, y0, t_end, dt, record_stride, guard,
                 lambda t, y: GeodesicState(t, DiffeoMap(y[0]), y[1]))


def eulerian_velocity(state: GeodesicState) -> Field:
    """Readback u = phi_t o phi^{-1} of the velocity field on the torus."""
    return compose_field(state.phi_t, invert(state.phi))


def exp_map(u0: Field, b=2.0, dt: float = 5e-3, pad_factor: int = DEFAULT_PAD_FACTOR) -> DiffeoMap:
    """Geodesic exponential: the time-1 map of the geodesic with phi_t(0) = u0."""
    n_steps = _step_count(1.0, dt)
    traj = geodesic_integrate(u0, b, 1.0, dt, record_stride=n_steps, pad_factor=pad_factor)
    return traj.final.phi


def adjoint(phi: DiffeoMap, v: Field) -> Field:
    """Inner automorphism Ad_phi v = (grad(phi) . v) o phi^{-1}."""
    if v.grid != phi.grid:
        raise ValueError("field and map live on different grids")
    pushed = v + dot(gradient(phi.displacement), v)
    return compose_field(pushed, invert(phi))


def coadjoint(phi: DiffeoMap, w: Field) -> Field:
    """Dual action Ad*_phi w = (grad phi)^T (w o phi) det(grad phi).

    No inversion is needed; products are plain grid products since the
    composed factor is not band-limited anyway.
    """
    if w.grid != phi.grid:
        raise ValueError("field and map live on different grids")
    j = jacobian(phi)
    return pointwise_product(tdot(j, compose_field(w, phi), pad_factor=1), det(j), pad_factor=1)


def body_velocity(state: GeodesicState, det_floor: float = DET_FLOOR) -> Field:
    """Body velocity U = (grad phi)^{-1} phi_t, solved pointwise."""
    _checked_det(state.phi, det_floor)
    return dot(_inverse_jacobian(state.phi), state.phi_t, pad_factor=1)


def body_momentum(state: GeodesicState) -> Field:
    """Body momentum m0 = Ad*_phi m with m = A(phi_t o phi^{-1}); constant along b = 2 geodesics."""
    return coadjoint(state.phi, helmholtz(eulerian_velocity(state)))


def metric_at(phi: DiffeoMap, U: Field, V: Field) -> float:
    """Right-invariant metric at configuration phi.

    Evaluates sum_i integral( U_i V_i + [grad(U_i) (grad phi)^{-1}] .
    [grad(V_i) (grad phi)^{-1}] ) det(grad phi) dz, which is the change of
    variables of h1_inner(U o phi^{-1}, V o phi^{-1}).
    """
    if U.grid != phi.grid or V.grid != phi.grid:
        raise ValueError("fields and map live on different grids")
    jdet = _checked_det(phi, 0.0)
    inv = _inverse_jacobian(phi).values

    def pulled(f: Field) -> np.ndarray:
        return np.einsum("ik...,kl...->il...", gradient(f).values, inv)

    integrand = np.sum(U.values * V.values, axis=0) + np.sum(pulled(U) * pulled(V), axis=(0, 1))
    return float(np.mean(integrand * jdet))
