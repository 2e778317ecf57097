"""Flow maps on the torus and the configuration-space form of the dynamics.

A map is stored through its periodic displacement, phi(z) = z + d(z) mod 1,
so composition, inversion and differentiation all stay inside the spectral
toolbox: compositions evaluate band-limited fields at displaced points,
inverses come from Newton's method on the displacement, started from e = -d
on every call and evaluating d and grad d together off-grid.  `invert` is
the one way to get phi^{-1}; no inverse is passed between functions.  The
one map frame is `_checked_det`, the only source of grad d and det(I + grad d)
on the grid: every map quantity needs det > 0, the march guards det_floor.
A DiffeoMap checks that its displacement is a vector field when it is built.

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

from .dynamics import BlowupError, RunAbort, Trajectory, _step_count, christoffel, march, validate_b
from .spectral import (
    Field,
    TorusGrid,
    VectorField,
    _operands,
    dot,
    eval_spectra,
    gradient,
    helmholtz,
    stack,
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


class InversionError(RunAbort):
    """Newton inversion failed to converge (map too far from identity)."""


class OrientationError(RunAbort):
    """The Jacobian determinant dropped below the orientation guard."""


@dataclass(frozen=True)
class DiffeoMap:
    """Torus map phi(z) = z + displacement(z), coordinates taken mod 1; displacement has components (2,)."""

    displacement: Field

    def __post_init__(self):
        _operands([self.displacement], (2,))

    @property
    def grid(self) -> TorusGrid:
        return self.displacement.grid

    @classmethod
    def identity(cls, grid: TorusGrid) -> "DiffeoMap":
        return cls(VectorField.zero(grid))

    @classmethod
    def translation(cls, grid: TorusGrid, a1: float, a2: float) -> "DiffeoMap":
        return cls(VectorField.constant(grid, a1, a2))


def _checked_det(phi: DiffeoMap, det_floor: float, where: str = "on the grid") -> tuple[np.ndarray, np.ndarray]:
    """Samples of grad d and det(I + grad d); OrientationError unless every det > det_floor, never so for NaN."""
    g = gradient(phi.displacement).values
    jdet = (1.0 + g[0, 0]) * (1.0 + g[1, 1]) - g[0, 1] * g[1, 0]
    lowest = float(np.min(jdet))
    if not lowest > det_floor:
        problem = "is not finite" if np.isnan(lowest) else f"<= {det_floor:g}"
        raise OrientationError(f"det(grad phi) {problem} {where}")
    return g, jdet


def _solve(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pointwise solution x of (I + g) x = r by Cramer's rule; g[i, j] and r[j] broadcast."""
    a, b, c, h = 1.0 + g[0, 0], g[0, 1], g[1, 0], 1.0 + g[1, 1]
    return np.stack([h * r[0] - b * r[1], a * r[1] - c * r[0]]) / (a * h - b * c)


def apply(phi: DiffeoMap, points: np.ndarray) -> np.ndarray:
    """Image of (x, y) points, an array whose last axis is 2, under phi, wrapped into [0, 1)."""
    if np.shape(points)[-1:] != (2,):
        raise ValueError(f"points need a last axis of 2, not shape {np.shape(points)}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    shift = eval_spectra(phi.grid, phi.displacement.spectrum, pts[:, 0], pts[:, 1])
    return np.mod(pts + shift.T, 1.0).reshape(np.shape(points))


def compose_field(u: Field, phi: DiffeoMap) -> Field:
    """Samples of u o phi, i.e. the interpolant of every component of u at phi(z)."""
    grid = _operands([u, phi.displacement])
    X, Y = grid.mesh
    d = phi.displacement.values
    return Field(grid, eval_spectra(grid, u.spectrum, X + d[0], Y + d[1]))


def compose(phi: DiffeoMap, psi: DiffeoMap) -> DiffeoMap:
    """Group product phi o psi; displacement d_psi(z) + d_phi(z + d_psi(z))."""
    shifted = compose_field(phi.displacement, psi)
    return DiffeoMap(psi.displacement + shifted)


def invert(phi: DiffeoMap, max_iter: int = INVERT_MAX_ITER) -> DiffeoMap:
    """Inverse map by Newton's method on e + d(z + e) = 0.

    Starts from e = -d, since the inverse of z + d is about z - d.  Each
    iteration is one off-grid evaluation of d and grad d at z + e, and solves
    with I + grad d(z + e) pointwise by Cramer's rule; once the sup-norm
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
        e = e - _solve(g, r)
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
    grid = _operands([u_at(0.0)], (2,))

    def guard(t: float, d: Field) -> None:
        _checked_det(DiffeoMap(d), det_floor, f"at t={t:.6g}")

    return march(lambda t, d: compose_field(u_at(t), DiffeoMap(d)), VectorField.zero(grid),
                 t_end, dt, record_stride, guard, lambda t, d: DiffeoMap(d))


def christoffel_conjugated(phi: DiffeoMap, U: Field, V: Field, b) -> Field:
    """Conjugated connection Gamma_phi(U, V) = Gamma(U o phi^{-1}, V o phi^{-1}) o phi.

    U and V are composed with phi^{-1} as one stack, in one off-grid
    evaluation; when V is U, U is composed alone and `christoffel` runs one
    transport, with the same bits as for a distinct copy of U.  The
    evaluations (the Newton steps of `invert` and the two compositions) run
    in the calling thread's `eval_spectra` scratch, 8 n^2 (5n + 8) bytes on
    an n-by-n grid: 1.4 MB at 32^2, 10.7 MB at 64^2 and 85 MB at 128^2.
    """
    b = validate_b(b)
    _operands([phi.displacement, U, V], (2,))
    psi = invert(phi)
    if V is U:
        Uc = Vc = compose_field(U, psi)
    else:
        UVc = compose_field(stack([U, V]), psi)
        Uc, Vc = UVc[0], UVc[1]
    return compose_field(christoffel(Uc, Vc, b), phi)


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
    state=GeodesicState,
) -> Trajectory:
    """Geodesic from the identity with initial material velocity u0.

    Records the start, every record_stride-th step and the final one, each
    as state(t, phi, phi_t), a GeodesicState unless another is given; the
    march keeps nothing else of the map or its velocity.  Each accepted
    step is guarded by the orientation floor.  On abort (BlowupError for a
    non-finite velocity, OrientationError, or InversionError) the last
    accepted state goes to state too, if the stride had not taken it.
    """
    b = validate_b(b)

    def guard(t: float, y: Field) -> None:
        if not np.isfinite(y[1].sup_norm()):
            raise BlowupError(f"non-finite material velocity at t={t:.6g}")
        _checked_det(DiffeoMap(y[0]), det_floor, f"at t={t:.6g}")

    def rhs(t: float, y: Field) -> Field:
        w = y[1]
        return stack([w, christoffel_conjugated(DiffeoMap(y[0]), w, w, b)])

    y0 = stack([VectorField.zero(u0.grid), u0])
    return march(rhs, y0, t_end, dt, record_stride, guard, lambda t, y: state(t, DiffeoMap(y[0]), y[1]))


def eulerian_velocity(state: GeodesicState) -> Field:
    """Readback u = phi_t o phi^{-1} of the velocity field on the torus."""
    _operands([state.phi.displacement, state.phi_t], (2,))
    return compose_field(state.phi_t, invert(state.phi))


def exp_map(u0: Field, b=2.0, dt: float = 5e-3) -> DiffeoMap:
    """Geodesic exponential: the time-1 map of the geodesic with phi_t(0) = u0."""
    n_steps = _step_count(1.0, dt)
    traj = geodesic_integrate(u0, b, 1.0, dt, record_stride=n_steps)
    return traj.final.phi


def adjoint(phi: DiffeoMap, v: Field) -> Field:
    """Inner automorphism Ad_phi v = (grad(phi) . v) o phi^{-1}; the product is
    dealiased, since unlike coadjoint's w o phi both factors are band-limited."""
    pushed = v + dot(gradient(phi.displacement), v)
    return compose_field(pushed, invert(phi))


def coadjoint(phi: DiffeoMap, w: Field) -> Field:
    """Dual action Ad*_phi w = (grad phi)^T (w o phi) det(grad phi); OrientationError unless det > 0.

    No inversion is needed.  The products are plain products of samples, not
    dealiased ones, since the composed factor w o phi is not band-limited.
    """
    _operands([phi.displacement, w], (2,))
    g, jdet = _checked_det(phi, 0.0)
    jv, wv = np.eye(2)[:, :, None, None] + g, compose_field(w, phi).values
    return Field(phi.grid, (jv[0] * wv[0] + jv[1] * wv[1]) * jdet)


def body_velocity(state: GeodesicState) -> Field:
    """Body velocity U = (grad phi)^{-1} phi_t, solved pointwise."""
    _operands([state.phi.displacement, state.phi_t], (2,))
    g, _ = _checked_det(state.phi, 0.0)
    return Field(state.phi.grid, _solve(g, state.phi_t.values))


def body_momentum(state: GeodesicState) -> Field:
    """Body momentum m0 = Ad*_phi m with m = A(phi_t o phi^{-1}); constant along b = 2 geodesics."""
    return coadjoint(state.phi, helmholtz(eulerian_velocity(state)))


def metric_at(phi: DiffeoMap, U: Field, V: Field) -> float:
    """Right-invariant metric at configuration phi.

    Evaluates sum_i integral( U_i V_i + [grad(U_i) (grad phi)^{-1}] .
    [grad(V_i) (grad phi)^{-1}] ) det(grad phi) dz, which is the change of
    variables of h1_inner(U o phi^{-1}, V o phi^{-1}).
    """
    _operands([phi.displacement, U, V], (2,))
    g, jdet = _checked_det(phi, 0.0)

    def pulled(f: Field) -> np.ndarray:
        # Row i of grad(f) (grad phi)^{-1} solves (grad phi)^T x = row i; x[l, i] holds entry [i, l].
        return _solve(g.swapaxes(0, 1), gradient(f).values.swapaxes(0, 1))

    integrand = np.sum(U.values * V.values, axis=0) + np.sum(pulled(U) * pulled(V), axis=(0, 1))
    return float(np.mean(integrand * jdet))
