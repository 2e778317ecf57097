"""Dynamics of the two-dimensional b-family in velocity form.

The evolution on the torus is du/dt = B(u, u) with

    B(u, v) = -A^{-1}( grad(Au).v + (grad v)^T Au + (b - 1) Au div(v) ),

where A = 1 - Laplacian acts componentwise and every product is dealiased.
The symmetrization Gamma(u, v) of B plus the transport terms is the
connection bilinear form; at b = 2 the flow is metric (the H^1-type energy
is conserved), for other b it is not, and the checks in this module are
built to see both facts numerically.

Also included: the classical RK4 step and fixed-step march loop that the
deformation-map integrators in flow share, a blow-up guard, and two
independent one-dimensional oracles (the 1D b-family and the
two-component system it couples to) used to cross-check the planar code on
y-independent data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    DEFAULT_PAD_FACTOR,
    Field,
    _dealiased,
    _lift,
    dot,
    gradient,
    h1_inner,
    helmholtz,
    helmholtz_inverse,
    laplacian,
    partial_x,
    partial_y,
)

__all__ = [
    "B_CAMASSA_HOLM",
    "BlowupError",
    "EulerState",
    "Trajectory",
    "ConservationReport",
    "validate_b",
    "momentum_transport",
    "b_operator",
    "christoffel",
    "euler_rhs",
    "euler_rhs_geometric",
    "check_commuting_identity",
    "commutator",
    "ad_star",
    "hamiltonian",
    "check_metric_compatibility",
    "rk4",
    "march",
    "integrate",
    "conservation_report",
    "profile_1d",
    "rhs_1d_b",
    "helmholtz_1d",
    "integrate_1d",
    "mch2_rhs",
]

B_CAMASSA_HOLM = 2.0

DRIFT_FLOOR = 1e-14


class BlowupError(RuntimeError):
    """A trajectory left the resolvable regime (blow-up or instability)."""


def validate_b(b) -> float:
    """Coerce the family parameter to a finite float (2 and 3 are the classical cases)."""
    b = float(b)
    if not np.isfinite(b):
        raise ValueError(f"family parameter must be finite, got {b!r}")
    return b


@dataclass(frozen=True)
class EulerState:
    """Velocity field at one instant; the momentum m = Au is derived on demand."""

    t: float
    u: Field

    @property
    def m(self) -> Field:
        return helmholtz(self.u)


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one march, in time order, and their times.

    integrate records EulerStates, flow.geodesic_integrate GeodesicStates
    and flow.flow_from_velocity DiffeoMaps.
    """

    dt: float
    times: np.ndarray
    states: tuple

    @property
    def final(self):
        return self.states[-1]


def _relative_drift(q: np.ndarray) -> float:
    return float(np.max(np.abs(q - q[0])) / max(abs(float(q[0])), DRIFT_FLOOR))


@dataclass(frozen=True)
class ConservationReport:
    """Scalar diagnostics along a trajectory and their relative drifts."""

    times: np.ndarray
    hamiltonian: np.ndarray
    h1_energy: np.ndarray
    sup_u: np.ndarray

    @property
    def hamiltonian_drift(self) -> float:
        return _relative_drift(self.hamiltonian)

    @property
    def h1_drift(self) -> float:
        return _relative_drift(self.h1_energy)


def conservation_report(trajectory: Trajectory) -> ConservationReport:
    energies = np.array([h1_inner(s.u, s.u) for s in trajectory.states])
    sups = np.array([s.u.sup_norm() for s in trajectory.states])
    return ConservationReport(
        times=trajectory.times,
        hamiltonian=0.5 * energies,
        h1_energy=energies,
        sup_u=sups,
    )


def _transport(m: Field, lm: np.ndarray, v: Field, lv: np.ndarray, b: float, pad_factor: int,
               sym: np.ndarray | None = None, lw: np.ndarray | None = None) -> np.ndarray:
    """Padded samples of grad(m).v + (grad v)^T m + (b-1) m div v, from m and v lifted.

    The rows of grad m and grad v are lifted one at a time, straight from the
    spectra, and div v is summed from the diagonal of grad v; given sym and w
    lifted, grad(v).w is added to sym from the same rows.
    """
    acc = np.zeros_like(lm)
    for i in range(2):
        lg = _lift(m[i], pad_factor, m.grid.grad_symbol)
        acc[i] += lg[0] * lv[0] + lg[1] * lv[1]
        lg = _lift(v[i], pad_factor, v.grid.grad_symbol)
        acc += lg * lm[i] + (b - 1.0) * lg[i] * lm
        if sym is not None:
            sym[i] += lg[0] * lw[0] + lg[1] * lw[1]
    return acc


def momentum_transport(m: Field, v: Field, b: float, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Transport of the momentum m by the velocity v: grad(m).v + (grad v)^T m + (b-1) m div v."""
    return _dealiased(m, v, pad_factor, lambda lm, lv: _transport(m, lm, v, lv, b, pad_factor))


def b_operator(u: Field, v: Field, b, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Quadratic operator B(u, v) = -A^{-1}(grad(Au).v + (grad v)^T Au + (b-1) Au div v)."""
    return -helmholtz_inverse(momentum_transport(helmholtz(u), v, validate_b(b), pad_factor))


def christoffel(u: Field, v: Field, b, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Connection bilinear form Gamma(u, v), symmetric in its arguments.

    Gamma(u, v) = (grad u . v + grad v . u + B(u, v) + B(v, u)) / 2.
    """
    b = validate_b(b)
    mu, mv = helmholtz(u), helmholtz(v)

    def parts(lu, lv):
        acc = np.zeros((2,) + lu.shape)  # the symmetric part and the transport under A^{-1}
        acc[1] = _transport(mu, _lift(mu, pad_factor), v, lv, b, pad_factor, acc[0], lu)
        acc[1] += _transport(mv, _lift(mv, pad_factor), u, lu, b, pad_factor, acc[0], lv)
        return acc

    p = _dealiased(u, v, pad_factor, parts)
    return 0.5 * (p[0] - helmholtz_inverse(p[1]))


def euler_rhs(u: Field, b, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """du/dt in the direct momentum form, i.e. B(u, u)."""
    return b_operator(u, u, b, pad_factor)


def euler_rhs_geometric(u: Field, b, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """du/dt written as Gamma(u, u) - grad(u).u; agrees with euler_rhs to roundoff."""
    return christoffel(u, u, b, pad_factor) - dot(gradient(u), u, pad_factor)


def check_commuting_identity(u: Field, v: Field, pad_factor: int = DEFAULT_PAD_FACTOR) -> float:
    """Residual of grad(Av).u - A(grad v . u) against its derivative expansion.

    The expansion is grad(v).Lap(u) + 2 grad(v_x).u_x + 2 grad(v_y).u_y.
    Returns the max-norm of the difference, which is pure roundoff whenever
    the pairwise products of u and v fit the padded grid.
    """
    gv = gradient(v)
    lhs = dot(gradient(helmholtz(v)), u, pad_factor) - helmholtz(dot(gv, u, pad_factor))
    rhs = (
        dot(gv, laplacian(u), pad_factor)
        + 2.0 * dot(gradient(partial_x(v)), partial_x(u), pad_factor)
        + 2.0 * dot(gradient(partial_y(v)), partial_y(u), pad_factor)
    )
    return (lhs - rhs).sup_norm()


def commutator(u: Field, v: Field, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Vector field bracket [u, v] = grad(u).v - grad(v).u."""
    return dot(gradient(u), v, pad_factor) - dot(gradient(v), u, pad_factor)


def ad_star(u: Field, w: Field, b=B_CAMASSA_HOLM, pad_factor: int = DEFAULT_PAD_FACTOR) -> Field:
    """Coadjoint action ad*_u w = A^{-1}((grad u)^T Aw + grad(Aw).u + (b-1) (div u) Aw).

    With the default b = 2 this is minus the right-hand side when w = u,
    which is what makes that case a geodesic flow.
    """
    return helmholtz_inverse(momentum_transport(helmholtz(w), u, validate_b(b), pad_factor))


def hamiltonian(u: Field) -> float:
    """Kinetic energy (1/2) integral(u . Au); nonnegative, zero only at u = 0."""
    return 0.5 * h1_inner(u, u)


def check_metric_compatibility(
    u: Field,
    v: Field,
    w: Field,
    b=B_CAMASSA_HOLM,
    pad_factor: int = DEFAULT_PAD_FACTOR,
) -> float:
    """Relative defect of the compatibility pairing at parameter b.

    Compares integral((grad v . u) . Aw + (grad w . u) . Av) with the same
    pairing of Gamma(u, v) against w and Gamma(u, w) against v, normalized
    by 1 + |left side|.  Roundoff-small at b = 2; order one for b != 2 on
    generic data.
    """
    lhs = h1_inner(dot(gradient(v), u, pad_factor), w) + h1_inner(dot(gradient(w), u, pad_factor), v)
    rhs = h1_inner(christoffel(u, v, b, pad_factor), w) + h1_inner(christoffel(u, w, b, pad_factor), v)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def rk4(rhs, t: float, y, dt: float):
    """One classical fourth-order Runge-Kutta step of dy/dt = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_count(t_end: float, dt: float) -> int:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end={t_end} is not a whole number of steps of dt={dt}")
    return n


def march(rhs, y0, t_end: float, dt: float, record_stride: int, guard, state) -> Trajectory:
    """Fixed RK4 steps of dy/dt = rhs(t, y) from y(0) = y0 up to t_end.

    Records the start, every record_stride-th state and the final one, each
    as state(t, y), and returns them as a Trajectory.  guard(t, y) raises to
    reject a new state.  A RuntimeError from a step or its guard aborts the
    march; it leaves with err.partial, the Trajectory of the records extended
    by the last accepted state, so callers can emit partial output.
    """
    n_steps = _step_count(t_end, dt)
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    t, y = 0.0, y0
    records = [(t, y)]

    def recorded() -> Trajectory:
        return Trajectory(dt=float(dt), times=np.array([rt for rt, _ in records]),
                          states=tuple(state(rt, ry) for rt, ry in records))

    for i in range(1, n_steps + 1):
        try:
            y_next = rk4(rhs, t, y, dt)
            guard(i * dt, y_next)
        except RuntimeError as err:
            if records[-1][1] is not y:
                records.append((t, y))
            err.partial = recorded()
            raise
        t, y = i * dt, y_next
        if i % record_stride == 0 or i == n_steps:
            records.append((t, y))
    return recorded()


def integrate(
    u0: Field,
    b,
    t_end: float,
    dt: float,
    record_stride: int = 1,
    blowup_factor: float = 1e3,
    pad_factor: int = DEFAULT_PAD_FACTOR,
) -> Trajectory:
    """Advance u0 to t_end with fixed steps, recording every record_stride-th state.

    Aborts with BlowupError when the velocity goes non-finite or its sup norm
    exceeds blowup_factor times the initial one; the final state is always
    recorded, and on abort err.partial holds the trajectory up to the last
    accepted state.
    """
    b = validate_b(b)
    sup0 = u0.sup_norm()

    def guard(t: float, u: Field) -> None:
        sup = u.sup_norm()
        if not np.isfinite(sup):
            raise BlowupError(f"non-finite velocity at t={t:.6g} (suspected blow-up or instability)")
        if sup > blowup_factor * sup0:
            raise BlowupError(f"sup|u|={sup:.3g} exceeds {blowup_factor:g} x initial {sup0:.3g} at t={t:.6g}")

    return march(lambda t, u: euler_rhs(u, b, pad_factor), u0, t_end, dt, record_stride, guard, EulerState)


# ---------------------------------------------------------------------------
# One-dimensional oracles on plain arrays (period-1 grids, even length).
# Kept deliberately separate from the field types above: these exist to
# cross-check the planar code on y-independent data, so they share nothing
# with it beyond numpy's FFT.


def _check_1d(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 4 or v.size % 2 != 0:
        raise ValueError("expected a 1D sample array of even length >= 4")
    return v


def _dx_1d(v: np.ndarray) -> np.ndarray:
    n = v.size
    j = np.fft.fftfreq(n, d=1.0 / n)
    j[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(v) * (2j * np.pi * j)).real


def helmholtz_1d(v, inverse: bool = False) -> np.ndarray:
    """1 - d^2/dx^2 on a periodic sample array (or its inverse)."""
    v = _check_1d(v)
    k = 2.0 * np.pi * np.fft.fftfreq(v.size, d=1.0 / v.size)
    sym = 1.0 + k * k
    spec = np.fft.fft(v)
    return np.fft.ifft(spec / sym if inverse else spec * sym).real


def _pad_1d(spec: np.ndarray, p: int) -> np.ndarray:
    n = spec.size
    out = np.zeros(p, dtype=np.complex128)
    s = p // 2 - n // 2
    out[s:s + n] = np.fft.fftshift(spec)
    return np.fft.ifftshift(out)


def _product_1d(f: np.ndarray, g: np.ndarray, pad_factor: int) -> np.ndarray:
    if pad_factor == 1:
        return f * g
    n = f.size
    p = pad_factor * n
    ffine = np.fft.ifft(_pad_1d(np.fft.fft(f) / n, p) * p).real
    gfine = np.fft.ifft(_pad_1d(np.fft.fft(g) / n, p) * p).real
    spec = np.fft.fft(ffine * gfine) / p
    s = p // 2 - n // 2
    kept = np.fft.ifftshift(np.fft.fftshift(spec)[s:s + n])
    return np.fft.ifft(kept * n).real


def profile_1d(n: int, seed: int, kmax: int, amplitude: float) -> np.ndarray:
    """Reproducible random profile with modes 1..kmax, sup-norm scaled to amplitude.

    Raises ValueError unless kmax < n // 2, so no mode aliases on n points.
    """
    if kmax >= n // 2:
        raise ValueError(f"kmax={kmax} too large for {n} points")
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    vals = np.zeros(n)
    for j in range(1, kmax + 1):
        a, b = rng.standard_normal(2)
        vals += a * np.cos(2.0 * np.pi * j * x) + b * np.sin(2.0 * np.pi * j * x)
    sup = np.max(np.abs(vals))
    return vals if sup == 0.0 else amplitude / sup * vals


def rhs_1d_b(g, b, pad_factor: int = DEFAULT_PAD_FACTOR) -> np.ndarray:
    """du/dt for the 1D family m_t = -(m_x u + b u_x m), m = u - u_xx."""
    b = validate_b(b)
    g = _check_1d(g)
    m = helmholtz_1d(g)
    m_t = -(_product_1d(_dx_1d(m), g, pad_factor) + b * _product_1d(_dx_1d(g), m, pad_factor))
    return helmholtz_1d(m_t, inverse=True)


def integrate_1d(g0, b, t_end: float, dt: float, pad_factor: int = DEFAULT_PAD_FACTOR) -> np.ndarray:
    """RK4 trajectory of the 1D family; returns the final sample array."""
    b = validate_b(b)
    g = _check_1d(g0)
    for _ in range(_step_count(t_end, dt)):
        k1 = rhs_1d_b(g, b, pad_factor)
        k2 = rhs_1d_b(g + 0.5 * dt * k1, b, pad_factor)
        k3 = rhs_1d_b(g + 0.5 * dt * k2, b, pad_factor)
        k4 = rhs_1d_b(g + dt * k3, b, pad_factor)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return g


def mch2_rhs(v, rho, pad_factor: int = DEFAULT_PAD_FACTOR) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (q_t, rho_t) of the two-component system

        q_t + v q_x + 2 q v_x + rho * (1 - dxx)^{-1} rho_x = 0,
        rho_t + (rho v)_x = 0,          q = v - v_xx.

    The divergence (rho v)_x is expanded by the product rule so each factor
    is dealiased before differentiation, mirroring the planar computation.
    """
    v = _check_1d(v)
    rho = _check_1d(rho)
    if v.size != rho.size:
        raise ValueError("v and rho must share one grid")
    q = helmholtz_1d(v)
    q_t = -(
        _product_1d(v, _dx_1d(q), pad_factor)
        + 2.0 * _product_1d(q, _dx_1d(v), pad_factor)
        + _product_1d(rho, helmholtz_1d(_dx_1d(rho), inverse=True), pad_factor)
    )
    rho_t = -(_product_1d(_dx_1d(rho), v, pad_factor) + _product_1d(rho, _dx_1d(v), pad_factor))
    return q_t, rho_t
