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
    Field,
    _dealiased,
    _lift,
    _operands,
    _padded_rows,
    _scratch_array,
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
    "RunAbort",
    "BlowupError",
    "EulerState",
    "Trajectory",
    "ConservationReport",
    "conservation_row",
    "validate_b",
    "momentum_transport",
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


class RunAbort(RuntimeError):
    """A march can go no further: the CLI reports it, exits 2 and keeps partial outputs."""


class BlowupError(RunAbort):
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
    """Recorded states of one completed march, in time order, and their times.

    integrate records EulerStates and flow.geodesic_integrate GeodesicStates
    unless given another state; flow.flow_from_velocity records DiffeoMaps.
    An aborted march returns none: its records went only to its state.
    """

    dt: float
    times: np.ndarray
    states: tuple

    @property
    def final(self):
        return self.states[-1]


def _relative_drift(q: np.ndarray) -> float:
    return float(np.max(np.abs(q - q[0])) / max(abs(float(q[0])), DRIFT_FLOOR))


def conservation_row(t: float, u: Field) -> tuple[float, float, float]:
    """(t, hamiltonian, sup_u) of the velocity u at time t: one row of a ConservationReport."""
    return t, hamiltonian(u), u.sup_norm()


@dataclass(frozen=True)
class ConservationReport:
    """Scalar diagnostics along a trajectory and their relative drifts."""

    times: np.ndarray
    hamiltonian: np.ndarray
    sup_u: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "ConservationReport":
        """The report of conservation_row rows, in time order."""
        return cls(*(np.array(column) for column in zip(*rows)))

    @property
    def hamiltonian_drift(self) -> float:
        return _relative_drift(self.hamiltonian)


def conservation_report(trajectory: Trajectory) -> ConservationReport:
    return ConservationReport.from_rows(conservation_row(s.t, s.u) for s in trajectory.states)


def _zeroed(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """This thread's scratch array `name` of this shape, set to zero."""
    acc = _scratch_array(name, shape)
    acc.fill(0.0)
    return acc


def _transport(m: Field, lm: np.ndarray, v: Field, lv: np.ndarray, b: float, acc: np.ndarray,
               sym: np.ndarray | None = None, lw: np.ndarray | None = None) -> np.ndarray:
    """Adds to acc the padded samples of grad(m).v + (grad v)^T m + (b-1) m div v,
    from m and v lifted, and returns acc.

    The rows of grad m and grad v never exist as whole padded planes: each
    pair of them is streamed one row block at a time (spectral._padded_rows),
    and every product of the block is formed in its spent gradient rows and
    the block's two spare planes.  div v is summed from the diagonal of
    grad v; given sym and w lifted, grad(v).w is added to sym from the same
    rows.  Each accumulator adds its terms in the order of
    acc[i] += g[0] v[0] + g[1] v[1], acc[j] += g[j] m[i] + ((b-1) g[i]) m[j]
    and sym[i] += g[0] w[0] + g[1] w[1].
    """
    for i in range(2):
        for rows, g, _ in _padded_rows(m[i], gradient=True):
            np.multiply(g, lv[:, rows], out=g)
            acc[i, rows] += np.add(g[0], g[1], out=g[0])
        for rows, g, t in _padded_rows(v[i], gradient=True):
            if sym is not None:
                np.multiply(g, lw[:, rows], out=t)
                sym[i, rows] += np.add(t[0], t[1], out=t[0])
            s = np.multiply(g[i], b - 1.0, out=t[1])
            np.multiply(s, lm[0, rows], out=t[0])
            np.multiply(s, lm[1, rows], out=t[1])
            np.multiply(g, lm[i, rows], out=g)
            acc[:, rows] += np.add(g, t, out=g)
    return acc


def momentum_transport(m: Field, v: Field, b: float) -> Field:
    """Transport of the momentum m by the velocity v: grad(m).v + (grad v)^T m + (b-1) m div v."""
    _operands([m, v], (2,))
    return _dealiased(m, v, lambda lm, lv: _transport(m, lm, v, lv, b, _zeroed("acc", lm.shape)))


def christoffel(u: Field, v: Field, b) -> Field:
    """Connection bilinear form Gamma(u, v), symmetric in its arguments.

    Gamma(u, v) = (grad u . v + grad v . u + B(u, v) + B(v, u)) / 2.

    When v is u it is lifted once and the two transports are equal, so one
    is computed and doubled; x + x is exact, so the result has the same bits.
    """
    b = validate_b(b)
    _operands([u, v], (2,))
    mu = helmholtz(u)

    def parts(lu, lv):
        acc = _zeroed("acc", (2,) + lu.shape)  # the symmetric part and the transport under A^{-1}
        _transport(mu, _lift(mu, "lift_m"), v, lv, b, acc[1], acc[0], lu)
        if v is u:
            acc *= 2.0
        else:
            mv = helmholtz(v)
            acc[1] += _transport(mv, _lift(mv, "lift_m"), u, lu, b, _zeroed("acc_v", lu.shape), acc[0], lv)
        return acc

    p = _dealiased(u, v, parts)
    return 0.5 * (p[0] - helmholtz_inverse(p[1]))


def euler_rhs(u: Field, b) -> Field:
    """du/dt in the direct momentum form, i.e. B(u, u) = -ad*_u u."""
    return -ad_star(u, u, b)


def euler_rhs_geometric(u: Field, b) -> Field:
    """du/dt written as Gamma(u, u) - grad(u).u; agrees with euler_rhs to roundoff."""
    return christoffel(u, u, b) - dot(gradient(u), u)


def check_commuting_identity(u: Field, v: Field) -> float:
    """Residual of grad(Av).u - A(grad v . u) against its derivative expansion.

    The expansion is grad(v).Lap(u) + 2 grad(v_x).u_x + 2 grad(v_y).u_y.
    Returns the max-norm of the difference.  Every product is exact before
    its truncation, so this is pure roundoff whenever the pairwise products
    of u and v have no modes beyond the grid's.
    """
    gv = gradient(v)
    lhs = dot(gradient(helmholtz(v)), u) - helmholtz(dot(gv, u))
    rhs = (
        dot(gv, laplacian(u))
        + 2.0 * dot(gradient(partial_x(v)), partial_x(u))
        + 2.0 * dot(gradient(partial_y(v)), partial_y(u))
    )
    return (lhs - rhs).sup_norm()


def commutator(u: Field, v: Field) -> Field:
    """Vector field bracket [u, v] = grad(u).v - grad(v).u."""
    return dot(gradient(u), v) - dot(gradient(v), u)


def ad_star(u: Field, w: Field, b=B_CAMASSA_HOLM) -> Field:
    """Coadjoint action ad*_u w = A^{-1}((grad u)^T Aw + grad(Aw).u + (b-1) (div u) Aw).

    The quadratic operator of the module docstring is B(u, v) = -ad_star(v, u, b),
    so euler_rhs is -ad_star(u, u, b) for every b; at the default b = 2 this
    is the coadjoint action of the metric, which makes that case a geodesic flow.
    """
    return helmholtz_inverse(momentum_transport(helmholtz(w), u, validate_b(b)))


def hamiltonian(u: Field) -> float:
    """Kinetic energy (1/2) integral(u . Au); nonnegative, zero only at u = 0."""
    return 0.5 * h1_inner(u, u)


def check_metric_compatibility(
    u: Field,
    v: Field,
    w: Field,
    b=B_CAMASSA_HOLM,
) -> float:
    """Relative defect of the compatibility pairing at parameter b.

    Compares integral((grad v . u) . Aw + (grad w . u) . Av) with the same
    pairing of Gamma(u, v) against w and Gamma(u, w) against v, normalized
    by 1 + |left side|.  Roundoff-small at b = 2; order one for b != 2 on
    generic data.
    """
    lhs = h1_inner(dot(gradient(v), u), w) + h1_inner(dot(gradient(w), u), v)
    rhs = h1_inner(christoffel(u, v, b), w) + h1_inner(christoffel(u, w, b), v)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def rk4(rhs, t: float, y, dt: float):
    """One classical fourth-order Runge-Kutta step of dy/dt = rhs(t, y).

    The stage derivatives are summed as each one finishes, in the order
    ((k1 + 2 k2) + 2 k3) + k4, and each is dropped once the next stage's
    input is formed, so at most one is alive beside the running sum.
    """
    half = 0.5 * dt
    acc = k = rhs(t, y)
    y_stage, k = y + half * k, None
    k = rhs(t + half, y_stage)
    acc = acc + 2.0 * k
    y_stage, k = y + half * k, None
    k = rhs(t + half, y_stage)
    acc = acc + 2.0 * k
    y_stage, k = y + dt * k, None
    acc = acc + rhs(t + dt, y_stage)
    return y + (dt / 6.0) * acc


def _step_count(t_end: float, dt: float) -> int:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    steps = t_end / dt
    if not np.isfinite(steps):
        raise ValueError(f"t_end={t_end} is not a finite number of steps of dt={dt}")
    if steps > 2.0**53:  # past 2**53 the step times i*dt can repeat
        raise ValueError(f"t_end={t_end} is more than 2**53 steps of dt={dt}")
    n = int(round(steps))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end={t_end} is not a whole number of steps of dt={dt}")
    return n


def march(rhs, y0, t_end: float, dt: float, record_stride: int, guard, state) -> Trajectory:
    """Fixed RK4 steps of dy/dt = rhs(t, y) from y(0) = y0 up to t_end.

    Records the start, every record_stride-th state and the final one, each
    as state(t, y) built when it is taken, and returns them as a Trajectory.
    Only what state returns is kept, so a state that drops y keeps the
    march's memory independent of its step count.  guard(t, y) raises to
    reject a new state.  A RuntimeError from a step or its guard aborts the
    march: the last accepted state goes to state too, unless the stride took
    it already, and the error is re-raised unchanged.  So state is the one
    channel through which an aborted march hands out its records.
    """
    n_steps = _step_count(t_end, dt)
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    t, y = 0.0, y0
    times, states = [t], [state(t, y)]
    recorded = 0  # step index of the newest record
    for i in range(1, n_steps + 1):
        try:
            y_next = rk4(rhs, t, y, dt)
            guard(i * dt, y_next)
        except RuntimeError:
            if recorded != i - 1:
                state(t, y)
            raise
        t, y = i * dt, y_next
        if i % record_stride == 0 or i == n_steps:
            times.append(t)
            states.append(state(t, y))
            recorded = i
    return Trajectory(dt=float(dt), times=np.array(times), states=tuple(states))


def integrate(
    u0: Field,
    b,
    t_end: float,
    dt: float,
    record_stride: int = 1,
    blowup_factor: float = 1e3,
    state=EulerState,
) -> Trajectory:
    """Advance u0 to t_end with fixed steps, recording every record_stride-th state.

    Each record is state(t, u), an EulerState unless another is given; the
    march keeps nothing else of u.  Aborts with BlowupError when the
    velocity goes non-finite or its sup norm exceeds blowup_factor times the
    initial one.  The final state is always recorded, and on abort so is
    the last accepted one: state has then seen every record.
    """
    b = validate_b(b)
    sup0 = u0.sup_norm()

    def guard(t: float, u: Field) -> None:
        sup = u.sup_norm()
        if not np.isfinite(sup):
            raise BlowupError(f"non-finite velocity at t={t:.6g} (suspected blow-up or instability)")
        if sup > blowup_factor * sup0:
            raise BlowupError(f"sup|u|={sup:.3g} exceeds {blowup_factor:g} x initial {sup0:.3g} at t={t:.6g}")

    return march(lambda t, u: euler_rhs(u, b), u0, t_end, dt, record_stride, guard, state)


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


def _product_1d(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Product fg formed on 2n points, twice the grid, then truncated to n."""
    n = f.size
    p = 2 * n
    ffine = np.fft.ifft(_pad_1d(np.fft.fft(f) / n, p) * p).real
    gfine = np.fft.ifft(_pad_1d(np.fft.fft(g) / n, p) * p).real
    spec = np.fft.fft(ffine * gfine) / p
    s = p // 2 - n // 2
    kept = np.fft.ifftshift(np.fft.fftshift(spec)[s:s + n])
    return np.fft.ifft(kept * n).real


def profile_1d(n: int, seed: int, kmax: int, amplitude: float) -> np.ndarray:
    """Reproducible random profile with modes 1..kmax, sup-norm scaled to amplitude.

    Raises ValueError unless 0 <= kmax < n // 2, so no mode aliases on n
    points; kmax = 0 gives the zero profile.
    """
    if kmax < 0:
        raise ValueError(f"kmax={kmax} must be >= 0")
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


def rhs_1d_b(g, b) -> np.ndarray:
    """du/dt for the 1D family m_t = -(m_x u + b u_x m), m = u - u_xx."""
    b = validate_b(b)
    g = _check_1d(g)
    m = helmholtz_1d(g)
    m_t = -(_product_1d(_dx_1d(m), g) + b * _product_1d(_dx_1d(g), m))
    return helmholtz_1d(m_t, inverse=True)


def integrate_1d(g0, b, t_end: float, dt: float) -> np.ndarray:
    """RK4 trajectory of the 1D family; returns the final sample array."""
    b = validate_b(b)
    g = _check_1d(g0)
    for _ in range(_step_count(t_end, dt)):
        k1 = rhs_1d_b(g, b)
        k2 = rhs_1d_b(g + 0.5 * dt * k1, b)
        k3 = rhs_1d_b(g + 0.5 * dt * k2, b)
        k4 = rhs_1d_b(g + dt * k3, b)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return g


def mch2_rhs(v, rho) -> tuple[np.ndarray, np.ndarray]:
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
        _product_1d(v, _dx_1d(q))
        + 2.0 * _product_1d(q, _dx_1d(v))
        + _product_1d(rho, helmholtz_1d(_dx_1d(rho), inverse=True))
    )
    rho_t = -(_product_1d(_dx_1d(rho), v) + _product_1d(rho, _dx_1d(v)))
    return q_t, rho_t
