"""Metamorphic checks from the symmetries of the b-equation.

Each property holds exactly for the continuous equation and for the
discretization, so a refactor that breaks one of them has changed the
numerics, not just the code layout.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow.dynamics import christoffel, euler_rhs, integrate
from torusflow.flow import geodesic_integrate
from torusflow.spectral import Field, make_grid, random_bandlimited

EPS = np.finfo(float).eps
N = 16

seeds = st.integers(0, 2**31 - 1)
shifts = st.integers(0, N - 1)


def rolled(f: Field, sx: int, sy: int) -> np.ndarray:
    return np.roll(f.values, (sx, sy), axis=(-2, -1))


@given(seed=seeds, lam=st.sampled_from([0.25, 0.5, 2.0, 4.0]), b=st.sampled_from([2.0, 3.0]))
@settings(max_examples=10, deadline=None)
def test_quadratic_scaling(seed, lam, b):
    # u_t = B(u, u) is quadratic, so v(t) = lam u(lam t) solves it from lam u0.
    grid = make_grid(N, N)
    u0 = random_bandlimited(grid, seed, kmax=3, amplitude=0.5)
    dt, steps = 1e-2, 3
    base = integrate(u0, b, steps * dt, dt).final.u
    scaled = integrate(lam * u0, b, steps * dt / lam, dt / lam).final.u
    # Scaling by a power of two commutes with every rounded operation, so the
    # two runs agree bit for bit unless a kernel sums in a data-alignment
    # dependent order; 4 ulps of the final state leave room for that alone.
    assert (scaled - lam * base).sup_norm() <= 4 * EPS * lam * base.sup_norm()


@given(seed=seeds, sx=shifts, sy=shifts, b=st.sampled_from([2.0, 3.0]))
@settings(max_examples=10, deadline=None)
def test_velocity_form_commutes_with_grid_shifts(seed, sx, sy, b):
    grid = make_grid(N, N)
    u0 = random_bandlimited(grid, seed, kmax=3, amplitude=0.5)
    base = integrate(u0, b, 3e-2, 1e-2).final.u
    shifted = integrate(Field(grid, rolled(u0, sx, sy)), b, 3e-2, 1e-2).final.u
    # A grid shift multiplies each spectrum by unit phases, exact in exact
    # arithmetic but rounded differently in each of the 40 FFTs per step;
    # seen at 8e-16 relative, bounded at 45 eps.
    assert np.max(np.abs(shifted.values - rolled(base, sx, sy))) <= 1e-14 * base.sup_norm()


@given(seed=seeds, sx=shifts, sy=shifts)
@settings(max_examples=5, deadline=None)
def test_geodesic_commutes_with_grid_shifts(seed, sx, sy):
    # phi(z) = z + d(z) from u0(z - s) is z -> phi(z - s) + s: d and phi_t roll.
    grid = make_grid(N, N)
    u0 = random_bandlimited(grid, seed, kmax=2, amplitude=0.05)
    base = geodesic_integrate(u0, 2.0, 2e-2, 1e-2).final
    shifted = geodesic_integrate(Field(grid, rolled(u0, sx, sy)), 2.0, 2e-2, 1e-2).final
    # Each inversion stops once its update is below 1e-12, and the shifted
    # run may stop one iteration apart, so the states may differ by a small
    # multiple of that tolerance times dt; seen at 1e-17, bounded at 1e-12.
    for a, b in ((base.phi.displacement, shifted.phi.displacement), (base.phi_t, shifted.phi_t)):
        assert np.max(np.abs(b.values - rolled(a, sx, sy))) <= 1e-12


def lattice_image(u: Field, turns: int, flip: bool) -> Field:
    """g.u = g u(g^-1 z) for g = R^turns F^flip, R the quarter turn, F the flip x -> -x."""
    v = u.values
    neg = (-np.arange(N)) % N
    if flip:
        v = np.stack([-v[0][neg, :], v[1][neg, :]])
    for _ in range(turns):
        # (R u)(x, y) = R u(y, -x) with R = [[0, -1], [1, 0]].
        w = np.swapaxes(v, -2, -1)[:, neg, :]
        v = np.stack([-w[1], w[0]])
    return Field(u.grid, v)


@given(seed=seeds, turns=st.integers(0, 3), flip=st.booleans(), b=st.sampled_from([2.0, 3.0]))
@settings(max_examples=10, deadline=None)
def test_velocity_operators_commute_with_lattice_symmetries(seed, turns, flip, b):
    # White-noise inputs carry content in the Nyquist row, the Nyquist column
    # and the corner, where the rfft2 half spectrum treats x and y
    # differently; the corner's interpolant cos(pi N x) cos(pi N y) is
    # preserved by quarter turns and flips.
    grid = make_grid(N, N)
    rng = np.random.default_rng(seed)
    u, v = (Field(grid, rng.standard_normal((2, N, N))) for _ in range(2))

    def image(f):
        return lattice_image(f, turns, flip)

    for got, want in (
        (euler_rhs(image(u), b), image(euler_rhs(u, b))),
        (christoffel(image(u), image(v), b), image(christoffel(u, v, b))),
    ):
        # Seen up to 2e-14 relative over 1600 draws, the corner included;
        # each side rounds its FFTs in its own order.
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * want.sup_norm()
