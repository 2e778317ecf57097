"""Why b = 2 with the Helmholtz operator is the special case.

The family m_t = -grad(m).u - (grad u)^T m - (b-1) m div(u), m = Au admits a
metric (least-action) formulation only when the momentum equation agrees with
the Euler equation of the energy 1/2 integral(u . Au).  On complex exponential
modes u_n = e^{i n.z} (1,1) the comparison collapses to finite-dimensional
linear algebra: a pair of diagonal matrices alpha_n, beta_n and the residual
of (i(n1+n2) I - i alpha_n) c = -i beta_n (1,1) over candidate amplitudes c.

This module evaluates those residuals exactly (to rounding) for any b, with
A = 1 - Laplacian.  A general diagonal Fourier-multiplier inertia operator
enters only as gl3_residual's per-mode candidate c; the operator-level gap
gl1_residual compares the b-family with the b = 2 metric equation for the
Helmholtz operator alone.  Only b = 2 zeroes every residual; each other b is
caught by at least one mode.  The full symmetric-isomorphism class of
inertia operators is out of numerical reach and is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import ad_star, validate_b
from .spectral import TWO_PI, Field, TorusGrid, _integral, cosine_mode

__all__ = [
    "ModeIndex",
    "VerificationReport",
    "build_diagonals",
    "gl3_residual",
    "gl1_residual",
    "verify_theorem",
]

DEFAULT_TOLERANCE = 1e-11


@dataclass(frozen=True)
class ModeIndex:
    """Nonzero integer lattice mode; physical wavenumber is 2*pi*(n1, n2)."""

    n1: int
    n2: int

    def __post_init__(self):
        _integral(self.n1, "n1"), _integral(self.n2, "n2")
        if self.n1 == 0 and self.n2 == 0:
            raise ValueError("the zero mode is excluded")

    @property
    def n(self) -> tuple[float, float]:
        return (TWO_PI * self.n1, TWO_PI * self.n2)

    @property
    def n_sq(self) -> float:
        w1, w2 = self.n
        return w1 * w1 + w2 * w2


def build_diagonals(mode: ModeIndex, b) -> tuple[tuple[float, float], tuple[float, float]]:
    """Diagonals (alpha_n, beta_n) of the 2x2 matrices of one mode's linear system.

    beta never depends on b; alpha is affine in b.  Both are in physical
    (2*pi-scaled) wavenumber units.
    """
    b = validate_b(b)
    w1, w2 = mode.n
    denom = 1.0 + mode.n_sq
    adv = w1 + w2
    alpha = (
        (w1 * (b + 1.0) + (b - 1.0) * w2) / denom + adv,
        (w2 * (b + 1.0) + (b - 1.0) * w1) / denom + adv,
    )
    beta = (3.0 * w1 + w2, 3.0 * w2 + w1)
    return alpha, beta


def gl3_residual(mode: ModeIndex, b, v_candidate) -> float:
    """Max modulus of (i(n1+n2) I - i alpha_n) c + i beta_n (1,1) componentwise.

    Candidate c = (1 + n^2)(1,1) solves the system iff b = 2; the alternative
    c = (2/b)(1 + n^2)(1,1) solves it for every b but only on the diagonal
    modes n1 = n2.
    """
    c = np.asarray(v_candidate, dtype=complex)
    if c.shape != (2,):
        raise ValueError("candidate must be a pair of complex amplitudes")
    alpha, beta = build_diagonals(mode, b)
    w1, w2 = mode.n
    adv = w1 + w2
    r0 = (adv - alpha[0]) * c[0] + beta[0]
    r1 = (adv - alpha[1]) * c[1] + beta[1]
    return float(max(abs(r0), abs(r1)))


def gl1_residual(u: Field, b) -> float:
    """Sup-norm gap between the metric Euler equation and the b-family
    momentum equation, both for the Helmholtz operator.

    Both sides are the coadjoint action ad*_u u, the metric one at b = 2, so
    the gap collapses to (2 - b) A^{-1}{(Au) div u} and vanishes for every u
    exactly when b = 2.
    """
    return (ad_star(u, u, 2.0) - ad_star(u, u, b)).sup_norm()


@dataclass(frozen=True)
class VerificationReport:
    """Residual rows as verification.json prints them, and the b values all of whose rows pass."""

    rows: tuple[dict, ...]
    consistent_b: tuple[float, ...]


def verify_theorem(b_list: Sequence[float], mode_list: Sequence[tuple[int, int]], grid: TorusGrid,
                   tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Residual table over a b sweep and a mode sweep.

    For each (b, n), one row {b, n1, n2, gl3_residual, gl1_residual, pass}:
    the mode-wise linear-system residual with candidate (1 + n^2)(1,1), and
    the operator-level gap on the mode's real part on grid, its products
    exact; the row passes when both are at most tolerance.
    The report's consistent_b lists, in sweep order, the b values with rows
    that all pass; over b_list containing {2, 3, 4} that is exactly (2.0,).
    """
    modes = [ModeIndex(n1, n2) for (n1, n2) in mode_list]
    rows, consistent_b = [], []
    for b in map(validate_b, b_list):
        b_rows = []
        for mode in modes:
            candidate = (1.0 + mode.n_sq) * np.ones(2, dtype=complex)
            g3 = gl3_residual(mode, b, candidate)
            g1 = gl1_residual(cosine_mode(grid, mode.n1, mode.n2), b)
            b_rows.append({"b": b, "n1": mode.n1, "n2": mode.n2, "gl3_residual": g3,
                           "gl1_residual": g1, "pass": max(g3, g1) <= tolerance})
        rows += b_rows
        if b_rows and all(row["pass"] for row in b_rows) and b not in consistent_b:
            consistent_b.append(b)
    return VerificationReport(tuple(rows), tuple(consistent_b))
