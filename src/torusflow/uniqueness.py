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

from .dynamics import momentum_transport, validate_b
from .spectral import (
    TWO_PI,
    Field,
    TorusGrid,
    cosine_mode,
    helmholtz,
    helmholtz_inverse,
)

__all__ = [
    "ModeIndex",
    "DiagonalPair",
    "ModeResidual",
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
        if self.n1 != int(self.n1) or self.n2 != int(self.n2):
            raise ValueError("mode indices must be integers")
        if self.n1 == 0 and self.n2 == 0:
            raise ValueError("the zero mode is excluded")

    @property
    def n(self) -> tuple[float, float]:
        return (TWO_PI * self.n1, TWO_PI * self.n2)

    @property
    def n_sq(self) -> float:
        w1, w2 = self.n
        return w1 * w1 + w2 * w2


@dataclass(frozen=True)
class DiagonalPair:
    """Diagonals of the 2x2 matrices entering the mode-wise linear system."""

    alpha: tuple[float, float]
    beta: tuple[float, float]


def build_diagonals(mode: ModeIndex, b) -> DiagonalPair:
    """alpha_n and beta_n for one mode.

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
    return DiagonalPair(alpha=alpha, beta=beta)


def gl3_residual(mode: ModeIndex, b, v_candidate) -> float:
    """Max modulus of (i(n1+n2) I - i alpha_n) c + i beta_n (1,1) componentwise.

    Candidate c = (1 + n^2)(1,1) solves the system iff b = 2; the alternative
    c = (2/b)(1 + n^2)(1,1) solves it for every b but only on the diagonal
    modes n1 = n2.
    """
    c = np.asarray(v_candidate, dtype=complex)
    if c.shape != (2,):
        raise ValueError("candidate must be a pair of complex amplitudes")
    d = build_diagonals(mode, b)
    w1, w2 = mode.n
    adv = w1 + w2
    r0 = (adv - d.alpha[0]) * c[0] + d.beta[0]
    r1 = (adv - d.alpha[1]) * c[1] + d.beta[1]
    return float(max(abs(r0), abs(r1)))


def gl1_residual(u: Field, b) -> float:
    """Sup-norm gap between the metric Euler equation and the b-family
    momentum equation, both for the Helmholtz operator.

    The metric equation is the b = 2 transport of the momentum m = Au, so
    the gap collapses to (2 - b) A^{-1}{(Au) div u} and vanishes for every u
    exactly when b = 2.
    """
    b = validate_b(b)
    m = helmholtz(u)
    metric_side = helmholtz_inverse(momentum_transport(m, u, 2.0))
    family_side = helmholtz_inverse(momentum_transport(m, u, b))
    return (metric_side - family_side).sup_norm()


@dataclass(frozen=True)
class ModeResidual:
    b: float
    n1: int
    n2: int
    gl3_residual: float
    gl1_residual: float
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def passed(self) -> bool:
        return max(self.gl3_residual, self.gl1_residual) <= self.tolerance

    def as_row(self) -> dict:
        return {
            "b": self.b,
            "n1": self.n1,
            "n2": self.n2,
            "gl3_residual": self.gl3_residual,
            "gl1_residual": self.gl1_residual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[ModeResidual, ...]

    @property
    def b_values(self) -> tuple[float, ...]:
        seen: list[float] = []
        for row in self.rows:
            if row.b not in seen:
                seen.append(row.b)
        return tuple(seen)

    def passes_for(self, b: float) -> bool:
        rows = [r for r in self.rows if r.b == b]
        return bool(rows) and all(r.passed for r in rows)

    @property
    def consistent_b(self) -> tuple[float, ...]:
        """The b values whose every tested mode has vanishing residuals."""
        return tuple(b for b in self.b_values if self.passes_for(b))

    def as_rows(self) -> list[dict]:
        return [r.as_row() for r in self.rows]


def verify_theorem(b_list: Sequence[float], mode_list: Sequence[tuple[int, int]], grid: TorusGrid,
                   tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Residual table over a b sweep and a mode sweep.

    For each (b, n): the mode-wise linear-system residual with candidate
    (1 + n^2)(1,1), and the operator-level gap on the mode's real part on
    grid, its products exact.
    The report's consistent_b lists the b values with an all-zero row; over
    b_list containing {2, 3, 4} that is exactly (2.0,).
    """
    modes = [ModeIndex(n1, n2) for (n1, n2) in mode_list]
    rows = []
    for b in b_list:
        b = validate_b(b)
        for mode in modes:
            candidate = (1.0 + mode.n_sq) * np.ones(2, dtype=complex)
            g3 = gl3_residual(mode, b, candidate)
            g1 = gl1_residual(cosine_mode(grid, mode.n1, mode.n2), b)
            rows.append(ModeResidual(
                b=b, n1=mode.n1, n2=mode.n2,
                gl3_residual=g3, gl1_residual=g1, tolerance=tolerance,
            ))
    return VerificationReport(rows=tuple(rows))
