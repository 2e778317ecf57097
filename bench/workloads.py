"""Workload inputs made from a seed, and checks of the program's outputs.

Every input the program sees is a JSON config built here; every check
compares the output files against a closed form, the velocity-form route or
a conservation law, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

ENERGY_TOL = 1e-12        # relative, first Hamiltonian row against the closed form
ENERGY_DRIFT_TOL = 1e-12  # relative, b = 2 conservation over the short run
MOMENTUM_DRIFT_TOL = 1e-6
TWO_ROUTE_TOL = 1e-6      # sup-norm, deformation-map vs velocity-form readback
CURVATURE_TOL = 1e-7      # absolute, both routes against the closed form


@dataclass(frozen=True)
class Case:
    """One generated program input and what its checker needs to know."""

    command: str
    config: dict
    steps: int = 0
    threads: int = 1
    modes: list = field(default_factory=list)

    def cli_args(self, config_path: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out),
                "--threads", str(self.threads)]


def _random_modes(rng, jmax: int, count: int, amp_lo: float, amp_hi: float) -> list[dict]:
    """Cosine modes on distinct wavevectors, one of each +-j pair, j != 0."""
    vectors = [(j1, j2) for j1 in range(jmax + 1) for j2 in range(-jmax, jmax + 1)
               if j1 > 0 or j2 > 0]
    picks = rng.choice(len(vectors), size=count, replace=False)
    return [
        {
            "j1": vectors[p][0],
            "j2": vectors[p][1],
            "amplitude": float(rng.uniform(amp_lo, amp_hi)),
            "component": str(rng.choice(["u1", "u2", "both"])),
        }
        for p in sorted(picks)
    ]


def simulate_case(seed: int, n: int = 128, steps: int = 8) -> Case:
    rng = np.random.default_rng([seed, 1])
    modes = _random_modes(rng, jmax=3, count=4, amp_lo=0.01, amp_hi=0.03)
    dt = 1e-3
    config = {
        "grid": [n, n],
        "b": 2.0,
        "initial_condition": {"type": "modes", "modes": modes},
        "dt": dt,
        "t_end": steps * dt,
    }
    return Case("simulate", config, steps=steps, modes=modes)


def geodesic_case(seed: int, n: int = 32, steps: int = 8) -> Case:
    rng = np.random.default_rng([seed, 2])
    modes = _random_modes(rng, jmax=2, count=3, amp_lo=0.005, amp_hi=0.015)
    dt = 5e-3
    config = {
        "grid": [n, n],
        "b": 2.0,
        "initial_condition": {"type": "modes", "modes": modes},
        "dt": dt,
        "t_end": steps * dt,
        "snapshots": True,
    }
    return Case("geodesic", config, steps=steps, modes=modes)


def curvature_case(seed: int, threads: int, n: int = 64, jmax: int = 4) -> Case:
    rng = np.random.default_rng([seed, 3])
    k_range = sorted(int(j) for j in rng.choice(np.arange(1, jmax + 1), size=2, replace=False))
    config = {"grid": [n, n], "k_range": k_range, "basis": [1, 2]}
    return Case("curvature", config, threads=threads)


# --------------------------------------------------------------------------
# Closed forms and the independent velocity-form route.


def closed_form_energy(modes: list[dict]) -> float:
    """(1/2) sum over components of a^2 (1 + 4 pi^2 |j|^2) / 2 for a cos(2 pi j.x)."""
    total = 0.0
    for m in modes:
        ncomp = 2 if m["component"] == "both" else 1
        jsq = m["j1"] ** 2 + m["j2"] ** 2
        total += ncomp * m["amplitude"] ** 2 * (1.0 + TWO_PI**2 * jsq) / 2.0
    return 0.5 * total


def closed_form_curvature(i: int, j1: int, j2: int) -> float:
    """S on span{e_i, sin(k1 x) sin(k2 y)(1,1)}: (1/8)(2k1^2 + k2^2)/(1 + k1^2 + k2^2)."""
    k1, k2 = TWO_PI * j1, TWO_PI * j2
    if i == 2:
        k1, k2 = k2, k1
    return 0.125 * (2.0 * k1**2 + k2**2) / (1.0 + k1**2 + k2**2)


def modes_field(n: int, modes: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    u1, u2 = np.zeros((n, n)), np.zeros((n, n))
    for m in modes:
        vals = m["amplitude"] * np.cos(TWO_PI * (m["j1"] * X + m["j2"] * Y))
        if m["component"] in ("u1", "both"):
            u1 += vals
        if m["component"] in ("u2", "both"):
            u2 += vals
    return u1, u2


# --------------------------------------------------------------------------
# Output readers.


def read_csv(path: Path) -> dict[str, np.ndarray]:
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: rows[:, k] for k, name in enumerate(header)}


def _grid_field(table: dict, a: str, b: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    return table[a].reshape(n, n), table[b].reshape(n, n)


# --------------------------------------------------------------------------
# Checks: each returns a list of failures, empty when the output is right.


def check_simulate(case: Case, out: Path) -> list[str]:
    table = read_csv(out / "trajectory.csv")
    h = table["hamiltonian"]
    errors = []
    if len(h) != case.steps + 1:
        errors.append(f"trajectory has {len(h)} rows, expected {case.steps + 1}")
    expected = closed_form_energy(case.modes)
    gap = abs(h[0] - expected) / expected
    if not gap <= ENERGY_TOL:
        errors.append(f"initial energy {h[0]!r} differs from closed form {expected!r} by {gap:.3g}")
    drift = float(np.max(np.abs(h - h[0])) / h[0])
    if not drift <= ENERGY_DRIFT_TOL:
        errors.append(f"b = 2 energy drift {drift:.3g} exceeds {ENERGY_DRIFT_TOL:g}")
    return errors


def check_geodesic(case: Case, out: Path) -> list[str]:
    # Imported here: the caller first puts the checkout's src/ on sys.path.
    from torusflow import DiffeoMap, VectorField, coadjoint, helmholtz, integrate, make_grid

    n = case.config["grid"][0]
    grid = make_grid(n, n)
    u0 = VectorField.from_values(grid, *modes_field(n, case.modes))
    u_final = VectorField.from_values(
        grid, *_grid_field(read_csv(out / "velocity_final.csv"), "u1", "u2", n))
    d_final = VectorField.from_values(
        grid, *_grid_field(read_csv(out / "diffeo_final.csv"), "d1", "d2", n))
    errors = []

    # Body momentum Ad*_phi A(u) is conserved at b = 2; at t = 0 it is A(u0).
    m0 = helmholtz(u0)
    m_final = coadjoint(DiffeoMap(d_final), helmholtz(u_final))
    drift = (m_final - m0).sup_norm() / m0.sup_norm()
    if not drift <= MOMENTUM_DRIFT_TOL:
        errors.append(f"body-momentum drift {drift:.3g} exceeds {MOMENTUM_DRIFT_TOL:g}")

    # The same geodesic through the velocity form.
    cfg = case.config
    velocity_route = integrate(u0, 2.0, cfg["t_end"], cfg["dt"], record_stride=case.steps)
    gap = (velocity_route.final.u - u_final).sup_norm()
    if not gap <= TWO_ROUTE_TOL:
        errors.append(f"deformation-map velocity differs from velocity form by {gap:.3g}")
    return errors


def check_curvature(case: Case, out: Path) -> list[str]:
    table = read_csv(out / "curvature.csv")
    ks = case.config["k_range"]
    expected = {(i, j1, j2) for i in case.config["basis"] for j1 in ks for j2 in ks}
    seen = set()
    errors = []
    for k1, k2, i, s_formula, s_direct in zip(table["k1"], table["k2"], table["i"],
                                              table["S_formula"], table["S_direct"]):
        key = (int(i), round(k1 / TWO_PI), round(k2 / TWO_PI))
        seen.add(key)
        want = closed_form_curvature(*key)
        for route, value in (("S_formula", s_formula), ("S_direct", s_direct)):
            if not abs(value - want) <= CURVATURE_TOL:
                errors.append(f"{route} {value!r} on plane {key} differs from closed form {want!r}")
            if not value > 0.0:
                errors.append(f"{route} {value!r} on plane {key} is not positive")
    if seen != expected or len(table["i"]) != len(expected):
        errors.append(f"planes {sorted(seen)} do not match the requested {sorted(expected)}")
    return errors


CHECKS = {"simulate": check_simulate, "geodesic": check_geodesic, "curvature": check_curvature}


def check(case: Case, out: Path) -> list[str]:
    return CHECKS[case.command](case, out)
