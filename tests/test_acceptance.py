"""Acceptance gate: eleven headline checks with pinned tolerances.

One line per criterion is emitted through pytest's terminal reporter so the
verdicts stay visible even with file-descriptor capture active.  Expensive
geodesic trajectories are shared between criteria through module-scoped
fixtures.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from torusflow.curvature import (
    basis_field,
    closed_form_S,
    mode_field,
    r_term,
    sectional_formula,
)
from torusflow.dynamics import (
    BlowupError,
    check_commuting_identity,
    check_metric_compatibility,
    conservation_report,
    euler_rhs,
    helmholtz_1d,
    integrate,
    integrate_1d,
    mch2_rhs,
    profile_1d,
)
from torusflow.flow import body_momentum, eulerian_velocity, geodesic_integrate
from torusflow.spectral import (
    Field,
    helmholtz,
    make_grid,
    random_bandlimited,
    stack,
)
from torusflow.uniqueness import verify_theorem

TWO_PI = 2.0 * np.pi


_REPORTER = None


@pytest.fixture(scope="session", autouse=True)
def _terminal_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _REPORTER = None


def announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


@pytest.fixture(scope="module")
def grid64():
    return make_grid(64, 64)


@pytest.fixture(scope="module")
def grid32():
    return make_grid(32, 32)


@pytest.fixture(scope="module")
def small_field(grid32):
    return random_bandlimited(grid32, seed=7, kmax=2, amplitude=0.02)


@pytest.fixture(scope="module")
def geodesic_runs(small_field):
    return {
        b: geodesic_integrate(small_field, b, 0.2, 5e-4, record_stride=50)
        for b in (2.0, 3.0)
    }


@pytest.fixture(scope="module")
def euler_runs(small_field):
    return {
        b: integrate(small_field, b, 0.2, 5e-4, record_stride=400)
        for b in (2.0, 3.0)
    }


def test_01_closed_form_curvature(grid64):
    start = time.time()
    worst = 0.0
    for i in (1, 2):
        e = basis_field(grid64, i)
        for j1 in (1, 2, 3):
            for j2 in (1, 2, 3):
                k1, k2 = TWO_PI * j1, TWO_PI * j2
                rep = sectional_formula(e, mode_field(grid64, k1, k2))
                worst = max(worst, abs(rep.s_formula - closed_form_S(i, k1, k2)))
    elapsed = time.time() - start
    ok = worst <= 1e-7 and elapsed < 30.0
    announce(1, "closed-form curvature on basis planes",
             ok, f"max gap {worst:.2e} (tol 1e-7), {elapsed:.1f}s (limit 30s)")
    assert worst <= 1e-7
    assert elapsed < 30.0


def test_02_two_route_curvature_oracle(grid64):
    start = time.time()
    worst_rel = 0.0
    for seed in range(20):
        u = random_bandlimited(grid64, seed=seed, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid64, seed=seed + 1000, kmax=3, amplitude=0.5)
        rep = sectional_formula(u, v)
        worst_rel = max(worst_rel, rep.agreement / (1.0 + abs(rep.s_formula)))
    elapsed = time.time() - start
    ok = worst_rel <= 1e-8 and elapsed < 120.0
    announce(2, "two-route curvature agreement on 20 random planes",
             ok, f"max scaled gap {worst_rel:.2e} (tol 1e-8), {elapsed:.1f}s (limit 120s)")
    assert worst_rel <= 1e-8
    assert elapsed < 120.0


def test_03_basis_flatness(grid64):
    worst = 0.0
    for seed in range(10):
        w = random_bandlimited(grid64, seed=200 + seed, kmax=3, amplitude=0.5)
        for i in (1, 2):
            worst = max(worst, abs(r_term(basis_field(grid64, i), w)))
    ok = worst <= 1e-10
    announce(3, "residual curvature term vanishes against basis fields",
             ok, f"max |r| {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_04_commuting_identity(grid32):
    worst = 0.0
    for seed in range(20):
        u = random_bandlimited(grid32, seed=300 + 2 * seed, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid32, seed=301 + 2 * seed, kmax=3, amplitude=0.5)
        worst = max(worst, check_commuting_identity(u, v))
    ok = worst <= 1e-10
    announce(4, "derivative-transport commuting identity on 20 pairs",
             ok, f"max residual {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_05_metric_compatibility(grid32):
    worst = 0.0
    for seed in range(20):
        u = random_bandlimited(grid32, seed=400 + 3 * seed, kmax=3, amplitude=0.5)
        v = random_bandlimited(grid32, seed=401 + 3 * seed, kmax=3, amplitude=0.5)
        w = random_bandlimited(grid32, seed=402 + 3 * seed, kmax=3, amplitude=0.5)
        worst = max(worst, check_metric_compatibility(u, v, w, 2.0))
    control = check_metric_compatibility(
        random_bandlimited(grid32, seed=500, kmax=3, amplitude=0.5),
        random_bandlimited(grid32, seed=501, kmax=3, amplitude=0.5),
        random_bandlimited(grid32, seed=502, kmax=3, amplitude=0.5),
        3.0,
    )
    ok = worst <= 1e-10 and control > 1e-3
    announce(5, "metric compatibility at b=2 with b=3 negative control",
             ok, f"max b=2 residual {worst:.2e} (tol 1e-10), b=3 control {control:.2e} (> 1e-3)")
    assert worst <= 1e-10
    assert control > 1e-3


def test_06_energy_conservation(grid32, grid64):
    u0 = random_bandlimited(grid32, seed=42, kmax=3, amplitude=0.02)
    drift = conservation_report(
        integrate(u0, 2.0, 0.5, 1e-3, record_stride=10)
    ).hamiltonian_drift

    # The pinned step sits far below the spatial-truncation floor, so the
    # fourth-order signature is demonstrated where time error dominates:
    # finer grid, moderate amplitude, coarse halved steps.
    u_ladder = random_bandlimited(grid64, seed=42, kmax=2, amplitude=0.1)
    ladder = [
        conservation_report(
            integrate(u_ladder, 2.0, 0.25, dt, record_stride=1)
        ).hamiltonian_drift
        for dt in (0.01, 0.005, 0.0025)
    ]
    ratios = [ladder[i] / ladder[i + 1] for i in range(2)]
    ratios_ok = all(12.0 <= r <= 20.0 for r in ratios)

    control = conservation_report(
        integrate(u0, 3.0, 0.5, 1e-3, record_stride=10)
    ).hamiltonian_drift

    ok = drift <= 1e-6 and ratios_ok and control > 1e-3
    announce(6, "energy conservation at b=2 with fourth-order drift scaling",
             ok, f"drift {drift:.2e} (tol 1e-6), halving ratios "
                 f"{ratios[0]:.1f}/{ratios[1]:.1f} (range [12,20]), b=3 control {control:.2e}")
    assert drift <= 1e-6
    assert ratios_ok
    assert control > 1e-3


def test_07_euler_lagrange_equivalence(geodesic_runs, euler_runs):
    gaps = {}
    for b in (2.0, 3.0):
        u_geo = eulerian_velocity(geodesic_runs[b].final)
        gaps[b] = (u_geo - euler_runs[b].final.u).sup_norm()
    ok = all(g <= 1e-6 for g in gaps.values())
    announce(7, "deformation-map and velocity-form trajectories agree",
             ok, f"sup gaps at t=0.2: b=2 {gaps[2.0]:.2e}, b=3 {gaps[3.0]:.2e} (tol 1e-6)")
    for b, g in gaps.items():
        assert g <= 1e-6, f"b={b}"


def test_08_body_momentum_conservation(geodesic_runs):
    drifts = {}
    for b in (2.0, 3.0):
        traj = geodesic_runs[b]
        m_ref = body_momentum(traj.states[0])
        ref_sup = max(m_ref.sup_norm(), 1e-14)
        drifts[b] = max(
            (body_momentum(s) - m_ref).sup_norm() / ref_sup
            for s in traj.states
        )
    ok = drifts[2.0] <= 1e-6 and drifts[3.0] > 1e-3
    announce(8, "body momentum conserved at b=2, drifts at b=3",
             ok, f"b=2 drift {drifts[2.0]:.2e} (tol 1e-6), b=3 drift {drifts[3.0]:.2e} (> 1e-3)")
    assert drifts[2.0] <= 1e-6
    assert drifts[3.0] > 1e-3


def test_09_one_dimensional_reductions():
    grid = make_grid(64, 16)
    g0 = profile_1d(64, seed=11, kmax=3, amplitude=0.1)
    lifted = Field(grid, np.tile(g0[:, None], (1, grid.ny)))
    zero = Field(grid, np.zeros(grid.shape))
    worst = 0.0
    for b in (2.0, 3.0):
        traj = integrate(stack([lifted, zero]), b, 0.1, 1e-3, record_stride=100)
        final_1d = integrate_1d(g0, b, 0.1, 1e-3)
        worst = max(worst, float(np.max(np.abs(traj.final.u[0].values[:, 0] - final_1d))))

    w0 = profile_1d(64, seed=12, kmax=3, amplitude=0.1)
    embedded = stack([lifted, Field(grid, np.tile(w0[:, None], (1, grid.ny)))])
    traj = integrate(embedded, 2.0, 5e-3, 1e-3, record_stride=1)
    worst_mch2 = 0.0
    for state in traj.states:
        v = state.u[0].values[:, 0].copy()
        w = state.u[1].values[:, 0].copy()
        q_t, rho_t = mch2_rhs(v, helmholtz_1d(w))
        m_t = helmholtz(euler_rhs(state.u, 2.0))
        worst_mch2 = max(
            worst_mch2,
            float(np.max(np.abs(m_t[0].values[:, 0] - q_t))),
            float(np.max(np.abs(m_t[1].values[:, 0] - rho_t))),
        )
    ok = worst <= 1e-9 and worst_mch2 <= 1e-10
    announce(9, "y-independent trajectories match the 1D and two-component systems",
             ok, f"1D gap {worst:.2e} (tol 1e-9), coupled-system gap {worst_mch2:.2e} (tol 1e-10)")
    assert worst <= 1e-9
    assert worst_mch2 <= 1e-10


def test_10_uniqueness_algebra():
    report = verify_theorem([2.0, 3.0, 4.0], [(1, 0), (0, 1), (1, 1), (2, 1)], make_grid(16, 16))
    b2_worst = max(
        max(r.gl3_residual, r.gl1_residual) for r in report.rows if r.b == 2.0
    )
    controls = {}
    for b in (3.0, 4.0):
        controls[b] = max(
            max(r.gl3_residual, r.gl1_residual) for r in report.rows if r.b == b
        )
    ok = (
        b2_worst <= 1e-11
        and all(v > 1e-3 for v in controls.values())
        and report.consistent_b == (2.0,)
    )
    announce(10, "b=2 is the unique all-zero residual row",
             ok, f"b=2 worst {b2_worst:.2e} (tol 1e-11), "
                 f"controls b=3 {controls[3.0]:.2e}, b=4 {controls[4.0]:.2e} (> 1e-3)")
    assert b2_worst <= 1e-11
    assert all(v > 1e-3 for v in controls.values())
    assert report.consistent_b == (2.0,)


def test_11_robust_small_data_and_reproducibility(grid32, tmp_path):
    failures = []
    mismatch = []
    for seed in range(10):
        u0 = random_bandlimited(grid32, seed=600 + seed, kmax=2, amplitude=0.02)
        for b in (2.0, 2.5, 3.0):
            try:
                first = integrate(u0, b, 0.1, 1e-3, record_stride=100)
                second = integrate(u0, b, 0.1, 1e-3, record_stride=100)
            except BlowupError as err:
                failures.append((seed, b, str(err)))
                continue
            same = (
                np.array_equal(first.final.u[0].values, second.final.u[0].values)
                and np.array_equal(first.final.u[1].values, second.final.u[1].values)
            )
            if not same:
                mismatch.append((seed, b))

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": [16, 16], "t_end": 0.02, "dt": 1e-3,
        "initial_condition": {"type": "random", "seed": 3, "kmax": 2, "amplitude": 0.02},
    }))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "torusflow.cli", "simulate",
             "--config", str(config), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((out / "trajectory.csv").read_bytes())
    cli_identical = outputs[0] == outputs[1]

    ok = not failures and not mismatch and cli_identical
    announce(11, "small data integrate without blow-up, bit-exact reruns",
             ok, f"30/30 runs completed, library bit-exact {not mismatch}, "
                 f"batch interface bit-exact {cli_identical}")
    assert not failures, failures
    assert not mismatch, mismatch
    assert cli_identical
