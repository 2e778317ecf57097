import importlib.util
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torusflow import flow
from torusflow.cli import entry
from torusflow.dynamics import BlowupError, hamiltonian, integrate
from torusflow.flow import (
    DiffeoMap,
    GeodesicState,
    InversionError,
    OrientationError,
    adjoint,
    apply,
    body_momentum,
    body_velocity,
    christoffel_conjugated,
    coadjoint,
    compose,
    compose_field,
    eulerian_velocity,
    exp_map,
    flow_from_velocity,
    geodesic_integrate,
    invert,
    metric_at,
    trajectory_velocity,
)
from torusflow.dynamics import christoffel
from torusflow.spectral import (
    Field,
    VectorField,
    eval_spectra,
    gradient,
    h1_inner,
    helmholtz,
    l2_inner,
    make_grid,
    random_bandlimited,
)

from conftest import TWO_PI, sample_scalar, sample_vector


def load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def circular_distance(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def small_map(grid, seed, amplitude=0.02, kmax=2):
    return DiffeoMap(random_bandlimited(grid, seed=seed, kmax=kmax, amplitude=amplitude))


def trig_field(grid, seed, kmax, amplitude):
    """The same random trigonometric vector field on any grid that resolves kmax.

    Each component sums a_j cos(2 pi (j1 x + j2 y) + theta_j) over |j1|, j2 <= kmax,
    with sum |a_j| = amplitude in the larger component, so sup|u| <= amplitude.
    """
    rng = np.random.default_rng(seed)
    j1, j2 = np.meshgrid(np.arange(-kmax, kmax + 1), np.arange(kmax + 1), indexing="ij")
    a = rng.standard_normal((2,) + j1.shape)
    theta = rng.uniform(0.0, TWO_PI, (2,) + j1.shape)
    a *= amplitude / np.abs(a).sum(axis=(1, 2)).max()
    X, Y = grid.mesh
    waves = np.cos(TWO_PI * (np.multiply.outer(j1, X) + np.multiply.outer(j2, Y)) + theta[..., None, None])
    return VectorField.from_values(grid, *np.sum(a[..., None, None] * waves, axis=(1, 2)))


class TestDiffeoMap:
    def test_identity_and_translation(self, grid32):
        assert DiffeoMap.identity(grid32).displacement.sup_norm() == 0.0
        tau = DiffeoMap.translation(grid32, 0.3, -0.1)
        assert tau.displacement[0].values[3, 5] == pytest.approx(0.3)
        assert tau.displacement[1].values[0, 0] == pytest.approx(-0.1)

    def test_identity_jacobian(self, grid32):
        g, jdet = flow._checked_det(DiffeoMap.identity(grid32), 0.0)
        assert_allclose(1.0 + g[0, 0], 1.0)
        assert_allclose(1.0 + g[1, 1], 1.0)
        assert np.max(np.abs(g[0, 1])) == 0.0
        assert_allclose(jdet, 1.0)

    def test_shear_is_volume_preserving(self, grid32):
        d = sample_vector(grid32, lambda x, y: 0.1 * np.sin(TWO_PI * y), lambda x, y: 0.0 * x)
        _, jdet = flow._checked_det(DiffeoMap(d), 0.0)
        assert_allclose(jdet, 1.0, atol=1e-14)

    def test_compressive_determinant(self, grid32):
        d = sample_vector(grid32, lambda x, y: 0.1 * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        _, jdet = flow._checked_det(DiffeoMap(d), 0.0)
        X, _ = grid32.mesh
        assert_allclose(jdet, 1.0 + 0.2 * np.pi * np.cos(TWO_PI * X), atol=1e-13)


class TestComposition:
    def test_identity_element(self, grid32):
        phi = small_map(grid32, seed=1)
        ident = DiffeoMap.identity(grid32)
        for comp in (compose(phi, ident), compose(ident, phi)):
            assert (comp.displacement - phi.displacement).sup_norm() < 1e-13

    def test_translations_add(self, grid32):
        a, b = (0.4, 0.7), (0.85, 0.5)
        comp = compose(DiffeoMap.translation(grid32, *a), DiffeoMap.translation(grid32, *b))
        pts = np.array([[0.1, 0.2], [0.9, 0.95]])
        expected = np.mod(pts + np.array(a) + np.array(b), 1.0)
        assert np.max(circular_distance(apply(comp, pts), expected)) < 1e-12

    def test_associative(self, grid32):
        phi = small_map(grid32, seed=2, amplitude=0.01)
        psi = small_map(grid32, seed=3, amplitude=0.01)
        chi = small_map(grid32, seed=4, amplitude=0.01)
        left = compose(compose(phi, psi), chi)
        right = compose(phi, compose(psi, chi))
        assert (left.displacement - right.displacement).sup_norm() < 1e-8

    def test_grid_mismatch(self, grid32, grid64):
        with pytest.raises(ValueError):
            compose(DiffeoMap.identity(grid32), DiffeoMap.identity(grid64))


class TestApply:
    @pytest.mark.parametrize("points", [[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [0.1, 0.2, 0.3, 0.4], [0.1], 0.5,
                                        np.zeros((3, 2, 1))])
    def test_rejects_points_whose_last_axis_is_not_two(self, monkeypatch, grid16, points):
        def reached(*args, **kwargs):
            raise AssertionError("eval_spectra ran")

        monkeypatch.setattr(flow, "eval_spectra", reached)
        with pytest.raises(ValueError, match=re.escape(f"points need a last axis of 2, not shape {np.shape(points)}")):
            apply(DiffeoMap.translation(grid16, 0.25, 0.0), points)

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2)])
    def test_keeps_the_shape_of_points(self, grid16, shape):
        pts = np.random.default_rng(0).random(shape)
        got = apply(DiffeoMap.translation(grid16, 0.25, 0.0), pts)
        assert got.shape == shape
        assert np.max(circular_distance(got, np.mod(pts + [0.25, 0.0], 1.0))) < 1e-14


class TestInvert:
    def test_identity(self, grid32):
        assert invert(DiffeoMap.identity(grid32)).displacement.sup_norm() == 0.0

    def test_translation(self, grid32):
        inv = invert(DiffeoMap.translation(grid32, 0.3, -0.2))
        assert_allclose(inv.displacement[0].values, -0.3, atol=1e-14)
        assert_allclose(inv.displacement[1].values, 0.2, atol=1e-14)

    def test_pointwise_round_trip(self, grid32):
        phi = small_map(grid32, seed=5, amplitude=0.01)
        rng = np.random.default_rng(0)
        pts = rng.random((40, 2))
        back = apply(invert(phi), apply(phi, pts))
        assert np.max(circular_distance(back, pts)) < 1e-10

    def test_two_sided_inverse(self, grid32):
        phi = small_map(grid32, seed=6, amplitude=0.01)
        inv = invert(phi)
        assert compose(phi, inv).displacement.sup_norm() < 1e-11
        assert compose(inv, phi).displacement.sup_norm() < 1e-8

    def test_iteration_budget(self, grid32):
        phi = small_map(grid32, seed=8, amplitude=0.05)
        with pytest.raises(InversionError):
            invert(phi, max_iter=1)

    def test_newton_where_fixed_point_crawls(self, grid16):
        # sup |grad d| = 0.8 (pointwise operator norm): the contraction
        # e = -d(z + e) gains a factor of only about 0.8 per step, but Newton
        # converges quadratically once close.
        u = random_bandlimited(grid16, 0, kmax=2, amplitude=1.0)
        grad = np.moveaxis(gradient(u).values, (0, 1), (-2, -1))
        phi = DiffeoMap(u * (0.8 / np.max(np.linalg.norm(grad, ord=2, axis=(-2, -1)))))
        inv = invert(phi, max_iter=10)
        assert compose(phi, inv).displacement.sup_norm() <= 1e-12

    def test_no_stall_on_large_random_geodesic(self, tmp_path, capsys):
        # This run once aborted at t = 0.06 with the fixed-point update
        # flooring at 4e-12, with min det(grad phi) still 0.14.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "grid": [16, 16], "t_end": 0.5, "dt": 5e-3,
            "initial_condition": {"type": "random", "seed": 0, "kmax": 2, "amplitude": 1.5},
        }))
        out = tmp_path / "out"
        entry(["geodesic", "--config", str(cfg), "--out", str(out)])
        assert "inversion stalled" not in capsys.readouterr().err
        assert "inversion stalled" not in (out / "geodesic.json").read_text()

    def test_orientation_violation(self, grid32):
        d = sample_vector(grid32, lambda x, y: 0.5 * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        with pytest.raises(OrientationError):
            invert(DiffeoMap(d))

    def test_non_finite_map_rejected_before_any_evaluation(self, grid16, monkeypatch):
        # NaN compares false against the floor; it must not reach the Newton loop.
        d = np.zeros((2,) + grid16.shape)
        d[0, 3, 5] = np.nan
        calls = []
        monkeypatch.setattr(flow, "eval_spectra", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(OrientationError, match="not finite"):
            invert(DiffeoMap(Field(grid16, d)))
        assert calls == []


class TestCramerSolve:
    """flow._solve, the one pointwise 2x2 solve, against LAPACK's np.linalg.solve."""

    @staticmethod
    def lapack(g, r):
        """x with (I + g) x = r at every point, by np.linalg.solve."""
        mats = np.moveaxis(np.eye(2)[:, :, None, None] + g, (0, 1), (-2, -1))
        return np.moveaxis(np.linalg.solve(mats, np.moveaxis(r, 0, -1)[..., None])[..., 0], -1, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 0.5])
    def test_near_identity_jacobians(self, seed, scale):
        rng = np.random.default_rng(seed)
        g = scale * rng.standard_normal((2, 2, 16, 16))
        r = rng.standard_normal((2, 16, 16))
        ref = self.lapack(g, r)
        assert np.max(np.abs(flow._solve(g, r) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_newton_system_from_invert(self, grid32, monkeypatch):
        solve, systems = flow._solve, []

        def recorded(g, r):
            systems.append((g.copy(), r.copy()))
            return solve(g, r)

        monkeypatch.setattr(flow, "_solve", recorded)
        invert(small_map(grid32, seed=9, amplitude=0.05))
        assert len(systems) >= 2  # every Newton step solves through the helper
        g, r = systems[0]
        ref = self.lapack(g, r)
        assert np.max(np.abs(solve(g, r) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_body_velocity_and_metric_at_match_lapack(self, grid32):
        phi = small_map(grid32, seed=10, amplitude=0.05)
        U = random_bandlimited(grid32, seed=11, kmax=3, amplitude=0.5)
        V = random_bandlimited(grid32, seed=12, kmax=3, amplitude=0.5)
        g = gradient(phi.displacement).values
        got = body_velocity(GeodesicState(0.0, phi, U)).values
        ref = self.lapack(g, U.values)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        inv = np.moveaxis(np.linalg.inv(np.moveaxis(np.eye(2)[:, :, None, None] + g, (0, 1), (-2, -1))),
                          (-2, -1), (0, 1))
        pulled_u, pulled_v = (np.einsum("ik...,kl...->il...", gradient(f).values, inv) for f in (U, V))
        integrand = np.sum(U.values * V.values, axis=0) + np.sum(pulled_u * pulled_v, axis=(0, 1))
        jdet = np.linalg.det(np.moveaxis(np.eye(2)[:, :, None, None] + g, (0, 1), (-2, -1)))
        want = float(np.mean(integrand * jdet))
        assert metric_at(phi, U, V) == pytest.approx(want, rel=1e-13)

    def test_body_velocity_on_a_map_near_the_floor(self, grid32):
        # min det(grad phi) = 1 - 2 pi a = 5e-4: under the march floor DET_FLOOR,
        # still a diffeomorphism, so the body velocity is the plain solve.
        a = (1.0 - 5e-4) / TWO_PI
        d = sample_vector(grid32, lambda x, y: a * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        phi = DiffeoMap(d)
        g, jdet = flow._checked_det(phi, 0.0)
        assert 0.0 < np.min(jdet) <= flow.DET_FLOOR
        U = random_bandlimited(grid32, seed=13, kmax=3, amplitude=0.5)
        got = body_velocity(GeodesicState(0.0, phi, U)).values
        assert np.array_equal(got, flow._solve(g, U.values))


class TestThreadedEvaluation:
    def test_pool_matches_serial(self, grid16, grid32):
        # Each thread evaluates off-grid on its own scratch, as the curvature
        # pool does; the grids alternate so the buffers grow and shrink.
        def work(case):
            grid, seed = case
            phi = small_map(grid, seed, amplitude=0.03)
            u = random_bandlimited(grid, seed + 10, kmax=3, amplitude=0.5)
            return compose_field(u, phi).values, invert(phi).displacement.values

        cases = [(grid, seed) for seed in range(3) for grid in (grid16, grid32)]
        serial = [work(case) for case in cases]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(work, cases + cases[::-1]))
        for want, got in zip(serial + serial[::-1], threaded):
            assert all(np.array_equal(a, b) for a, b in zip(want, got))


class TestInvertBudget:
    """Inversion always starts cold, from e = -d.  On near-identity maps, at
    the amplitude of a band-limited geodesic initial velocity, Newton then
    converges in at most three off-grid evaluations, the last of which
    confirms the residual.
    """

    @staticmethod
    def count_evaluations(monkeypatch):
        """Record, per invert call, how many off-grid evaluations it made."""
        evaluations, per_call = [], []

        def counted(*args, **kwargs):
            evaluations.append(kwargs.get("gradient", False))
            return eval_spectra(*args, **kwargs)

        def counted_invert(phi, *args, **kwargs):
            start = len(evaluations)
            inv = invert(phi, *args, **kwargs)
            per_call.append(evaluations[start:])
            return inv

        monkeypatch.setattr(flow, "eval_spectra", counted)
        monkeypatch.setattr(flow, "invert", counted_invert)
        return per_call

    def test_cold_start_evaluations(self, grid32, monkeypatch):
        phi = DiffeoMap(random_bandlimited(grid32, 3, kmax=2, amplitude=0.015))
        per_call = self.count_evaluations(monkeypatch)
        inv = flow.invert(phi)
        assert len(per_call) == 1 and len(per_call[0]) <= 3 and all(per_call[0])
        assert compose(phi, inv).displacement.sup_norm() <= 1e-12

    def test_geodesic_run_evaluations(self, tmp_path, monkeypatch):
        # The benchmark's seed-2 geodesic-32 input: every inversion along
        # the run, in the stepper and in the body-momentum readback.  One
        # inversion per RK4 stage and one per recorded state: the final
        # state's inverse serves both its momentum and the velocity readback.
        case = load_bench_workloads().geodesic_case(2)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(case.config))
        per_call = self.count_evaluations(monkeypatch)
        assert entry(case.cli_args(cfg, tmp_path / "out")) == 0
        assert per_call and all(len(calls) <= 3 and all(calls) for calls in per_call)
        states = json.loads((tmp_path / "out" / "geodesic.json").read_text())["states_recorded"]
        assert len(per_call) == 4 * case.steps + states


class TestFlowFromVelocity:
    def test_zero_velocity(self, grid32):
        u = VectorField.zero(grid32)
        traj = flow_from_velocity(lambda t: u, t_end=0.01, dt=5e-3)
        assert traj.final.displacement.sup_norm() == 0.0

    def test_constant_velocity_translates(self, grid32):
        c = VectorField.constant(grid32, 0.3, -0.5)
        traj = flow_from_velocity(lambda t: c, t_end=0.1, dt=5e-3)
        assert_allclose(traj.final.displacement[0].values, 0.03, atol=1e-12)
        assert_allclose(traj.final.displacement[1].values, -0.05, atol=1e-12)

    def test_label_acceleration_matches_connection(self, grid32):
        u0 = random_bandlimited(grid32, seed=9, kmax=2, amplitude=0.02)
        dt = 1e-3
        euler = integrate(u0, 2.0, t_end=0.05, dt=dt / 2)
        traj = flow_from_velocity(trajectory_velocity(euler), t_end=0.05, dt=dt)
        i = len(traj.states) // 2
        d_prev, d_mid, d_next = (traj.states[j].displacement for j in (i - 1, i, i + 1))
        phi_t = (1.0 / (2.0 * dt)) * (d_next - d_prev)
        phi_tt = (1.0 / dt**2) * (d_next - 2.0 * d_mid + d_prev)
        gamma = christoffel_conjugated(traj.states[i], phi_t, phi_t, 2.0)
        assert (phi_tt - gamma).sup_norm() < 1e-6

    def test_orientation_guard(self, grid32):
        u = sample_vector(grid32, lambda x, y: 0.05 * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        with pytest.raises(OrientationError):
            flow_from_velocity(lambda t: u, t_end=0.01, dt=5e-3, det_floor=0.9999)

    def test_orientation_guard_rejects_non_finite_maps(self, grid16):
        values = np.zeros((2,) + grid16.shape)
        values[1, 7, 2] = np.nan
        u = Field(grid16, values)
        with pytest.raises(OrientationError, match="not finite at t=0.005"):
            flow_from_velocity(lambda t: u, t_end=0.01, dt=5e-3)


class TestChristoffelConjugated:
    def test_identity_configuration(self, grid64):
        U = random_bandlimited(grid64, seed=10, kmax=3, amplitude=0.3)
        V = random_bandlimited(grid64, seed=11, kmax=3, amplitude=0.3)
        ident = DiffeoMap.identity(grid64)
        got = christoffel_conjugated(ident, U, V, 2.0)
        assert (got - christoffel(U, V, 2.0)).sup_norm() < 1e-11

    def test_constants_conjugate_to_zero(self, grid32):
        phi = small_map(grid32, seed=12)
        c = VectorField.constant(grid32, 0.4, -0.3)
        assert christoffel_conjugated(phi, c, c, 2.0).sup_norm() < 1e-11

    def test_right_invariance_under_translation(self, grid64):
        phi = small_map(grid64, seed=13)
        tau = DiffeoMap.translation(grid64, 0.3, 0.15)
        U = random_bandlimited(grid64, seed=14, kmax=3, amplitude=0.3)
        V = random_bandlimited(grid64, seed=15, kmax=3, amplitude=0.3)
        left = christoffel_conjugated(compose(phi, tau), compose_field(U, tau), compose_field(V, tau), 2.0)
        right = compose_field(christoffel_conjugated(phi, U, V, 2.0), tau)
        assert (left - right).sup_norm() < 1e-9

    def test_equal_arguments_compose_once(self, grid32, monkeypatch):
        phi = small_map(grid32, seed=16, amplitude=0.03)
        U = random_bandlimited(grid32, seed=17, kmax=3, amplitude=0.3)
        copy = Field.from_spectrum(U.grid, U.spectrum)  # U is born from its spectrum
        shapes = []

        def recorded(grid, spectra, *args, **kwargs):
            shapes.append(np.shape(spectra))
            return eval_spectra(grid, spectra, *args, **kwargs)

        monkeypatch.setattr(flow, "eval_spectra", recorded)
        same = christoffel_conjugated(phi, U, U, 2.0)
        alone = shapes[-2]
        assert np.array_equal(same.values, christoffel_conjugated(phi, U, copy, 2.0).values)
        # U o phi^{-1} is composed alone; a distinct copy goes as a stack with U.
        assert (alone, shapes[-2]) == (U.spectrum.shape, (2,) + U.spectrum.shape)


class TestGeodesic:
    def test_constant_velocity_geodesic(self, grid32):
        c = VectorField.constant(grid32, 0.25, -0.4)
        traj = geodesic_integrate(c, 2.0, t_end=0.1, dt=5e-3, record_stride=20)
        assert (traj.final.phi_t - c).sup_norm() < 1e-11
        assert_allclose(traj.final.phi.displacement[0].values, 0.025, atol=1e-10)

    def test_matches_velocity_form(self, grid32):
        u0 = random_bandlimited(grid32, seed=17, kmax=2, amplitude=0.02)
        t_end, dt = 0.02, 1e-3
        euler_u = integrate(u0, 2.0, t_end, dt).final.u
        geo = geodesic_integrate(u0, 2.0, t_end, dt, record_stride=20)
        assert (eulerian_velocity(geo.final) - euler_u).sup_norm() < 1e-8

    def test_body_momentum_drift_small_b2(self, grid32):
        u0 = random_bandlimited(grid32, seed=18, kmax=2, amplitude=0.02)
        geo = geodesic_integrate(u0, 2.0, t_end=0.02, dt=1e-3, record_stride=5)
        m0_series = [body_momentum(s) for s in geo.states]
        ref = max(m0_series[0].sup_norm(), 1e-14)
        drift = max((m - m0_series[0]).sup_norm() for m in m0_series) / ref
        assert drift < 1e-7

    def test_orientation_guard(self, grid32):
        u0 = sample_vector(grid32, lambda x, y: 0.02 * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        with pytest.raises(OrientationError):
            geodesic_integrate(u0, 2.0, t_end=0.005, dt=1e-3, det_floor=0.99999)


def _integrate_blows_up(grid, state):
    u0 = random_bandlimited(grid, seed=84, kmax=2, amplitude=0.05)
    integrate(u0, 3.0, t_end=0.01, dt=1e-3, blowup_factor=1e-6, state=state)


def _geodesic_folds(grid, state):
    u0 = random_bandlimited(grid, seed=0, kmax=2, amplitude=0.02)
    geodesic_integrate(u0, 2.0, t_end=0.02, dt=5e-3, det_floor=0.9999, state=state)


class TestMarchPartial:
    """On abort, each integrator's state has been given every accepted record, the last one included."""

    @pytest.mark.parametrize("run, dt, error", [
        (_integrate_blows_up, 1e-3, BlowupError),
        (_geodesic_folds, 5e-3, OrientationError),
    ], ids=["integrate", "geodesic_integrate"])
    def test_records_end_one_step_before_the_rejected(self, run, dt, error):
        times = []
        with pytest.raises(error) as info:
            run(make_grid(16, 16), lambda t, *state: times.append(t))
        rejected = float(re.search(r"at t=(\S+)", str(info.value)).group(1))
        assert times == sorted(set(times))
        assert times[-1] < rejected
        assert times[-1] == pytest.approx(rejected - dt, abs=1e-12)


class TestExpMap:
    def test_zero_is_identity(self, grid16):
        phi = exp_map(VectorField.zero(grid16), dt=0.05)
        assert phi.displacement.sup_norm() < 1e-13

    def test_constant_is_translation(self, grid16):
        phi = exp_map(VectorField.constant(grid16, 0.2, -0.3), dt=0.05)
        assert_allclose(phi.displacement[0].values, 0.2, atol=1e-9)
        assert_allclose(phi.displacement[1].values, -0.3, atol=1e-9)

    def test_scaling_homogeneity(self, grid16):
        u0 = random_bandlimited(grid16, seed=19, kmax=1, amplitude=0.01)
        half_exp = exp_map(0.5 * u0, dt=0.02)
        half_time = geodesic_integrate(u0, 2.0, t_end=0.5, dt=0.01, record_stride=50).final.phi
        assert (half_exp.displacement - half_time.displacement).sup_norm() < 1e-7


class TestAdjointCoadjoint:
    def test_identity_map(self, grid32):
        v = random_bandlimited(grid32, seed=20, kmax=3, amplitude=0.5)
        ident = DiffeoMap.identity(grid32)
        assert (adjoint(ident, v) - v).sup_norm() < 1e-12
        assert (coadjoint(ident, v) - v).sup_norm() < 1e-12

    def test_l2_duality(self, grid64):
        phi = small_map(grid64, seed=21)
        v = random_bandlimited(grid64, seed=22, kmax=3, amplitude=0.5)
        w = random_bandlimited(grid64, seed=23, kmax=3, amplitude=0.5)
        lhs = l2_inner(coadjoint(phi, w), v)
        rhs = l2_inner(w, adjoint(phi, v))
        assert abs(lhs - rhs) < 1e-9

    def test_coadjoint_matches_lapack(self, grid32):
        phi = small_map(grid32, seed=14, amplitude=0.05)
        w = random_bandlimited(grid32, seed=15, kmax=3, amplitude=0.5)
        mats = np.moveaxis(np.eye(2)[:, :, None, None] + gradient(phi.displacement).values, (0, 1), (-2, -1))
        w_phi = np.moveaxis(compose_field(w, phi).values, 0, -1)[..., None]
        ref = np.moveaxis((np.swapaxes(mats, -2, -1) @ w_phi)[..., 0] * np.linalg.det(mats)[..., None], -1, 0)
        got = coadjoint(phi, w).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_composition_action(self, grid64):
        phi = small_map(grid64, seed=24, amplitude=0.01)
        psi = small_map(grid64, seed=25, amplitude=0.01)
        v = random_bandlimited(grid64, seed=26, kmax=3, amplitude=0.3)
        lhs = adjoint(phi, adjoint(psi, v))
        rhs = adjoint(compose(phi, psi), v)
        assert (lhs - rhs).sup_norm() < 1e-8


class TestBodyFrame:
    def test_identity_configuration(self, grid32):
        u0 = random_bandlimited(grid32, seed=27, kmax=3, amplitude=0.3)
        state = GeodesicState(0.0, DiffeoMap.identity(grid32), u0)
        assert (body_velocity(state) - u0).sup_norm() < 1e-12
        m0 = body_momentum(state)
        assert (m0 - helmholtz(u0)).sup_norm() < 1e-9

    def test_constant_geodesic_frame(self, grid32):
        c = VectorField.constant(grid32, 0.3, 0.1)
        state = geodesic_integrate(c, 2.0, t_end=0.05, dt=5e-3, record_stride=10).final
        assert (body_velocity(state) - c).sup_norm() < 1e-10
        assert (body_momentum(state) - c).sup_norm() < 1e-9

    def test_velocity_is_adjoint_of_body_velocity(self, grid32):
        u0 = random_bandlimited(grid32, seed=28, kmax=2, amplitude=0.02)
        state = geodesic_integrate(u0, 2.0, t_end=0.01, dt=1e-3, record_stride=10).final
        u = eulerian_velocity(state)
        U = body_velocity(state)
        assert (adjoint(state.phi, U) - u).sup_norm() < 1e-9

    def test_singular_jacobian_rejected(self, grid32):
        d = sample_vector(grid32, lambda x, y: 0.5 * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        state = GeodesicState(0.0, DiffeoMap(d), VectorField.zero(grid32))
        with pytest.raises(OrientationError):
            body_velocity(state)

    @pytest.mark.parametrize("quantity", [
        lambda phi, v: coadjoint(phi, v),
        lambda phi, v: body_velocity(GeodesicState(0.0, phi, v)),
        lambda phi, v: metric_at(phi, v, v),
        lambda phi, v: invert(phi),
    ], ids=["coadjoint", "body_velocity", "metric_at", "invert"])
    def test_every_map_quantity_rejects_a_folded_map(self, grid32, quantity):
        # min det(grad phi) = 1 - pi < 0: phi folds, so no map quantity is defined.
        d = sample_vector(grid32, lambda x, y: 0.5 * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        v = random_bandlimited(grid32, seed=16, kmax=3, amplitude=0.5)
        with pytest.raises(OrientationError, match="<= 0 on the grid"):
            quantity(DiffeoMap(d), v)


class TestMetricAt:
    def test_identity_reduces_to_h1(self, grid32):
        U = random_bandlimited(grid32, seed=29, kmax=3, amplitude=0.5)
        V = random_bandlimited(grid32, seed=30, kmax=3, amplitude=0.5)
        got = metric_at(DiffeoMap.identity(grid32), U, V)
        assert abs(got - h1_inner(U, V)) < 1e-10

    def test_translation_invariance(self, grid32):
        U = random_bandlimited(grid32, seed=31, kmax=3, amplitude=0.5)
        V = random_bandlimited(grid32, seed=32, kmax=3, amplitude=0.5)
        tau = DiffeoMap.translation(grid32, 0.6, 0.25)
        assert abs(metric_at(tau, U, V) - h1_inner(U, V)) < 1e-10

    def test_right_invariance(self, grid64):
        phi = small_map(grid64, seed=33)
        U = random_bandlimited(grid64, seed=34, kmax=3, amplitude=0.3)
        V = random_bandlimited(grid64, seed=35, kmax=3, amplitude=0.3)
        inv = invert(phi)
        direct = h1_inner(compose_field(U, inv), compose_field(V, inv))
        assert abs(metric_at(phi, U, V) - direct) < 1e-8

    def test_right_invariance_under_maps_converges(self):
        # metric_at(phi o psi, U o psi, V o psi) = metric_at(phi, U, V): both
        # are h1_inner(U o phi^-1, V o phi^-1).  U o psi is not band-limited,
        # so on a grid the two sides differ by a discretisation defect that
        # must fall as the same maps and fields are sampled more finely.  The
        # wrong order, phi before psi, is a different configuration: its
        # defect stays at the size of the maps on every grid.
        defects, wrong_order = [], []
        for n in (16, 32, 64):
            grid = make_grid(n, n)
            phi = DiffeoMap(trig_field(grid, seed=37, kmax=3, amplitude=0.03))
            psi = DiffeoMap(trig_field(grid, seed=38, kmax=3, amplitude=0.03))
            U = trig_field(grid, seed=39, kmax=3, amplitude=0.5)
            V = trig_field(grid, seed=40, kmax=3, amplitude=0.5)
            U_psi, V_psi = compose_field(U, psi), compose_field(V, psi)
            ref = metric_at(phi, U, V)
            defects.append(abs(metric_at(compose(phi, psi), U_psi, V_psi) - ref) / abs(ref))
            wrong_order.append(abs(metric_at(compose(psi, phi), U_psi, V_psi) - ref) / abs(ref))
        assert defects[0] > defects[1] > defects[2], defects
        assert min(wrong_order) > defects[0], (wrong_order, defects)

    def test_geodesic_energy_matches_hamiltonian(self, grid32):
        u0 = random_bandlimited(grid32, seed=36, kmax=2, amplitude=0.02)
        state = geodesic_integrate(u0, 2.0, t_end=0.01, dt=1e-3, record_stride=10).final
        energy = 0.5 * metric_at(state.phi, state.phi_t, state.phi_t)
        assert abs(energy - hamiltonian(u0)) < 1e-9
