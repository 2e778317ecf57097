import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torusflow import dynamics, flow
from torusflow.cli import entry
from torusflow.dynamics import BlowupError, EulerState, hamiltonian, integrate
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
    jacobian,
    metric_at,
    trajectory_velocity,
)
from torusflow.dynamics import christoffel
from torusflow.spectral import (
    VectorField,
    det,
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
        j = jacobian(DiffeoMap.identity(grid32))
        assert_allclose(j[0, 0].values, 1.0)
        assert_allclose(j[1, 1].values, 1.0)
        assert j[0, 1].sup_norm() == 0.0
        assert_allclose(det(j).values, 1.0)

    def test_shear_is_volume_preserving(self, grid32):
        d = sample_vector(grid32, lambda x, y: 0.1 * np.sin(TWO_PI * y), lambda x, y: 0.0 * x)
        jdet = det(jacobian(DiffeoMap(d)))
        assert_allclose(jdet.values, 1.0, atol=1e-14)

    def test_compressive_determinant(self, grid32):
        d = sample_vector(grid32, lambda x, y: 0.1 * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
        jdet = det(jacobian(DiffeoMap(d)))
        X, _ = grid32.mesh
        assert_allclose(jdet.values, 1.0 + 0.2 * np.pi * np.cos(TWO_PI * X), atol=1e-13)


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


def _integrate_blows_up(grid):
    u0 = random_bandlimited(grid, seed=84, kmax=2, amplitude=0.05)
    integrate(u0, 3.0, t_end=0.01, dt=1e-3, blowup_factor=1e-6)


def _geodesic_folds(grid):
    u0 = random_bandlimited(grid, seed=0, kmax=2, amplitude=0.02)
    geodesic_integrate(u0, 2.0, t_end=0.02, dt=5e-3, det_floor=0.9999)


def _label_flow_folds(grid):
    u = sample_vector(grid, lambda x, y: 0.05 * np.sin(TWO_PI * x), lambda x, y: 0.0 * x)
    flow_from_velocity(lambda t: u, t_end=0.02, dt=5e-3, det_floor=0.9999)


class TestMarchPartial:
    """Every caller of dynamics.march leaves the same Trajectory type behind on abort."""

    @pytest.mark.parametrize("run, dt, error, state_type", [
        (_integrate_blows_up, 1e-3, BlowupError, EulerState),
        (_geodesic_folds, 5e-3, OrientationError, GeodesicState),
        (_label_flow_folds, 5e-3, OrientationError, DiffeoMap),
    ], ids=["integrate", "geodesic_integrate", "flow_from_velocity"])
    def test_partial_is_a_trajectory(self, run, dt, error, state_type):
        with pytest.raises(error) as info:
            run(make_grid(16, 16))
        partial = info.value.partial
        rejected = float(re.search(r"at t=(\S+)", str(info.value)).group(1))
        assert isinstance(partial, dynamics.Trajectory)
        assert partial.dt == dt
        assert len(partial.times) == len(partial.states)
        assert all(isinstance(s, state_type) for s in partial.states)
        assert partial.times[-1] < rejected
        assert partial.times[-1] == pytest.approx(rejected - dt, abs=1e-12)


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
