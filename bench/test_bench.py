"""Self-tests of the benchmark at tiny sizes: python3 -m pytest bench -q

Each workload runs end to end through the CLI, and each checker is shown to
reject a corrupted output file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

TINY = {
    "simulate": lambda: workloads.simulate_case(7, n=32, steps=2),
    "geodesic": lambda: workloads.geodesic_case(7, n=16, steps=2),
    "curvature": lambda: workloads.curvature_case(7, threads=2, n=16, jmax=3),
}


def run_program(case: workloads.Case, tmp_path: Path) -> Path:
    from torusflow.cli import entry

    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(case.config))
    assert entry(case.cli_args(config, out)) == 0
    return out


def edit_csv(path: Path, column: str, row: int, change) -> None:
    lines = path.read_text().splitlines()
    body = [k for k, ln in enumerate(lines) if not ln.startswith("#")]
    col = lines[body[0]].split(",").index(column)
    cells = lines[body[1 + row]].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[body[1 + row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_end_to_end(command, trace, tmp_path):
    case = TINY[command]()
    result = run.measure(case, 0.0, trace, tmp_path / "work", SRC)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 + 2 * 2 if trace else 1 + 2 * (run.SETUP_PROBES + 1))
    metrics = result["metrics"]
    if trace:
        assert set(metrics) == set(layers.UNITS)
        assert metrics["fft.calls"]["value"] > 0
    else:
        assert set(metrics) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mib"}
        assert all(m["value"] > 0 for m in metrics.values())
        assert metrics["setup_s"]["value"] < metrics["wall_s"]["value"]


def test_generated_inputs_depend_only_on_seed():
    assert workloads.simulate_case(3) == workloads.simulate_case(3)
    assert workloads.simulate_case(3).config != workloads.simulate_case(4).config
    assert workloads.geodesic_case(3) == workloads.geodesic_case(3)
    assert workloads.curvature_case(3, 2) == workloads.curvature_case(3, 2)


def test_energy_check_rejects_drift(tmp_path):
    case = TINY["simulate"]()
    out = run_program(case, tmp_path)
    assert workloads.check(case, out) == []
    edit_csv(out / "trajectory.csv", "hamiltonian", case.steps, lambda h: h * (1 + 1e-9))
    assert any("drift" in e for e in workloads.check(case, out))


def test_energy_check_rejects_wrong_initial_energy(tmp_path):
    case = TINY["simulate"]()
    out = run_program(case, tmp_path)
    for row in range(case.steps + 1):
        edit_csv(out / "trajectory.csv", "hamiltonian", row, lambda h: h * 1.01)
    errors = workloads.check(case, out)
    assert len(errors) == 1 and "closed form" in errors[0]


def test_geodesic_check_rejects_perturbed_velocity(tmp_path):
    case = TINY["geodesic"]()
    out = run_program(case, tmp_path)
    assert workloads.check(case, out) == []
    edit_csv(out / "velocity_final.csv", "u2", 37, lambda u: u + 1e-5)
    errors = workloads.check(case, out)
    assert any("velocity form" in e for e in errors)


def test_geodesic_check_rejects_perturbed_map(tmp_path):
    case = TINY["geodesic"]()
    out = run_program(case, tmp_path)
    edit_csv(out / "diffeo_final.csv", "d1", 5, lambda d: d + 1e-4)
    assert any("body-momentum" in e for e in workloads.check(case, out))


def test_curvature_check_rejects_perturbed_value(tmp_path):
    case = TINY["curvature"]()
    out = run_program(case, tmp_path)
    assert workloads.check(case, out) == []
    edit_csv(out / "curvature.csv", "S_direct", 2, lambda s: s + 1e-6)
    errors = workloads.check(case, out)
    assert len(errors) == 1 and "S_direct" in errors[0]


def test_curvature_check_rejects_missing_plane(tmp_path):
    case = TINY["curvature"]()
    out = run_program(case, tmp_path)
    path = out / "curvature.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert any("planes" in e for e in workloads.check(case, out))


def test_closed_forms():
    # Single mode a cos(2 pi x) in u1: H = (1/2)(a^2 / 2)(1 + 4 pi^2).
    mode = {"j1": 1, "j2": 0, "amplitude": 0.5, "component": "u1"}
    assert workloads.closed_form_energy([mode]) == pytest.approx(0.0625 * (1 + 4 * workloads.math.pi**2))
    assert workloads.closed_form_curvature(1, 1, 1) == pytest.approx(0.18515498472381303)
    assert workloads.closed_form_curvature(2, 1, 2) == workloads.closed_form_curvature(1, 2, 1)


def test_layer_metrics_self_time_and_nesting():
    # (id, parent, name, thread, t0, t1, cpu, amount)
    spans = [
        (0, -1, "flow.invert", 1, 0.0, 10.0, 10.0, 0),
        (1, 0, "spectral.eval_spectra", 1, 1.0, 3.0, 2.0, 64),
        (2, 0, "spectral.eval_spectra", 1, 4.0, 6.0, 2.0, 64),
        (3, -1, "spectral.pointwise_product", 1, 11.0, 15.0, 4.0, 0),
        (4, 3, "fft", 1, 11.0, 12.0, 1.0, 256),
        (5, 3, "fft", 1, 13.0, 14.0, 1.0, 256),
        (6, -1, "dynamics.christoffel", 1, 20.0, 30.0, 10.0, 0),
        (7, 6, "dynamics.christoffel", 1, 21.0, 22.0, 1.0, 0),
        (8, -1, "curvature.sectional_formula", 1, 40.0, 50.0, 6.0, 0),
        (9, -1, "curvature.sectional_formula", 2, 40.0, 50.0, 4.0, 0),
    ]
    m = layers.layer_metrics(spans, steps=0, threads=2)
    assert m["flow.invert.calls"] == 1 and m["flow.invert.iterations"] == 2
    assert m["spectral.eval_spectra.points"] == 128
    assert m["fft.calls"] == 2 and m["fft.elements"] == 512 and m["fft.self_s"] == 2.0
    assert m["spectral.pointwise_product.self_s"] == 2.0
    assert m["dynamics.christoffel.calls"] == 2 and m["dynamics.christoffel.total_s"] == 10.0
    assert m["curvature.sectional_formula.busy_s"] == 10.0
    assert m["cli.threads.efficiency"] == 0.5
    assert set(m) | {"trace.overhead_s"} == set(layers.UNITS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
