"""End-to-end checks of the batch interface: configs, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusflow import cli
from torusflow.cli import entry
from torusflow.spectral import cosine_mode, make_grid
from torusflow.uniqueness import gl1_residual

FAST_SIM = {
    "grid": [16, 16],
    "t_end": 0.01,
    "dt": 1e-3,
    "initial_condition": {"type": "random", "seed": 0, "kmax": 2, "amplitude": 0.02},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(*args):
    return entry(list(args))


FAST_GEO = {
    "grid": [16, 16],
    "t_end": 0.02,
    "dt": 2e-3,
    "initial_condition": {"type": "random", "seed": 0, "kmax": 2, "amplitude": 0.02},
}


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bogus": 1})
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"tolerances": {"no_such_gate": 1.0}})
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "out")) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "out")) == 1

    def test_missing_config_file_rejected(self, tmp_path):
        assert run("simulate", "--config", str(tmp_path / "absent.json")) == 1

    def test_unknown_subcommand_rejected(self, capsys):
        assert run("explode") == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_initial_condition_type(self, tmp_path):
        cfg = write_config(tmp_path, {"initial_condition": {"type": "vortex"}})
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("command, config, extra", [
        ("simulate", dict(FAST_SIM, pad_factor=1.7), []),
        ("simulate", dict(FAST_SIM, grid=[16.5, 16]), []),
        ("simulate", dict(FAST_SIM, b=True), []),
        ("simulate", dict(FAST_SIM, dt="0.001"), []),
        ("simulate", dict(FAST_SIM, initial_condition={
            "type": "random", "seed": 0, "kmax": -1, "amplitude": 0.02}), []),
        ("simulate", dict(FAST_SIM, initial_condition={
            "type": "random", "seed": 0, "kmax": 2, "amplitude": float("nan")}), []),
        ("simulate", dict(FAST_SIM, snapshots=True, t_end=0.0105), []),
        ("simulate", dict(FAST_SIM, snapshots="false"), []),
        ("simulate", dict(FAST_SIM, blowup_factor=-1), []),
        ("simulate", dict(FAST_SIM, tolerances={"hamiltonian_drift": -1}), []),
        ("simulate", dict(FAST_SIM, b=10**400), []),
        ("verify", {"grid": [16, 16], "mode_list": [[1, 2, 3]]}, []),
        ("verify", {"grid": [16, 16], "mode_list": [[0, 0]]}, []),
        ("verify", {"grid": [16, 16], "mode_list": [[1, 0], [8, 1]]}, []),
        ("curvature", {"grid": [16, 16], "pairing": "bogus"}, []),
        ("curvature", {"grid": [16, 16], "pairing": "plain"}, []),
        ("simulate", FAST_SIM, ["--threads", "0"]),
        ("simulate", FAST_SIM, ["--threads", "-3"]),
        ("curvature", {"grid": [16, 16], "k_range": [1]}, ["--threads", "0"]),
        ("curvature", {"grid": [16, 16], "k_range": [1]}, ["--threads", "-3"]),
        ("reduce1d", {"n": 16, "kmax": 12}, []),
    ], ids=["fractional-pad", "fractional-grid", "bool-b", "string-dt", "negative-kmax",
            "nan-amplitude", "partial-step-with-snapshots", "string-snapshots",
            "negative-blowup-factor", "negative-tolerance", "int-past-float-range", "mode-triple",
            "zero-mode", "unresolvable-verify-mode", "unknown-pairing", "plain-pairing", "zero-threads-simulate", "negative-threads-simulate",
            "zero-threads-curvature", "negative-threads-curvature", "reduce1d-unresolvable-kmax"])
    def test_bad_values_rejected_before_compute(self, tmp_path, capsys, command, config, extra):
        cfg = write_config(tmp_path, config)
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out"), *extra) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["existing-file", "path-under-a-file"])
    def test_unusable_out_rejected_before_compute(self, tmp_path, capsys, monkeypatch, under):
        def forbidden(*args, **kwargs):
            raise AssertionError("compute ran")

        monkeypatch.setattr("torusflow.cli.integrate", forbidden)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        cfg = write_config(tmp_path, FAST_SIM)
        out = blocker / "out" if under else blocker
        assert run("simulate", "--config", cfg, "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert blocker.read_text() == "kept"

    def test_unresolvable_mode_rejected(self, tmp_path):
        cfg = write_config(tmp_path, dict(FAST_SIM, initial_condition={
            "type": "modes", "modes": [{"j1": 12, "j2": 0, "amplitude": 0.1}],
        }))
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1

    def test_compute_errors_are_not_config_errors(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr("torusflow.cli.integrate", broken)
        cfg = write_config(tmp_path, FAST_SIM)
        with pytest.raises(ValueError, match="boom"):
            run("simulate", "--config", cfg, "--out", str(tmp_path / "out"))

    # Pinned config_sha256 values: integral floats, filled-in initial-condition
    # defaults and the --seed override must keep digesting to these.
    @pytest.mark.parametrize("command, config, extra, report, digest", [
        ("simulate", {"grid": [16, 16], "t_end": 0, "initial_condition": {
            "type": "modes", "modes": [{"j1": 1, "j2": 0, "amplitude": 0.1}]}}, [],
         "conservation.json", "e1ad91f29fe8622b208c644d438b582992457318cafeb1ba2a1b53248139a8a8"),
        ("simulate", FAST_SIM, ["--seed", "5"],
         "conservation.json", "66b3f8f630fdfe691370303da229a63aa0363be25cc69aeed700dd8e8de3b589"),
        ("simulate", dict(FAST_SIM, grid=[16.0, 16]), [],
         "conservation.json", "7207dd79403ee168535d13d0e94cf9a75104192f1b6d18609fa1e7eafec43e43"),
        ("geodesic", {"grid": [16, 16], "t_end": 0}, [],
         "geodesic.json", "2b01b016ac285fd8da271a861bc40d40b9947175e653ac8d02bfd38cb0b348ec"),
        ("curvature", {"grid": [16, 16], "k_range": []}, [],
         "curvature_summary.json", "d52cf60862552f82dc9ca5a0eb5b1511956fef3ec7340089ea27a4fd2f23e8da"),
        ("verify", {"grid": [16, 16], "identity_samples": 0, "mode_list": [[1, 0]]}, [],
         "verification.json", "7e6c29beafe33486b57934dea6267b8755a91ff35887973c26b768ad7f1e39ad"),
        ("reduce1d", {"n": 16, "t_end": 0.002, "mch2_steps": 1}, [],
         "reduction.json", "52e503e67925e67517d660d64a031e663d76e100b2dbcfb7641dd7cfcdf6953b"),
        ("reduce1d", {"n": 16, "t_end": 0.002, "mch2_steps": 1}, ["--seed", "2"],
         "reduction.json", "b508e6e0929fbf5993cfcb293025efacbb32e69b77e3ac0e6f74a9051b6d3c11"),
    ], ids=["simulate-modes", "simulate-seed", "simulate-float-grid", "geodesic", "curvature",
            "verify", "reduce1d", "reduce1d-seed"])
    def test_config_digest_pinned(self, tmp_path, command, config, extra, report, digest):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", str(out), *extra) == 0
        assert json.loads((out / report).read_text())["meta"]["config_sha256"] == digest


class TestSimulate:
    def test_smoke_run_writes_reports(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SIM)
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out)) == 0
        body = json.loads((out / "conservation.json").read_text())
        assert body["aborted"] is False
        assert body["hamiltonian_drift"] <= 1e-6
        assert "config_sha256" in body["meta"]
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# tool: torusflow")
        assert lines[2] == "t,hamiltonian,h1_energy,sup_u"
        assert len(lines) == 3 + 11  # initial state plus ten recorded steps

    def test_constant_initial_condition_snapshots_identical(self, tmp_path):
        cfg = write_config(tmp_path, dict(FAST_SIM, snapshots=True, initial_condition={
            "type": "modes", "modes": [{"j1": 0, "j2": 0, "amplitude": 0.3}],
        }))
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out)) == 0
        first = (out / "field_initial.csv").read_bytes()
        last = (out / "field_final.csv").read_bytes()
        assert first == last

    def test_blowup_aborts_with_partial_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(FAST_SIM, t_end=0.05, initial_condition={
            "type": "random", "seed": 1, "kmax": 2, "amplitude": 50.0,
        }))
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out)) == 2
        assert "runtime abort" in capsys.readouterr().err
        body = json.loads((out / "conservation.json").read_text())
        assert body["aborted"] is True
        assert (out / "trajectory.csv").exists()

    def test_drift_gate_failure_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, dict(
            FAST_SIM,
            b=3.0,
            t_end=0.2,
            initial_condition={"type": "random", "seed": 0, "kmax": 2, "amplitude": 0.05},
            tolerances={"hamiltonian_drift": 1e-6},
        ))
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SIM)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", str(out1), "--seed", "5") == 0
        assert run("simulate", "--config", cfg, "--out", str(out2), "--seed", "5") == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "conservation.json").read_bytes() == (out2 / "conservation.json").read_bytes()

    def test_seed_override_changes_the_run(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SIM)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", str(out1), "--seed", "5") == 0
        assert run("simulate", "--config", cfg, "--out", str(out2), "--seed", "6") == 0
        assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


ORIENTATION_ABORT = dict(FAST_GEO, dt=5e-3, det_floor=0.9999)


class TestGeodesic:
    def test_smoke_run(self, tmp_path):
        cfg = write_config(tmp_path, dict(FAST_GEO, tolerances={"body_momentum_drift": 1e-6}))
        out = tmp_path / "out"
        assert run("geodesic", "--config", cfg, "--out", str(out)) == 0
        body = json.loads((out / "geodesic.json").read_text())
        assert body["aborted"] is False
        assert body["body_momentum_drift"] <= 1e-6
        header = (out / "diffeo_final.csv").read_text().splitlines()[2]
        assert header == "x,y,d1,d2"

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, dict(FAST_GEO, snapshots=True))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("geodesic", "--config", cfg, "--out", str(out1)) == 0
        assert run("geodesic", "--config", cfg, "--out", str(out2)) == 0
        names = ["diffeo_final.csv", "geodesic.json", "velocity_final.csv"]
        assert sorted(p.name for p in out1.iterdir()) == names
        assert all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)

    def test_orientation_abort_keeps_partial_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ORIENTATION_ABORT)
        out = tmp_path / "out"
        assert run("geodesic", "--config", cfg, "--out", str(out)) == 2
        assert "runtime abort" in capsys.readouterr().err
        body = json.loads((out / "geodesic.json").read_text())
        assert body["aborted"] is True
        assert 0.0 <= body["recorded_until"] < 0.02
        lines = (out / "diffeo_final.csv").read_text().splitlines()
        assert lines[2] == "x,y,d1,d2"
        assert len(lines) == 3 + 16 * 16


class TestCurvature:
    def test_sweep_positive_and_consistent(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": [32, 32], "k_range": [1, 2]})
        out = tmp_path / "out"
        assert run("curvature", "--config", cfg, "--out", str(out)) == 0
        summary = json.loads((out / "curvature_summary.json").read_text())
        assert summary["rows"] == 4
        assert summary["max_disagreement"] <= 1e-7
        assert summary["min_S"] > 0.0
        lines = (out / "curvature.csv").read_text().splitlines()
        assert lines[2] == "k1,k2,i,S_formula,S_direct,S_closed_form,gamma_terms,r_term"
        assert len(lines) == 3 + 4

    def test_empty_range_gives_header_only(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": [16, 16], "k_range": []})
        out = tmp_path / "out"
        assert run("curvature", "--config", cfg, "--out", str(out)) == 0
        lines = (out / "curvature.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": [32, 32], "k_range": [1, 2], "basis": [1, 2]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("curvature", "--config", cfg, "--out", str(out1), "--threads", "1") == 0
        assert run("curvature", "--config", cfg, "--out", str(out2), "--threads", "4") == 0
        assert (out1 / "curvature.csv").read_bytes() == (out2 / "curvature.csv").read_bytes()

    def test_unattainable_gate_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": [16, 16], "k_range": [1], "tolerances": {"two_route": 1e-30},
        })
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "out")) == 3

    def test_nyquist_guard(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": [16, 16], "k_range": [1, 9]})
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "out")) == 1


class TestVerify:
    def test_default_gates_pass(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": [16, 16], "identity_samples": 3})
        out = tmp_path / "out"
        assert run("verify", "--config", cfg, "--out", str(out)) == 0
        body = json.loads((out / "verification.json").read_text())
        assert body["pass"] is True
        assert body["consistent_b"] == [2.0]
        assert all(g for g in body["gates"].values())

    def test_off_metric_rows_marked_expected_fail(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": [16, 16],
            "b_list": [3.0],
            "mode_list": [[1, 1]],
            "identity_samples": 2,
        })
        out = tmp_path / "out"
        assert run("verify", "--config", cfg, "--out", str(out)) == 0
        body = json.loads((out / "verification.json").read_text())
        (row,) = body["rows"]
        assert row["pass"] is False
        assert row["expected_fail"] is True
        assert body["pass"] is True

    @pytest.mark.parametrize("pad", [1, 3])
    def test_rows_use_configured_grid_and_pad(self, tmp_path, pad):
        # Mode (5, 0) on 16^2: the products alias unless padded, and the
        # grid the rows would pick by themselves is 20^2.
        cfg = write_config(tmp_path, {
            "grid": [16, 16], "b_list": [3.0], "mode_list": [[5, 0]],
            "identity_samples": 0, "pad_factor": pad,
        })
        out = tmp_path / "out"
        run("verify", "--config", cfg, "--out", str(out))
        (row,) = json.loads((out / "verification.json").read_text())["rows"]
        u = cosine_mode(make_grid(16, 16), 5, 0)
        assert row["gl1_residual"] == gl1_residual(u, 3.0, pad_factor=pad)


class TestReduce1d:
    def test_reductions_hold(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 32, "ny": 8, "t_end": 0.02, "mch2_steps": 3})
        out = tmp_path / "out"
        assert run("reduce1d", "--config", cfg, "--out", str(out)) == 0
        body = json.loads((out / "reduction.json").read_text())
        assert body["pass"] is True
        assert body["mch2_residual"] <= 1e-10
        assert all(row["reduction_residual"] <= 1e-9 for row in body["rows"])

    def test_blowup_aborts_with_partial_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 32, "ny": 8, "amplitude": 20, "t_end": 0.05})
        out = tmp_path / "out"
        assert run("reduce1d", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime abort: ")
        body = json.loads((out / "reduction.json").read_text())
        assert body["aborted"] is True
        assert body["diagnostic"] == err.removeprefix("runtime abort: ").strip()
        assert body["rows"] == []  # the first planar run, b = 2, blows up


def bundled_openblas() -> list:
    root = Path(np.__file__).parent
    return [*root.parent.glob("numpy.libs/lib*openblas*"), *root.glob(".dylibs/lib*openblas*")]


class TestBlasCap:
    """A subcommand runs with numpy's bundled OpenBLAS on one thread and puts
    the caller's thread count back when entry() returns."""

    @pytest.fixture
    def blas_threads(self):
        if not hasattr(os, "RTLD_NOLOAD") or not bundled_openblas():
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
        blas = cli._openblas_threads()
        assert blas is not None, "bundled OpenBLAS present but its thread count not reached"
        get, set_ = blas
        before = get()
        set_(2)  # a known count the cap must change and then restore
        assert get() == 2
        yield get
        set_(before)

    @pytest.mark.parametrize("config, extra, code", [
        (FAST_GEO, [], 0),
        (ORIENTATION_ABORT, [], 2),
        (FAST_GEO, ["--threads", "0"], 1),
    ], ids=["exit-0", "exit-2", "exit-1"])
    def test_one_thread_while_running_then_restored(self, tmp_path, monkeypatch, blas_threads,
                                                     config, extra, code):
        seen = []
        solve = cli.geodesic_integrate

        def watched(*args, **kwargs):
            seen.append(blas_threads())
            return solve(*args, **kwargs)

        monkeypatch.setattr("torusflow.cli.geodesic_integrate", watched)
        cfg = write_config(tmp_path, config)
        assert run("geodesic", "--config", cfg, "--out", str(tmp_path / "out"), *extra) == code
        assert seen == ([] if code == 1 else [1])
        assert blas_threads() == 2


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": [16, 16], "k_range": []}))
        proc = subprocess.run(
            [sys.executable, "-m", "torusflow.cli", "curvature",
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            entry(["--help"])
        assert exc.value.code == 0
