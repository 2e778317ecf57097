"""End-to-end checks of the batch interface: configs, exit codes, file outputs."""

import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from torusflow import cli, dynamics
from torusflow.cli import entry
from torusflow.dynamics import BlowupError, RunAbort
from torusflow.flow import (
    InversionError,
    OrientationError,
    body_momentum,
    coadjoint,
    eulerian_velocity,
    geodesic_integrate,
)
from torusflow.spectral import cosine_mode, helmholtz, make_grid, random_bandlimited
from torusflow.uniqueness import gl1_residual, verify_theorem

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

MODES_IC = {"type": "modes", "modes": [{"j1": 1, "j2": 0, "amplitude": 0.01}]}


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

    def test_integer_past_the_digit_limit_rejected(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text('{"n": ' + "9" * 5000 + "}")
        assert run("reduce1d", "--config", str(path), "--out", str(tmp_path / "out")) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: malformed JSON")

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

    @pytest.mark.parametrize("command, config, extra, message", [
        ("simulate", dict(FAST_SIM, pad_factor=1.7), [], "unknown config key(s): pad_factor"),
        ("simulate", dict(FAST_SIM, pad_factor=1), [], "unknown config key(s): pad_factor"),
        ("simulate", dict(FAST_SIM, grid=[16.5, 16]), [], "grid[0] must be an integer"),
        ("simulate", dict(FAST_SIM, b=True), [], "b must be a finite number"),
        ("simulate", dict(FAST_SIM, dt="0.001"), [], "dt must be a finite number"),
        ("simulate", dict(FAST_SIM, initial_condition={
            "type": "random", "seed": 0, "kmax": -1, "amplitude": 0.02}), [], "initial_condition.kmax must be >= 0"),
        ("simulate", dict(FAST_SIM, initial_condition={
            "type": "random", "seed": 0, "kmax": 2, "amplitude": float("nan")}), [],
         "initial_condition.amplitude must be a finite number"),
        ("simulate", dict(FAST_SIM, snapshots=True, t_end=0.0105), [], "t_end=0.0105 is not a whole number of steps"),
        ("simulate", dict(FAST_SIM, snapshots="false"), [], "snapshots must be true or false"),
        ("simulate", dict(FAST_SIM, blowup_factor=-1), [], "blowup_factor must be > 0"),
        ("simulate", dict(FAST_SIM, tolerances={"hamiltonian_drift": -1}), [],
         "tolerances.hamiltonian_drift must be >= 0"),
        ("simulate", dict(FAST_SIM, b=10**400), [], "b must be a finite number"),
        ("verify", {"grid": [16, 16], "mode_list": [[1, 2, 3]]}, [], "mode_list[0] must be a list of 2 entries"),
        ("verify", {"grid": [16, 16], "mode_list": [[0, 0]]}, [], "the zero mode is excluded"),
        ("verify", {"grid": [16, 16], "mode_list": [[1, 0], [8, 1]]}, [], "mode (8, 1) is not resolvable"),
        ("geodesic", dict(FAST_GEO, pad_factor=2), [], "unknown config key(s): pad_factor"),
        ("curvature", {"grid": [16, 16], "pad_factor": 2}, [], "unknown config key(s): pad_factor"),
        ("verify", {"grid": [16, 16], "pad_factor": 2}, [], "unknown config key(s): pad_factor"),
        ("reduce1d", {"n": 16, "pad_factor": 2}, [], "unknown config key(s): pad_factor"),
        ("curvature", {"grid": [16, 16], "pairing": "bogus"}, [], "unknown config key(s): pairing"),
        ("curvature", {"grid": [16, 16], "pairing": "plain"}, [], "unknown config key(s): pairing"),
        ("simulate", FAST_SIM, ["--threads", "0"], "--threads must be >= 1"),
        ("simulate", FAST_SIM, ["--threads", "-3"], "--threads must be >= 1"),
        ("curvature", {"grid": [16, 16], "k_range": [1]}, ["--threads", "0"], "--threads must be >= 1"),
        ("curvature", {"grid": [16, 16], "k_range": [1]}, ["--threads", "-3"], "--threads must be >= 1"),
        ("reduce1d", {"n": 16, "kmax": 12}, [], "kmax=12 too large"),
        ("curvature", {"grid": [16, 16], "k_range": [1]}, ["--seed", "7"], "--seed has no seed to set"),
        ("simulate", dict(FAST_SIM, initial_condition=MODES_IC), ["--seed", "7"], "--seed has no seed to set"),
        ("geodesic", dict(FAST_GEO, initial_condition=MODES_IC), ["--seed", "7"], "--seed has no seed to set"),
        ("simulate", dict(FAST_SIM, grid=[10**400, 16]), [], "grid[0] is too large"),
        ("geodesic", dict(FAST_GEO, grid=[16, 10**400]), [], "grid[1] is too large"),
        ("verify", {"grid": [10**400, 16]}, [], "grid[0] is too large"),
        ("reduce1d", {"n": 10**400}, [], "n is too large"),
        ("curvature", {"grid": [16, 16], "k_range": [10**400]}, [], "k_range[0] is too large"),
        ("simulate", dict(FAST_SIM, initial_condition={
            "type": "modes", "modes": [{"j1": 10**400, "j2": 0, "amplitude": 0.1}]}), [],
         "initial_condition.modes[0].j1 is too large"),
        ("verify", {"grid": [16, 16], "mode_list": [[10**400, 0]]}, [], "mode_list[0][0] is too large"),
        ("verify", {"grid": [16, 16], "kmax": 10**400}, [], "kmax is too large"),
        ("reduce1d", {"n": 16, "mch2_steps": 10**400}, [], "mch2_steps is too large"),
        ("simulate", dict(FAST_SIM, initial_condition={"type": "random", "seed": 10**400}), [],
         "initial_condition.seed is too large"),
        ("simulate", dict(FAST_SIM, dt=5e-324), [], "t_end=0.01 is not a finite number of steps"),
        ("geodesic", dict(FAST_GEO, dt=5e-324), [], "t_end=0.02 is not a finite number of steps"),
        ("reduce1d", {"n": 16, "dt": 5e-324}, [], "t_end=0.05 is not a finite number of steps"),
        ("simulate", dict(FAST_SIM, t_end=1e308, dt=1e-10), [], "t_end=1e+308 is not a finite number of steps"),
        ("reduce1d", {"n": 16, "mch2_steps": 1e308, "dt": 10, "t_end": 0}, [], "mch2_steps is too large for dt=10.0"),
        ("simulate", {"grid": [16, 16], "t_end": 1e300, "dt": 1}, [],
         "t_end=1e+300 is more than 2**53 steps of dt=1.0"),
        ("geodesic", {"grid": [16, 16], "t_end": 1e300, "dt": 1}, [],
         "t_end=1e+300 is more than 2**53 steps of dt=1.0"),
        ("reduce1d", {"n": 16, "mch2_steps": 10**16, "dt": 1e-3, "t_end": 0}, [],
         "mch2_steps is too large for dt=0.001"),
        ("simulate", dict(FAST_SIM, grid=[15, 16]), [], "grid[0]=15: grid dimensions must be even and >= 4"),
        ("curvature", {"grid": [16, 2]}, [], "grid[1]=2: grid dimensions must be even and >= 4"),
        ("reduce1d", {"n": 15}, [], "n=15: grid dimensions must be even and >= 4"),
        ("reduce1d", {"ny": 3}, [], "ny=3: grid dimensions must be even and >= 4"),
        ("simulate", dict(FAST_SIM, grid=[2**40, 16]), [], "grid[0] must be <= 4096 points"),
        ("geodesic", dict(FAST_GEO, grid=[16, 4098]), [], "grid[1] must be <= 4096 points"),
        ("curvature", {"grid": [2**40, 16]}, [], "grid[0] must be <= 4096 points"),
        ("verify", {"grid": [16, 2**40]}, [], "grid[1] must be <= 4096 points"),
        ("reduce1d", {"n": 2**40}, [], "n must be <= 4096 points"),
        ("reduce1d", {"ny": 2**40}, [], "ny must be <= 4096 points"),
        ("simulate", {"grid": [1099511627776, 16]}, [], "grid[0] must be <= 4096 points"),
        ("simulate", {"grid": [16, 16], "pad_factor": 2}, [], "unknown config key(s): pad_factor"),
        ("curvature", {"grid": [16, 16], "pairing": "metric"}, [], "unknown config key(s): pairing"),
    ], ids=["fractional-pad", "aliased-pad", "fractional-grid", "bool-b", "string-dt", "negative-kmax",
            "nan-amplitude", "partial-step-with-snapshots", "string-snapshots",
            "negative-blowup-factor", "negative-tolerance", "int-past-float-range", "mode-triple",
            "zero-mode", "unresolvable-verify-mode", "pad-geodesic", "pad-curvature", "pad-verify",
            "pad-reduce1d", "unknown-pairing", "plain-pairing", "zero-threads-simulate", "negative-threads-simulate",
            "zero-threads-curvature", "negative-threads-curvature", "reduce1d-unresolvable-kmax",
            "seed-curvature", "seed-modes-simulate", "seed-modes-geodesic", "huge-grid-simulate",
            "huge-grid-geodesic", "huge-grid-verify", "huge-n-reduce1d", "huge-k-range", "huge-mode",
            "huge-mode-list", "huge-kmax", "huge-mch2-steps", "huge-seed", "tiny-dt-simulate",
            "tiny-dt-geodesic", "tiny-dt-reduce1d", "huge-t-end", "infinite-mch2-run",
            "endless-simulate", "endless-geodesic", "endless-mch2-run",
            "odd-grid-simulate", "small-grid-curvature", "odd-n-reduce1d", "odd-ny-reduce1d",
            "absurd-grid-simulate", "absurd-grid-geodesic", "absurd-grid-curvature", "absurd-grid-verify",
            "absurd-n-reduce1d", "absurd-ny-reduce1d", "absurd-grid-on-defaults", "pad-simulate-on-defaults",
            "metric-pairing"])
    def test_bad_values_rejected_before_compute(self, tmp_path, capsys, command, config, extra, message):
        cfg = write_config(tmp_path, config)
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out"), *extra) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert message in lines[0]
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

    @pytest.mark.parametrize("error, code", [(RunAbort, 2), (RuntimeError, None)], ids=["run-abort", "other"])
    def test_the_cli_catches_run_aborts_alone(self, tmp_path, capsys, monkeypatch, error, code):
        assert all(issubclass(e, RunAbort) for e in (BlowupError, InversionError, OrientationError))

        def stopped(u, b):
            raise error("stopped")

        monkeypatch.setattr(dynamics, "euler_rhs", stopped)
        args = ("simulate", "--config", write_config(tmp_path, FAST_SIM), "--out", str(tmp_path / "out"))
        if code is None:
            with pytest.raises(RuntimeError, match="stopped"):
                run(*args)
        else:
            assert run(*args) == code
            assert capsys.readouterr().err == "runtime abort: stopped\n"
            assert json.loads((tmp_path / "out" / "conservation.json").read_text())["aborted"] is True

    # Pinned config_sha256 values: integral floats, filled-in initial-condition
    # defaults and the --seed override must keep digesting to these.
    @pytest.mark.parametrize("command, config, extra, report, digest", [
        ("simulate", {"grid": [16, 16], "t_end": 0, "initial_condition": {
            "type": "modes", "modes": [{"j1": 1, "j2": 0, "amplitude": 0.1}]}}, [],
         "conservation.json", "8ccda0c8e470db310019d896d30b19ca83ee7d78752d8db9ab317b13be550e48"),
        ("simulate", FAST_SIM, ["--seed", "5"],
         "conservation.json", "612f904616635ebbe53175938646be0bae6d493d30ef49b095b3d564d5684dee"),
        ("simulate", dict(FAST_SIM, grid=[16.0, 16]), [],
         "conservation.json", "d2a45004413b704f5614349db970be476a7bf79ac15a746d872721d81396457d"),
        ("geodesic", {"grid": [16, 16], "t_end": 0}, [],
         "geodesic.json", "0c2c091aa541d26931b32480849daa0829b33fc48b7405f801d74a788ccb317e"),
        ("curvature", {"grid": [16, 16], "k_range": []}, [],
         "curvature_summary.json", "bb49b78a99a3fa928855aadf8bf559dcdab2260512b60c41d60f8f73bf2d4f44"),
        ("verify", {"grid": [16, 16], "identity_samples": 0, "mode_list": [[1, 0]]}, [],
         "verification.json", "facf00f87bce2fe4cc1143b2a0ddc4414815230528cb070eb8b4ffc5a2d3f6c1"),
        ("reduce1d", {"n": 16, "t_end": 0.002, "mch2_steps": 1}, [],
         "reduction.json", "8b09a80632ce5deb67bd4892b5f9f0219b7986afa7d7e695a9f3e8649431d55a"),
        ("reduce1d", {"n": 16, "t_end": 0.002, "mch2_steps": 1}, ["--seed", "2"],
         "reduction.json", "8c11e83966cedf892ef88de665db30666802cd3a89260df4cb540d95d7ca55c8"),
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
        assert lines[2] == "t,hamiltonian,sup_u"
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
        cfg = write_config(tmp_path, dict(FAST_SIM, t_end=0.05, record_stride=3, initial_condition={
            "type": "random", "seed": 1, "kmax": 2, "amplitude": 50.0,
        }))
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out)) == 2
        assert "runtime abort" in capsys.readouterr().err
        body = json.loads((out / "conservation.json").read_text())
        assert body["aborted"] is True
        times = [float(line.split(",")[0]) for line in (out / "trajectory.csv").read_text().splitlines()[3:]]
        # The stride's records, then step 7: the last one accepted before the blow-up at step 8.
        assert [round(t / 1e-3) for t in times] == [0, 3, 6, 7]
        assert body["recorded_until"] == times[-1]
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "again")) == 2
        for name in ("conservation.json", "trajectory.csv"):
            assert (out / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_peak_memory_does_not_grow_with_steps(self, tmp_path):
        # The run keeps a row of scalars per record and only the newest field.
        u = random_bandlimited(make_grid(32, 32), seed=0, kmax=2, amplitude=0.02)
        field_bytes = u.values.nbytes + u.spectrum.nbytes

        def peak(steps: int) -> int:
            cfg = write_config(tmp_path, {"grid": [32, 32], "dt": 1e-3, "t_end": steps * 1e-3,
                                          "snapshots": True}, f"{steps}.json")
            gc.collect()
            tracemalloc.start()
            try:
                assert run("simulate", "--config", cfg, "--out", str(tmp_path / str(steps))) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # grows this thread's product scratch to 32^2
        assert abs(peak(32) - peak(4)) < field_bytes

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

    def test_reruns_are_byte_identical_around_a_larger_run(self, tmp_path):
        # The off-grid scratch is sized by the largest call so far: a 32^2
        # run between two 16^2 runs leaves it larger, and no output may move.
        cfg = write_config(tmp_path, dict(FAST_GEO, snapshots=True))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("geodesic", "--config", cfg, "--out", str(out1)) == 0
        larger = write_config(tmp_path, dict(FAST_GEO, grid=[32, 32]), name="larger.json")
        assert run("geodesic", "--config", larger, "--out", str(tmp_path / "larger")) == 0
        assert run("geodesic", "--config", cfg, "--out", str(out2)) == 0
        names = ["diffeo_final.csv", "geodesic.json", "velocity_final.csv"]
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

    def test_peak_memory_does_not_grow_with_steps(self, tmp_path):
        # The run keeps the first body momentum and the newest state, not a
        # record (phi and phi_t) per step.
        u = random_bandlimited(make_grid(32, 32), seed=0, kmax=2, amplitude=0.02)
        record_bytes = 2 * (u.values.nbytes + u.spectrum.nbytes)

        def peak(steps: int) -> int:
            cfg = write_config(tmp_path, {"grid": [32, 32], "dt": 5e-3, "t_end": steps * 5e-3,
                                          "snapshots": True}, f"{steps}.json")
            gc.collect()
            tracemalloc.start()
            try:
                assert run("geodesic", "--config", cfg, "--out", str(tmp_path / str(steps))) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # grows this thread's off-grid and product scratch to 32^2
        assert abs(peak(32) - peak(4)) < record_bytes

    @pytest.mark.parametrize("b", [2.0, 3.0])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_drift_is_the_after_march_reduction(self, tmp_path, b, stride):
        # The drift folded in as the march records equals, bit for bit, the
        # reduction over every recorded state after the march; 10 steps leave
        # a short last stride at 3.
        config = dict(FAST_GEO, b=b, record_stride=stride)
        assert run("geodesic", "--config", write_config(tmp_path, config), "--out", str(tmp_path)) == 0
        body = json.loads((tmp_path / "geodesic.json").read_text())
        ic = config["initial_condition"]
        u0 = random_bandlimited(make_grid(16, 16), ic["seed"], ic["kmax"], ic["amplitude"])
        traj = geodesic_integrate(u0, b, config["t_end"], config["dt"], record_stride=stride)
        u_final = eulerian_velocity(traj.final)
        momenta = [body_momentum(s) for s in traj.states[:-1]]
        momenta.append(coadjoint(traj.final.phi, helmholtz(u_final)))
        ref_sup = max(momenta[0].sup_norm(), 1e-14)
        drift = max(float(np.max(np.abs(m.values - momenta[0].values))) / ref_sup for m in momenta)
        assert body["states_recorded"] == len(traj.states) == (11 if stride == 1 else 5)
        assert body["body_momentum_drift"] == drift
        assert body["final_velocity_sup"] == u_final.sup_norm()

    def test_readback_abort_keeps_partial_outputs(self, tmp_path, capsys, monkeypatch):
        # The velocity readback is the final map's first inversion.
        def stalled(state):
            raise InversionError("inversion stalled at residual nan after 100 iterations")

        cfg = write_config(tmp_path, dict(FAST_GEO, t_end=0.004))
        assert run("geodesic", "--config", cfg, "--out", str(tmp_path / "full")) == 0
        monkeypatch.setattr(cli, "eulerian_velocity", stalled)
        out = tmp_path / "out"
        assert run("geodesic", "--config", cfg, "--out", str(out)) == 2
        assert "runtime abort: inversion stalled" in capsys.readouterr().err
        assert sorted(f.name for f in out.iterdir()) == ["diffeo_final.csv", "geodesic.json"]
        body = json.loads((out / "geodesic.json").read_text())
        assert body["aborted"] is True
        assert body["recorded_until"] == pytest.approx(0.004)
        assert "inversion stalled" in body["diagnostic"]
        assert (out / "diffeo_final.csv").read_bytes() == (tmp_path / "full" / "diffeo_final.csv").read_bytes()


EIGHT_PLANES = {"grid": [32, 32], "k_range": [1, 2], "basis": [1, 2]}


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
        # 3 threads split the 8 planes unevenly.
        cfg = write_config(tmp_path, EIGHT_PLANES)
        outputs = []
        for threads in ("1", "2", "3", "4"):
            out = tmp_path / threads
            assert run("curvature", "--config", cfg, "--out", str(out), "--threads", threads) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 2 and all(o == outputs[0] for o in outputs)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_planes_run_on_the_caller_and_at_most_threads_minus_one_workers(self, tmp_path, monkeypatch, threads):
        original, seen = cli.sectional_formula, []
        baseline = threading.active_count()

        def spy(*args):
            seen.append((threading.get_ident(), threading.active_count()))
            return original(*args)

        monkeypatch.setattr(cli, "sectional_formula", spy)
        if threads == 1:
            monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
        cfg = write_config(tmp_path, EIGHT_PLANES)
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", str(threads)) == 0
        idents = {ident for ident, _ in seen}
        assert len(seen) == 8
        assert threading.get_ident() in idents and len(idents) <= threads
        assert max(active for _, active in seen) <= baseline + threads - 1
        assert threading.active_count() == baseline

    def test_no_worker_starts_without_a_plane(self, tmp_path, monkeypatch):
        started, start = [], threading.Thread.start

        def count(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", count)
        # The caller runs the first of two planes alone and then holds the second.
        cfg = write_config(tmp_path, {"grid": [16, 16], "k_range": [1], "basis": [1, 2]})
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "8") == 0
        assert started == []

    @pytest.mark.parametrize("threads", [2, 3])
    def test_first_plane_runs_alone(self, tmp_path, monkeypatch, threads):
        # One thread makes the first solver call: no other plane starts before it returns.
        original, events, lock = cli.sectional_formula, [], threading.Lock()
        baseline = threading.active_count()

        def spy(*args):
            with lock:
                events.append(("enter", threading.active_count()))
            try:
                return original(*args)
            finally:
                with lock:
                    events.append(("exit", None))

        monkeypatch.setattr(cli, "sectional_formula", spy)
        cfg = write_config(tmp_path, EIGHT_PLANES)
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", str(threads)) == 0
        assert events[:2] == [("enter", baseline), ("exit", None)]
        assert len(events) == 16

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_plane_error_propagates_after_every_worker_stops(self, tmp_path, monkeypatch, threads):
        original, calls, lock = cli.sectional_formula, [], threading.Lock()
        before = set(threading.enumerate())

        def failing(*args):
            with lock:
                calls.append(None)
                third = len(calls) == 3
            if third:
                raise ValueError("boom")
            return original(*args)

        monkeypatch.setattr(cli, "sectional_formula", failing)
        cfg = write_config(tmp_path, EIGHT_PLANES)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="boom"):
            run("curvature", "--config", cfg, "--out", str(out), "--threads", str(threads))
        assert set(threading.enumerate()) == before
        assert list(out.iterdir()) == []
        # No thread takes a plane after the error: each other thread finishes at most the one it holds.
        assert len(calls) <= 3 + threads - 1

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_earliest_failing_plane_is_reported(self, tmp_path, monkeypatch, threads):
        # Planes 1 and 2 raise.  With a worker, plane 2 raises first in time,
        # yet a serial loop would meet plane 1 first.
        original, plane_2_raised = cli._curvature_case, threading.Event()
        cases = [(i, j1, j2) for i in (1, 2) for j1 in (1, 2) for j2 in (1, 2)]

        def failing(grid, *case):
            k = cases.index(case)
            if k == 2:
                plane_2_raised.set()
            elif k == 1 and threads > 1 and not plane_2_raised.wait(timeout=60):
                raise RuntimeError("plane 2 never ran")
            if k in (1, 2):
                raise ValueError(f"plane {k}")
            return original(grid, *case)

        monkeypatch.setattr(cli, "_curvature_case", failing)
        cfg = write_config(tmp_path, EIGHT_PLANES)
        with pytest.raises(ValueError, match="plane 1"):
            run("curvature", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", str(threads))

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

    def test_rows_are_the_reports_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": [16, 16], "b_list": [2.0, 3.0], "mode_list": [[1, 0], [1, 1]], "identity_samples": 0,
        })
        out = tmp_path / "out"
        assert run("verify", "--config", cfg, "--out", str(out)) == 0
        body = json.loads((out / "verification.json").read_text())
        report = verify_theorem([2.0, 3.0], [(1, 0), (1, 1)], make_grid(16, 16), 1e-11)
        assert body["rows"] == [dict(row, expected_fail=row["b"] != 2.0) for row in report.rows]
        assert body["consistent_b"] == list(report.consistent_b) == [2.0]

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

    def test_rows_use_configured_grid_and_pad(self, tmp_path):
        # Mode (5, 0) on 16^2: the products alias unless padded, and the
        # grid the rows would pick by themselves is 20^2.
        cfg = write_config(tmp_path, {
            "grid": [16, 16], "b_list": [3.0], "mode_list": [[5, 0]],
            "identity_samples": 0,
        })
        out = tmp_path / "out"
        run("verify", "--config", cfg, "--out", str(out))
        (row,) = json.loads((out / "verification.json").read_text())["rows"]
        u = cosine_mode(make_grid(16, 16), 5, 0)
        assert row["gl1_residual"] == gl1_residual(u, 3.0)


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


# Every name `import torusflow` re-exported when the package imported its
# modules eagerly.
PACKAGE_NAMES = (
    "Field", "TorusGrid", "VectorField", "h1_inner", "helmholtz", "helmholtz_inverse", "l2_inner",
    "make_grid", "random_bandlimited",
    "B_CAMASSA_HOLM", "BlowupError", "EulerState", "Trajectory", "christoffel",
    "conservation_report", "euler_rhs", "hamiltonian", "integrate",
    "DiffeoMap", "GeodesicState", "InversionError", "OrientationError", "adjoint", "body_momentum",
    "body_velocity", "coadjoint", "eulerian_velocity", "exp_map", "geodesic_integrate", "invert",
    "CurvatureReport", "closed_form_S", "curvature_tensor", "sectional_direct", "sectional_formula",
    "verify_theorem",
)


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fresh_python(code: str, **env) -> str:
    """stdout of code run in a new interpreter that imports this checkout's torusflow.

    OPENBLAS_NUM_THREADS is passed only when given, as a launcher would set it.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportPath:
    """A CLI process sets numpy's OpenBLAS thread default before numpy loads,
    and no output byte depends on the BLAS thread count."""

    def test_package_import_loads_no_numpy(self):
        out = fresh_python(
            "import sys, torusflow\n"
            "print('numpy' in sys.modules)\n"
            f"names = {PACKAGE_NAMES!r}\n"
            "from torusflow import curvature, dynamics, flow, spectral, uniqueness\n"
            "homes = (curvature, dynamics, flow, spectral, uniqueness)\n"
            "print(all(any(getattr(torusflow, n) is getattr(m, n, None) for m in homes) for n in names))\n"
            "from torusflow import *\n"
            "print(all(n in globals() for n in names))\n"
        )
        assert out.split() == ["False", "True", "True"]

    def test_simulate_loads_no_sweep_modules(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SIM)
        out = fresh_python(
            "import sys\n"
            "from torusflow.cli import entry\n"
            f"assert entry(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(*(name in sys.modules for name in ('torusflow.uniqueness', 'concurrent.futures')))\n")
        assert out.split() == ["False", "False"]

    def test_curvature_loads_no_executor(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": [16, 16], "k_range": [1], "basis": [1, 2]})
        out = fresh_python(
            "import sys\n"
            "from torusflow.cli import entry\n"
            f"assert entry(['curvature', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}, "
            "'--threads', '2']) == 0\n"
            "print('concurrent.futures' in sys.modules)\n")
        assert out.split() == ["False"]

    @pytest.mark.skipif(not sys.platform.startswith("linux") or CPUS < 2,
                        reason="needs /proc/self/task and at least 2 CPUs for OpenBLAS to start a worker")
    def test_cli_import_starts_one_thread(self):
        out = fresh_python("import os, torusflow.cli\n"
                           "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
        assert out.split() == ["1", "1"]

    @pytest.mark.parametrize("launcher, expected", [(None, "1"), ("2", "2")], ids=["unset", "launcher-2"])
    def test_launcher_value_kept(self, launcher, expected):
        # The launcher's value is kept, and OpenBLAS starts that many OS threads.
        env = {} if launcher is None else {"OPENBLAS_NUM_THREADS": launcher}
        out = fresh_python("import os, sys, torusflow.cli\n"
                           "tasks = len(os.listdir('/proc/self/task')) if sys.platform.startswith('linux') else 0\n"
                           "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)", **env)
        value, tasks = out.split()
        assert value == expected
        if tasks != "0" and CPUS >= int(expected):
            assert tasks == expected

    @pytest.mark.skipif(CPUS < 2, reason="needs at least 2 CPUs for OpenBLAS to run a second thread")
    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # 32^2 is large enough for OpenBLAS to split the off-grid matmul.
        cfg = write_config(tmp_path, dict(FAST_GEO, grid=[32, 32], t_end=0.004, snapshots=True))
        outputs = []
        for blas in ("1", "2"):
            out = tmp_path / blas
            fresh_python("import sys\n"
                         "from torusflow.cli import entry\n"
                         f"sys.exit(entry(['geodesic', '--config', {cfg!r}, '--out', {str(out)!r}]))",
                         OPENBLAS_NUM_THREADS=blas)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 3 and outputs[1] == outputs[0]


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
