"""Output bytes held across commits: the sha256 of every output file, and the
exit code, of a fixed set of runs.

The set is seeds 1 and 2 of the benchmark's three workload configs (built
by bench/workloads.py), the five subcommands on their schema defaults and
three runs that abort.  The table in golden.json is keyed by the numpy
version and the machine, since the FFTs may round differently elsewhere.
Each run's exit code is pinned here, on the key or off it.  Off the key
every run is still made twice and its reruns must be byte-identical; the
hash comparison is then skipped, naming the key.

    python tests/update_golden.py    # rewrite this key's table, print what changed
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from torusflow.cli import entry

TABLE = Path(__file__).resolve().parent / "golden.json"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
KEY = f"numpy {np.__version__} {platform.machine()}"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()

# name -> (subcommand, config or None for the schema defaults, --threads, exit code)
RUNS = {
    **{f"{case.command}-{case.config['grid'][0]}-seed{seed}": (case.command, case.config, case.threads, 0)
       for seed in (1, 2)
       for case in (workloads.simulate_case(seed), workloads.geodesic_case(seed),
                    workloads.curvature_case(seed, threads=2))},
    **{f"{command}-defaults": (command, None, 1, 0)
       for command in ("simulate", "geodesic", "curvature", "verify", "reduce1d")},
    "simulate-abort": ("simulate", {"grid": [16, 16], "t_end": 0.05, "dt": 1e-3, "record_stride": 3,
                                    "initial_condition": {"type": "random", "seed": 1, "kmax": 2,
                                                          "amplitude": 50.0}}, 1, 2),
    "geodesic-abort": ("geodesic", {"grid": [16, 16], "t_end": 0.02, "dt": 5e-3, "det_floor": 0.9999,
                                    "record_stride": 3}, 1, 2),
    "reduce1d-abort": ("reduce1d", {"n": 32, "ny": 8, "amplitude": 20, "t_end": 0.05}, 1, 2),
}


def outputs(name: str, work: Path) -> dict:
    """Exit code and sha256 of every output file of the run `name`, made in work."""
    command, config, threads, _ = RUNS[name]
    work.mkdir(parents=True)
    args = [command, "--out", str(work / "out"), "--threads", str(threads)]
    if config is not None:
        (work / "config.json").write_text(json.dumps(config))
        args += ["--config", str(work / "config.json")]
    code = entry(args)
    files = {path.relative_to(work / "out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted((work / "out").rglob("*")) if path.is_file()}
    return {"exit": code, "files": files}


def read_table() -> dict:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_table(name, tmp_path):
    got = outputs(name, tmp_path / "first")
    assert got["exit"] == RUNS[name][3]
    want = read_table().get(KEY)
    if want is None:
        assert outputs(name, tmp_path / "second") == got
        pytest.skip(f"no golden hashes for {KEY!r}; reruns were byte-identical")
    assert got == want[name]
