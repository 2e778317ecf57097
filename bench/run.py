"""End-to-end benchmark of the torusflow CLI, with a traced per-layer mode.

    python3 bench/run.py --workload simulate-128 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
./src.  Each run generates the workload's config from --seed, then repeats
whole rounds while one more fits in --seconds (at least MIN_ROUNDS rounds):

* --trace 0: a round is SETUP_PROBES launches that stop as the solver
  starts (setup_s) and one full CLI run (wall_s, cpu_s, peak_rss_mib).
  Each metric is the median over the run.
* --trace 1: a round is one full untraced run and one full traced run; the
  per-layer metrics are medians over the traced runs, and trace.overhead_s
  is the traced minus the untraced median wall time.

Outputs are checked after the timed rounds: against closed forms or the
velocity-form route (bench/workloads.py), and for byte-identical files
across every full run.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from layers import UNITS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"
OUT_DIR = ".bench_out"

SETUP_PROBES = 4
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0

# The console script torusflow = torusflow.cli:entry, without installing it.
ENTRY = "import sys; from torusflow.cli import entry; sys.exit(entry())"

WORKLOADS = {
    "simulate-128": lambda seed: workloads.simulate_case(seed),
    "geodesic-32": lambda seed: workloads.geodesic_case(seed),
    "curvature-64": lambda seed: workloads.curvature_case(seed, threads=len(os.sched_getaffinity(0))),
}


@dataclass(frozen=True)
class Launch:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    started: float
    stdout: str


def launch(argv: list[str], env: dict, log: Path) -> Launch:
    """Run one child to its end; rusage is the child's own, from wait4."""
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return Launch(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, started, stdout)


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


class Runner:
    """Launches of one workload run, with their outcomes."""

    def __init__(self, case: workloads.Case, work: Path, src: Path):
        self.case = case
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.config = work / "config.json"
        self.config.write_text(json.dumps(case.config, indent=2))
        self.attempted = 0
        self.failed = 0
        self.digests: list[dict] = []
        self.kept: Path | None = None

    def _launch(self, prefix: list[str], out: Path) -> Launch:
        self.attempted += 1
        result = launch([sys.executable, *prefix, *self.case.cli_args(self.config, out)],
                        self.env, self.work / f"launch{self.attempted}")
        if result.code != 0:
            self.failed += 1
        return result

    def setup_probe(self) -> float | None:
        out = self.work / "setup"
        result = self._launch([str(LAUNCH), "setup", "--"], out)
        shutil.rmtree(out, ignore_errors=True)
        words = result.stdout.split()
        if result.code != 0 or len(words) != 2 or words[0] != "solve-start":
            return None
        return float(words[1]) - result.started

    def full_run(self, spans: Path | None = None) -> Launch:
        out = self.work / f"run{self.attempted + 1}"
        prefix = ["-c", ENTRY] if spans is None else [str(LAUNCH), "trace", str(spans), "--"]
        result = self._launch(prefix, out)
        if result.code == 0:
            self.digests.append(digest_dir(out))
            if self.kept is None:
                self.kept = out
                return result
        shutil.rmtree(out, ignore_errors=True)
        return result

    def errors(self) -> list[str]:
        if self.kept is None:
            return ["no full run succeeded"]
        errors = workloads.check(self.case, self.kept)
        if any(d != self.digests[0] for d in self.digests):
            errors.append("output files differ between runs of one config")
        return errors


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(case: workloads.Case, seconds: float, trace: bool, work: Path, src: Path) -> dict:
    """Run whole rounds for `seconds`, check the outputs, return the result object."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(case, work, src)
    runner.setup_probe()  # warm-up: byte-compiles the package, fills the file cache
    setups, runs, traced = [], [], []
    start = time.monotonic()
    rounds = 0
    # Start a round only if one of average length still fits in `seconds`.
    while rounds < MIN_ROUNDS or (time.monotonic() - start) * (rounds + 1) / rounds <= seconds:
        rounds += 1
        if trace:
            runs.append(runner.full_run())
            spans = work / f"spans{rounds}.json"
            result = runner.full_run(spans)
            if result.code == 0:
                traced.append((result, json.loads(spans.read_text())))
            spans.unlink(missing_ok=True)
        else:
            setups += [s for s in (runner.setup_probe() for _ in range(SETUP_PROBES)) if s is not None]
            runs.append(runner.full_run())
    ok = [r for r in runs if r.code == 0]
    errors = runner.errors()
    if trace:
        if not traced:
            errors.append("no traced run succeeded")
        per_run = [layer_metrics(spans, case.steps, case.threads) for _, spans in traced]
        # Counts repeat exactly from run to run; times are medians.
        values = {name: per_run[0][name] if UNITS[name] in ("count", "B")
                  else _median([m[name] for m in per_run])
                  for name in per_run[0]} if per_run else {}
        values["trace.overhead_s"] = (_median([r.wall_s for r, _ in traced])
                                      - _median([r.wall_s for r in ok]))
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": _median(setups), "unit": "s"},
            "wall_s": {"value": _median([r.wall_s for r in ok]), "unit": "s"},
            "cpu_s": {"value": _median([r.cpu_s for r in ok]), "unit": "s"},
            "peak_rss_mib": {"value": _median([r.peak_rss_mib for r in ok]), "unit": "MiB"},
        }
    return {
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "torusflow" / "cli.py").is_file():
        print(f"no torusflow sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))  # the checks import the same sources

    case = WORKLOADS[args.workload](args.seed)
    result = measure(case, args.seconds, bool(args.trace), ROOT / OUT_DIR / args.workload, src)
    for message in result.pop("errors"):
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
