"""Rewrite this numpy version's and machine's entry of tests/golden.json.

    PYTHONPATH=src python tests/update_golden.py [--base REF]

Runs every config of test_golden.RUNS once, prints each output file whose
sha256 or exit code changed, appeared or went, and writes the table.

The run's output files are kept in tests/golden_outputs/, which git
ignores.  Each output file whose bytes differ from its previous copy is
compared with it: for every CSV column and every JSON number that moved,
the largest absolute change and the largest relative one, taken against
the column's largest previous magnitude or the number's previous value.
The previous copies are those kept by the last run, or with --base REF
those of the commit REF (say HEAD, to see what uncommitted changes move),
built with REF's own code in a temporary git worktree that is removed
afterwards.  REF needs its own tests/test_golden.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import KEY, RUNS, TABLE, outputs, read_table  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
KEPT = Path(__file__).resolve().parent / "golden_outputs"

# Run in a checkout: its test_golden makes every run's outputs in argv[1].
BUILD = """
import sys
from pathlib import Path
sys.path.insert(0, "tests")
from test_golden import RUNS, outputs
for name in sorted(RUNS):
    outputs(name, Path(sys.argv[1]) / name)
"""


def numbers(path: Path) -> dict[str, list[float]]:
    """Each numeric CSV column by its header, or each JSON number by its key path."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        columns = {}
        for i, name in enumerate(header):
            try:
                columns[name] = [float(row[i]) for row in rows]
            except ValueError:
                pass
        return columns
    found = {}

    def walk(value, where: str) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{where}.{key}" if where else key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{where}[{i}]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found[where] = [float(value)]

    walk(json.loads(text), "")
    return found


def changes(before: Path, after: Path) -> list[str]:
    """One line per number or column of after that differs from before."""
    old, new = numbers(before), numbers(after)
    lines = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a is None or b is None or len(a) != len(b):
            lines.append(f"{name}: {len(a or [])} -> {len(b or [])} values")
            continue
        gap = max((abs(x - y) for x, y in zip(a, b) if x != y), default=0.0)
        if gap == 0.0:
            continue
        scale = max(abs(x) for x in a)
        rel = gap / scale if scale > 0.0 else math.inf
        lines.append(f"{name}: max abs {gap:.3g}, max rel {rel:.3g}")
    return lines


def base_outputs(ref: str, into: Path) -> None:
    """Outputs of every run at the commit ref, made in into/<run>/out."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), ref],
                       check=True)
        try:
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            subprocess.run([sys.executable, "-c", BUILD, str(into)], cwd=tree, env=env, check=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REF",
                        help="compare with the outputs of the commit REF instead of the kept ones")
    args = parser.parse_args(argv)
    table = read_table()
    old = table.get(KEY, {})
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        made, against = Path(tmp) / "made", KEPT
        if args.base is not None:
            against = Path(tmp) / "base"
            base_outputs(args.base, against)
        for name in sorted(RUNS):
            new[name] = outputs(name, made / name)
        changed = 0
        for name in sorted(set(old) | set(new)):
            before, after = old.get(name, {"files": {}}), new.get(name, {"files": {}})
            if before.get("exit") != after.get("exit"):
                print(f"{name}: exit {before.get('exit')} -> {after.get('exit')}")
                changed += 1
            for file in sorted(set(before["files"]) | set(after["files"])):
                if before["files"].get(file) != after["files"].get(file):
                    state = ("new" if file not in before["files"] else
                             "gone" if file not in after["files"] else "changed")
                    print(f"{name}/{file}: {state}")
                    changed += 1
        for name in sorted(new):
            for file in sorted(new[name]["files"]):
                previous, current = against / name / "out" / file, made / name / "out" / file
                if previous.is_file() and previous.read_bytes() != current.read_bytes():
                    print(f"{name}/{file} against the {args.base or 'kept'} outputs:")
                    for line in changes(previous, current):
                        print(f"  {line}")
        shutil.rmtree(KEPT, ignore_errors=True)
        shutil.copytree(made, KEPT)
    table[KEY] = new
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{KEY}: {changed} change(s), {len(new)} runs written to {TABLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
