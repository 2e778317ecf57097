"""Rewrite this numpy version's and machine's entry of tests/golden.json.

    PYTHONPATH=src python tests/update_golden.py

Runs every config of test_golden.RUNS once, prints each output file whose
sha256 or exit code changed, appeared or went, and writes the table.

The run's output files are kept in tests/golden_outputs/, which git
ignores.  When that directory holds a previous run's files, each file whose
bytes differ is compared with its previous copy: for every CSV column and
every JSON number that moved, the largest absolute change and the largest
relative one, taken against the column's largest previous magnitude or the
number's previous value.  To see how a commit moves the outputs, run the
tool at its parent, then at the commit in the same checkout (or with the
directory copied over).
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import KEY, RUNS, TABLE, outputs, read_table  # noqa: E402

KEPT = Path(__file__).resolve().parent / "golden_outputs"


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


def main() -> int:
    table = read_table()
    old = table.get(KEY, {})
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            new[name] = outputs(name, Path(tmp) / name)
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
                previous, current = KEPT / name / "out" / file, Path(tmp) / name / "out" / file
                if previous.is_file() and previous.read_bytes() != current.read_bytes():
                    print(f"{name}/{file} against the kept outputs:")
                    for line in changes(previous, current):
                        print(f"  {line}")
        shutil.rmtree(KEPT, ignore_errors=True)
        shutil.copytree(tmp, KEPT)
    table[KEY] = new
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{KEY}: {changed} change(s), {len(new)} runs written to {TABLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
