"""Rewrite this numpy version's and machine's entry of tests/golden.json.

    PYTHONPATH=src python tests/update_golden.py

Runs every config of test_golden.RUNS once, prints each output file whose
sha256 or exit code changed, appeared or went, and writes the table.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import KEY, RUNS, TABLE, outputs, read_table  # noqa: E402


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
    table[KEY] = new
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{KEY}: {changed} change(s), {len(new)} runs written to {TABLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
