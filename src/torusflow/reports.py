"""Plot-ready CSV and JSON emission.

Every file carries the same two provenance facts: the tool version and a
sha256 digest of the canonical (sorted, separator-free) JSON encoding of the
run configuration.  CSVs put them in leading `#` comments, JSON in a `meta`
object.  Floats are printed with %.17g so a reader recovers the exact
double, which is what makes byte-identical reruns a meaningful promise.
Writes go to a temp file in the destination directory and are renamed into
place, so a crashed run never leaves a half-written report.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# CPython's built-in sha256: hashlib would also load OpenSSL's libcrypto.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    from _sha256 import sha256  # CPython 3.10 and 3.11

from . import __version__
from .flow import DiffeoMap
from .spectral import Field

__all__ = [
    "config_digest",
    "write_csv",
    "write_json",
    "write_field_csv",
    "write_trajectory_csv",
    "write_diffeo_csv",
    "write_curvature_csv",
]

FLOAT_FORMAT = "%.17g"


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: Sequence[str], table, digest: str) -> None:
    """CSV with the provenance comments, then header, then the rows of a
    numeric table, one column per header name, in one %.17g pass.  A table
    of another width or with a non-numeric cell writes nothing: ValueError."""
    table = np.asarray(table)
    if table.dtype.kind not in "iuf":
        raise ValueError(f"a CSV table must be numeric, not of {table.dtype} cells")
    if table.shape != (0,) and table.shape[1:] != (len(header),):
        raise ValueError(f"a table of shape {table.shape} does not fit the {len(header)} columns {tuple(header)}")
    lines = [
        f"# tool: torusflow {__version__}",
        f"# config_sha256: {digest}",
        ",".join(header),
    ]
    if len(table):
        row = ",".join([FLOAT_FORMAT] * len(header))
        lines.append("\n".join([row] * len(table)) % tuple(table.ravel().tolist()))
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_json(path, payload: dict, digest: str) -> None:
    body = dict(payload)
    body["meta"] = {"tool": f"torusflow {__version__}", "config_sha256": digest}
    _atomic_write_text(Path(path), json.dumps(body, indent=2, sort_keys=True) + "\n")


def _write_vector_csv(path, u: Field, names: tuple[str, str], digest: str) -> None:
    table = np.column_stack((u.grid.points, u.values.reshape(2, -1).T))
    write_csv(path, ("x", "y") + names, table, digest)


def write_field_csv(path, u: Field, digest: str) -> None:
    """Velocity snapshot as x,y,u1,u2 rows over the grid, row-major."""
    _write_vector_csv(path, u, ("u1", "u2"), digest)


def write_trajectory_csv(path, report, digest: str) -> None:
    """Conservation time series as t,hamiltonian,sup_u rows."""
    table = np.column_stack((report.times, report.hamiltonian, report.sup_u))
    write_csv(path, ("t", "hamiltonian", "sup_u"), table, digest)


def write_diffeo_csv(path, phi: DiffeoMap, digest: str) -> None:
    """Deformation snapshot as x,y,d1,d2 rows over the grid, row-major."""
    _write_vector_csv(path, phi.displacement, ("d1", "d2"), digest)


def write_curvature_csv(path, rows: Iterable[dict], digest: str) -> None:
    """Curvature sweep rows keyed by wavenumber pair and basis index."""
    header = ("k1", "k2", "i", "S_formula", "S_direct", "S_closed_form",
              "gamma_terms", "r_term")
    write_csv(path, header, [[row[k] for k in header] for row in rows], digest)
