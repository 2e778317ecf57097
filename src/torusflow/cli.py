"""Batch front door: validated JSON configs in, plot-ready CSV/JSON out.

Subcommands: simulate, geodesic, curvature, verify, reduce1d.
Exit codes: 0 pass, 1 config error, 2 runtime abort (blow-up or loss of
invertibility, partial outputs retained where possible), 3 a tolerance gate
failed.  Identical config and seed give byte-identical outputs.  Each
subcommand's config is checked in full against its schema, unknown keys
included, then --threads and the output directory, before any compute or
output; exit 1 means only that a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

# --threads is a run's only parallelism, so a CLI process starts numpy's
# OpenBLAS on one thread, whose idle worker would otherwise spin beside the
# solver; a launcher that sets the variable keeps its value.  Only a setting
# made before numpy loads reaches OpenBLAS's pool, so entry() called after
# numpy has loaded runs on the caller's pool.  No report byte depends on it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .curvature import basis_field, closed_form_S, mode_field, sectional_formula
from .dynamics import (
    DRIFT_FLOOR,
    ConservationReport,
    RunAbort,
    _step_count,
    check_commuting_identity,
    check_metric_compatibility,
    conservation_row,
    euler_rhs,
    helmholtz_1d,
    integrate,
    integrate_1d,
    mch2_rhs,
    profile_1d,
)
from .flow import (
    GeodesicState,
    body_momentum,
    coadjoint,
    eulerian_velocity,
    geodesic_integrate,
)
from .reports import (
    config_digest,
    write_curvature_csv,
    write_diffeo_csv,
    write_field_csv,
    write_json,
    write_trajectory_csv,
)
from .spectral import (
    TWO_PI,
    Field,
    VectorField,
    cosine_mode,
    helmholtz,
    make_grid,
    random_bandlimited,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_TOLERANCE = 3

# Unit direction of each initial-condition mode component.
MODE_DIRECTIONS = {"u1": (1.0, 0.0), "u2": (0.0, 1.0), "both": (1.0, 1.0)}


class ConfigError(Exception):
    """Rejected configuration; reported once, exit code 1."""


# --------------------------------------------------------------------------
# Config schema.
#
# A schema maps each key to (default, check), or to a nested schema for an
# object with fixed keys.  A check takes (value, name) and returns the typed
# value or raises ConfigError.  Checking a config yields the typed values the
# handlers use and the echo: the supplied config over the defaults, which is
# what the digest and the reports record.


def _int(minimum: int | None = None):
    """Ints and integral floats within float range pass, bools, strings and fractions do not."""
    def check(value, name: str) -> int:
        integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not integral:
            raise ConfigError(f"{name} must be an integer, not {value!r}")
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} is too large")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, not {value!r}")
        return int(value)
    return check


def _float(minimum: float | None = None, strict: bool = False, nullable: bool = False):
    """A finite number >= minimum (> minimum if strict); None passes if nullable."""
    def check(value, name: str) -> float | None:
        if value is None and nullable:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past float range
            raise ConfigError(f"{name} must be a finite number{' or null' if nullable else ''}, not {value!r}")
        if minimum is not None and (value <= minimum if strict else value < minimum):
            raise ConfigError(f"{name} must be {'>' if strict else '>='} {minimum:g}, not {value!r}")
        return float(value)
    return check


def _bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, not {value!r}")
    return value


def _choice(*options):
    def check(value, name: str):
        if value not in options:
            raise ConfigError(f"{name} must be one of {', '.join(options)}, not {value!r}")
        return value
    return check


def _list(item, length: int | None = None, nonempty: bool = False):
    """A list whose entries all pass item."""
    def check(value, name: str) -> list:
        size = f" of {length} entries" if length is not None else ""
        if not isinstance(value, list) or size and len(value) != length or nonempty and not value:
            raise ConfigError(f"{name} must be a{' non-empty' if nonempty else ''} list{size}, not {value!r}")
        return [item(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return check


class _Union:
    """An object whose "type" entry picks its schema; its echo is its checked form."""

    def __init__(self, **variants):
        self.variants = variants
        self.pick = _choice(*variants)

    def __call__(self, value, name: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object")
        kind = self.pick(value.get("type"), f"{name}.type")
        return _check_object({"type": (kind, self.pick), **self.variants[kind]}, value, name)[0]


def _check_object(schema: dict, value, name: str = "") -> tuple[dict, dict]:
    """Typed values and echo of one config object; name is empty at the root."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = sorted(set(value) - set(schema))
    if unknown:
        where = f" in {name}" if name else ""
        raise ConfigError(f"unknown config key(s){where}: {', '.join(unknown)}")
    typed, echo = {}, {}
    for key, spec in schema.items():
        where = f"{name}.{key}" if name else key
        if isinstance(spec, dict):
            typed[key], echo[key] = _check_object(spec, value.get(key, {}), where)
            continue
        default, check = spec
        raw = value.get(key, default)
        typed[key] = check(raw, where)
        echo[key] = typed[key] if isinstance(check, _Union) else raw
    return typed, echo


# Points per grid side at most, so an absurd grid such as [2**40, 16] is a
# config error before anything is allocated.  4096 is already past any run
# this library can finish: on 4096^2 each thread's product scratch alone is
# about 4.4 GB (112 M^2 bytes, padded side M = 6250).
MAX_SIDE = 4096


def _side(value, name: str) -> int:
    n = _int()(value, name)
    if n > MAX_SIDE:
        raise ConfigError(f"{name} must be <= {MAX_SIDE} points, not {value!r}")
    return n


GRID = _list(_side, length=2)
GRID_KEYS = ("grid[0]", "grid[1]")  # the names grid errors give its entries
FLOATS = _list(_float())
COUNT = _int(minimum=0)
TOLERANCE = _float(minimum=0.0)
GATE = _float(minimum=0.0, nullable=True)  # a tolerance that null switches off
B = (2.0, _float())
RECORD_STRIDE = (1, _int(minimum=1))
SNAPSHOTS = (False, _bool)
MODE = {
    "j1": (0, _int()),
    "j2": (0, _int()),
    "amplitude": (0.0, _float()),
    "component": ("both", _choice(*MODE_DIRECTIONS)),
}
INITIAL_CONDITION = ({"type": "random"}, _Union(
    random={"seed": (0, COUNT), "kmax": (2, COUNT), "amplitude": (0.02, _float())},
    modes={"modes": (None, _list(lambda v, name: _check_object(MODE, v, name)[0], nonempty=True))},
))

SIMULATE = {
    "grid": ([32, 32], GRID),
    "b": B,
    "initial_condition": INITIAL_CONDITION,
    "dt": (1e-3, _float()),
    "t_end": (0.1, _float()),
    "record_stride": RECORD_STRIDE,
    "blowup_factor": (1e3, _float(minimum=0.0, strict=True)),
    "snapshots": SNAPSHOTS,
    "tolerances": {"hamiltonian_drift": (None, GATE)},
}

GEODESIC = {
    "grid": ([32, 32], GRID),
    "b": B,
    "initial_condition": INITIAL_CONDITION,
    "dt": (5e-3, _float()),
    "t_end": (0.2, _float()),
    "record_stride": RECORD_STRIDE,
    "det_floor": (1e-3, _float()),
    "snapshots": SNAPSHOTS,
    "tolerances": {"body_momentum_drift": (None, GATE)},
}

CURVATURE = {
    "grid": ([64, 64], GRID),
    "k_range": ([1, 2, 3], _list(_int())),
    "basis": ([1], _list(_int())),
    "tolerances": {"two_route": (1e-7, GATE)},
}

VERIFY = {
    "grid": ([32, 32], GRID),
    "b_list": ([2.0, 3.0, 4.0], FLOATS),
    "mode_list": ([[1, 0], [0, 1], [1, 1], [2, 1]], _list(_list(_int(), length=2), nonempty=True)),
    "identity_samples": (5, COUNT),
    "kmax": (3, COUNT),
    "amplitude": (0.5, _float()),
    "seed": (0, COUNT),
    "tolerances": {
        "identity": (1e-10, TOLERANCE),
        "uniqueness_zero": (1e-11, TOLERANCE),
        "uniqueness_nonzero": (1e-3, TOLERANCE),
    },
}

REDUCE1D = {
    "n": (64, _side),
    "ny": (8, _side),
    "b_list": ([2.0, 3.0], FLOATS),
    "dt": (1e-3, _float()),
    "t_end": (0.05, _float()),
    "mch2_steps": (5, COUNT),
    "seed": (0, COUNT),
    "kmax": (3, COUNT),
    "amplitude": (0.1, _float()),
    "tolerances": {"reduction": (1e-9, TOLERANCE), "mch2": (1e-10, TOLERANCE)},
}


# Cross-field rules, each enforced by the library code that owns it.  They
# replace the grid pair with a TorusGrid and the initial condition with its
# field.


def _build_initial(grid, ic: dict):
    if ic["type"] == "random":
        return random_bandlimited(grid, ic["seed"], ic["kmax"], ic["amplitude"])
    modes = (cosine_mode(grid, m["j1"], m["j2"], m["amplitude"], MODE_DIRECTIONS[m["component"]])
             for m in ic["modes"])
    return Field(grid, sum(mode.values for mode in modes))  # one field, so only the sum is transformed


def _march_rules(p: dict) -> None:
    p["grid"] = make_grid(*p["grid"], names=GRID_KEYS)
    _step_count(p["t_end"], p["dt"])
    p["initial_condition"] = _build_initial(p["grid"], p["initial_condition"])


def _curvature_rules(p: dict) -> None:
    grid = p["grid"] = make_grid(*p["grid"], names=GRID_KEYS)
    for j in p["k_range"]:
        mode_field(grid, j, j)
    for i in p["basis"]:
        basis_field(grid, i)


def _verify_rules(p: dict) -> None:
    from .uniqueness import ModeIndex  # verify alone loads the sweep

    grid = p["grid"] = make_grid(*p["grid"], names=GRID_KEYS)
    for pair in p["mode_list"]:
        ModeIndex(*pair), cosine_mode(grid, *pair)
    random_bandlimited(p["grid"], p["seed"], p["kmax"], p["amplitude"])


def _reduce1d_rules(p: dict) -> None:
    p["grid"] = make_grid(p["n"], p["ny"], names=("n", "ny"))
    _step_count(p["t_end"], p["dt"])
    try:
        _step_count(p["mch2_steps"] * p["dt"], p["dt"])
    except ValueError:
        raise ValueError(f"mch2_steps is too large for dt={p['dt']}") from None
    profile_1d(p["n"], p["seed"], p["kmax"], p["amplitude"])


def _parse(schema: dict, rules, raw: dict, seed: int | None) -> tuple[dict, dict]:
    """Typed values and echo of a subcommand config, with --seed applied."""
    if seed is not None:
        ic = raw.get("initial_condition", INITIAL_CONDITION[0])
        if "seed" in schema:
            raw = dict(raw, seed=seed)
        elif "initial_condition" in schema and isinstance(ic, dict) and ic.get("type") == "random":
            raw = dict(raw, initial_condition=dict(ic, seed=seed))
        else:
            raise ConfigError("--seed has no seed to set: this config has no seed key "
                              "and no random initial_condition")
    params, echo = _check_object(schema, raw)
    try:
        rules(params)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return params, echo


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except ValueError as err:  # undecodable bytes, bad JSON, or an integer past the parser's digit limit
        raise ConfigError(f"malformed JSON in {path}: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# --------------------------------------------------------------------------
# Handlers take the typed values p, the echo cfg, the output directory and
# the thread count.  A runtime abort writes partial outputs and re-raises.


def _gate_failed(what: str) -> int:
    print(f"tolerance gate failed: {what}", file=sys.stderr)
    return EXIT_TOLERANCE


def _write_aborted(path: Path, err: Exception, digest: str, **recorded) -> None:
    """The report of a runtime abort: its diagnostic and what the run had recorded."""
    write_json(path, {"aborted": True, "diagnostic": str(err), **recorded}, digest)


# --------------------------------------------------------------------------
# simulate


def _cmd_simulate(p: dict, cfg: dict, out: Path, threads: int) -> int:
    """integrate the momentum equation and report conservation"""
    u0, b = p["initial_condition"], p["b"]
    tol = p["tolerances"]["hamiltonian_drift"]
    digest = config_digest(cfg)
    if p["snapshots"]:
        write_field_csv(out / "field_initial.csv", u0, digest)
    rows, newest = [], u0

    def record(t: float, u) -> None:
        # A row of scalars per record; of the fields only the newest is kept.
        nonlocal newest
        newest = u
        rows.append(conservation_row(t, u))

    try:
        integrate(u0, b, p["t_end"], p["dt"], record_stride=p["record_stride"],
                  blowup_factor=p["blowup_factor"], state=record)
    except RunAbort as err:
        report = ConservationReport.from_rows(rows)
        write_trajectory_csv(out / "trajectory.csv", report, digest)
        _write_aborted(out / "conservation.json", err, digest,
                       b=b, dt=cfg["dt"], recorded_until=report.times[-1])
        raise
    report = ConservationReport.from_rows(rows)
    write_trajectory_csv(out / "trajectory.csv", report, digest)
    write_json(out / "conservation.json", {
        "aborted": False,
        "b": b,
        "dt": cfg["dt"],
        "t_end": cfg["t_end"],
        "hamiltonian_drift": report.hamiltonian_drift,
        "final_sup_u": report.sup_u[-1],
    }, digest)
    if p["snapshots"]:
        write_field_csv(out / "field_final.csv", newest, digest)
    if tol is not None and report.hamiltonian_drift > tol:
        return _gate_failed(f"hamiltonian drift {report.hamiltonian_drift:.3g} > {tol:g}")
    return EXIT_OK


# --------------------------------------------------------------------------
# geodesic


def _cmd_geodesic(p: dict, cfg: dict, out: Path, threads: int) -> int:
    """integrate the deformation-map form and report body momentum"""
    b = p["b"]
    tol = p["tolerances"]["body_momentum_drift"]
    digest = config_digest(cfg)
    newest = first = worst = None  # the newest state, the first body momentum, its largest change

    def take(m) -> None:
        nonlocal first, worst
        first = m if first is None else first
        gap = float(np.max(np.abs(m.values - first.values)))
        worst = gap if worst is None else max(worst, gap)

    def record(t: float, phi, phi_t) -> None:
        # Only the newest state is kept; its momentum is taken once the next step has inverted its map.
        nonlocal newest
        if newest is not None:
            take(body_momentum(newest))
        newest = GeodesicState(t, phi, phi_t)

    try:
        traj = geodesic_integrate(p["initial_condition"], b, p["t_end"], p["dt"],
                                  record_stride=p["record_stride"], det_floor=p["det_floor"], state=record)
        u_final = eulerian_velocity(newest)  # the final map's first inversion
    except RunAbort as err:
        write_diffeo_csv(out / "diffeo_final.csv", newest.phi, digest)
        _write_aborted(out / "geodesic.json", err, digest, b=b, dt=cfg["dt"], recorded_until=newest.t)
        raise
    take(coadjoint(newest.phi, helmholtz(u_final)))  # the final momentum reuses u_final
    drift = worst / max(first.sup_norm(), DRIFT_FLOOR)
    write_diffeo_csv(out / "diffeo_final.csv", newest.phi, digest)
    if p["snapshots"]:
        write_field_csv(out / "velocity_final.csv", u_final, digest)
    write_json(out / "geodesic.json", {
        "aborted": False,
        "b": b,
        "dt": cfg["dt"],
        "t_end": cfg["t_end"],
        "states_recorded": len(traj.times),
        "body_momentum_drift": drift,
        "final_velocity_sup": u_final.sup_norm(),
    }, digest)
    if tol is not None and drift > tol:
        return _gate_failed(f"body momentum drift {drift:.3g} > {tol:g}")
    return EXIT_OK


# --------------------------------------------------------------------------
# curvature


def _curvature_case(grid, i: int, j1: int, j2: int) -> dict:
    rep = sectional_formula(basis_field(grid, i), mode_field(grid, j1, j2))
    return {
        "k1": TWO_PI * j1, "k2": TWO_PI * j2, "i": i,
        "S_formula": rep.s_formula,
        "S_direct": rep.s_direct,
        "S_closed_form": closed_form_S(i, j1, j2),
        "gamma_terms": rep.gamma_terms,
        "r_term": rep.r_term,
    }


def _sweep(task, items: list, threads: int) -> list:
    """[task(item) for item in items] on the calling thread and at most threads - 1 workers.

    The caller runs the first item alone, so one thread makes the run's first
    solver call (the call bench/launch.py's setup probe stamps before it exits).
    Then all take items in order from one locked queue, each worker started
    with its first item in hand, so none starts idle.  After an item raises,
    none takes another, and once every worker has stopped the earliest item's
    error is raised: the one a serial loop would meet first.
    """
    if not items:
        return []
    results, errors = [task(items[0])] + [None] * (len(items) - 1), {}
    queue, lock = iter(enumerate(items[1:], 1)), threading.Lock()

    def take():
        with lock:
            return None if errors else next(queue, None)

    def work(job) -> None:
        while job is not None:
            k, item = job
            try:
                results[k] = task(item)
            except BaseException as err:
                with lock:
                    errors[k] = err
            job = take()

    own, workers = take(), []
    try:
        for _ in range(threads - 1):
            job = take()
            if job is None:
                break
            worker = threading.Thread(target=work, args=(job,))
            worker.start()
            workers.append(worker)
        work(own)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[min(errors)]
    return results


def _cmd_curvature(p: dict, cfg: dict, out: Path, threads: int) -> int:
    """sweep closed-form curvature planes through both routes"""
    k_range = p["k_range"]
    tol = p["tolerances"]["two_route"]
    digest = config_digest(cfg)
    cases = [(i, j1, j2) for i in p["basis"] for j1 in k_range for j2 in k_range]
    rows = _sweep(lambda c: _curvature_case(p["grid"], *c), cases, threads)
    write_curvature_csv(out / "curvature.csv", rows, digest)
    max_gap = max((abs(r["S_formula"] - r["S_direct"]) for r in rows), default=0.0)
    summary = {
        "rows": len(rows),
        "max_disagreement": max_gap,
        "min_S": min((r["S_formula"] for r in rows), default=None),
    }
    write_json(out / "curvature_summary.json", summary, digest)
    if tol is not None and max_gap > tol:
        return _gate_failed(f"two-route disagreement {max_gap:.3g} > {tol:g}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify


def _cmd_verify(p: dict, cfg: dict, out: Path, threads: int) -> int:
    """run the identity and uniqueness residual suites"""
    from .uniqueness import verify_theorem

    tol, b_list, n = p["tolerances"], p["b_list"], p["identity_samples"]
    digest = config_digest(cfg)

    report = verify_theorem(b_list, p["mode_list"], p["grid"], tol["uniqueness_zero"])
    rows = [dict(row, expected_fail=row["b"] != 2.0) for row in report.rows]

    def sample(offset):
        return random_bandlimited(p["grid"], seed=p["seed"] + offset, kmax=p["kmax"],
                                  amplitude=p["amplitude"])

    commuting = [
        check_commuting_identity(sample(3 * k), sample(3 * k + 1)) for k in range(n)
    ]
    metric = [
        check_metric_compatibility(sample(100 + 3 * k), sample(101 + 3 * k), sample(102 + 3 * k), 2.0)
        for k in range(n)
    ]
    control = check_metric_compatibility(sample(500), sample(501), sample(502), 3.0)

    gates = {
        "commuting_identity": max(commuting, default=0.0) <= tol["identity"],
        "metric_compatibility": max(metric, default=0.0) <= tol["identity"],
        "metric_negative_control": control > tol["uniqueness_nonzero"],
    }
    if 2.0 in b_list:
        gates["uniqueness_b2"] = 2.0 in report.consistent_b
    for b in b_list:
        if b != 2.0:
            worst = max(
                max(r["gl3_residual"], r["gl1_residual"])
                for r in rows if r["b"] == b
            )
            gates[f"uniqueness_negative_control_b{b:g}"] = worst > tol["uniqueness_nonzero"]
    ok = all(gates.values())
    write_json(out / "verification.json", {
        "rows": rows,
        "commuting_residuals": commuting,
        "metric_residuals": metric,
        "metric_control_residual": control,
        "consistent_b": list(report.consistent_b),
        "gates": gates,
        "pass": ok,
    }, digest)
    if not ok:
        return _gate_failed(", ".join(name for name, good in gates.items() if not good))
    return EXIT_OK


# --------------------------------------------------------------------------
# reduce1d


def _lift(grid, profile: np.ndarray) -> np.ndarray:
    return np.tile(profile[:, None], (1, grid.ny))


def _cmd_reduce1d(p: dict, cfg: dict, out: Path, threads: int) -> int:
    """check the y-independent 1D and two-component reductions"""
    grid, dt, t_end, tol = p["grid"], p["dt"], p["t_end"], p["tolerances"]
    digest = config_digest(cfg)
    g0 = profile_1d(p["n"], p["seed"], p["kmax"], p["amplitude"])
    w0 = profile_1d(p["n"], p["seed"] + 1, p["kmax"], p["amplitude"])

    rows = []
    n_steps = _step_count(t_end, dt)
    u0 = VectorField.from_values(grid, _lift(grid, g0), np.zeros(grid.shape))
    u_embed = VectorField.from_values(grid, _lift(grid, g0), _lift(grid, w0))

    def mch2_gap(t: float, u) -> float:  # planar momentum rate against the coupled 1D system's
        # Both rates start from the same samples: a state's spectrum and the
        # transform of its samples differ by roundoff that m_t's third
        # derivatives would amplify.
        samples = u.values
        v, w = samples[:, :, 0]
        q_t, rho_t = mch2_rhs(v, helmholtz_1d(w))
        m_t = helmholtz(euler_rhs(Field(grid, samples), 2.0)).values[:, :, 0]
        return float(np.max(np.abs(m_t - np.stack([q_t, rho_t]))))

    try:
        for b in p["b_list"]:
            traj = integrate(u0, b, t_end, dt, record_stride=max(1, n_steps),
                             state=lambda t, u: u.values[0, :, 0])
            final_1d = integrate_1d(g0, b, t_end, dt)
            gap = float(np.max(np.abs(traj.final - final_1d)))
            rows.append({"b": b, "reduction_residual": gap, "pass": gap <= tol["reduction"]})
        traj = integrate(u_embed, 2.0, p["mch2_steps"] * dt, dt, record_stride=1, state=mch2_gap)
    except RunAbort as err:
        _write_aborted(out / "reduction.json", err, digest, rows=rows)
        raise
    mch2_worst = max((0.0, *traj.states))
    mch2_ok = mch2_worst <= tol["mch2"]
    all_ok = mch2_ok and all(row["pass"] for row in rows)

    write_json(out / "reduction.json", {
        "rows": rows,
        "mch2_residual": mch2_worst,
        "mch2_pass": mch2_ok,
        "pass": all_ok,
    }, digest)
    if not all_ok:
        return _gate_failed("1D reduction residuals")
    return EXIT_OK


# --------------------------------------------------------------------------
# Dispatch.


COMMANDS = {
    "simulate": (_cmd_simulate, SIMULATE, _march_rules),
    "geodesic": (_cmd_geodesic, GEODESIC, _march_rules),
    "curvature": (_cmd_curvature, CURVATURE, _curvature_rules),
    "verify": (_cmd_verify, VERIFY, _verify_rules),
    "reduce1d": (_cmd_reduce1d, REDUCE1D, _reduce1d_rules),
}


class _Parser(argparse.ArgumentParser):
    # Usage problems are config errors here, not the default exit(2).
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="torusflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, _, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=handler.__doc__)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config's random seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="threads that compute the curvature sweep, the caller among them; "
                             "the run's only parallelism")
    return parser


def entry(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, schema, rules = COMMANDS[args.command]
        threads = _int(minimum=1)(args.threads, "--threads")
        params, cfg = _parse(schema, rules, _load_config(args.config), args.seed)
        out = Path(args.out)
        try:  # now, so an unusable --out costs no compute
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {out}: {err}") from None
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return handler(params, cfg, out, threads)
    except RunAbort as err:
        print(f"runtime abort: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(entry())
