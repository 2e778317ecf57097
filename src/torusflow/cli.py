"""Batch front door: validated JSON configs in, plot-ready CSV/JSON out.

Subcommands: simulate, geodesic, curvature, verify, reduce1d.
Exit codes: 0 pass, 1 config error, 2 runtime abort (blow-up or loss of
invertibility, partial outputs retained where possible), 3 a tolerance gate
failed.  Identical config and seed give byte-identical outputs; unknown
config keys are rejected rather than ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .curvature import basis_field, closed_form_S, mode_field, sectional_formula
from .dynamics import (
    BlowupError,
    check_commuting_identity,
    check_metric_compatibility,
    conservation_report,
    euler_rhs,
    helmholtz_1d,
    integrate,
    integrate_1d,
    mch2_rhs,
)
from .flow import (
    InversionError,
    OrientationError,
    body_momentum,
    eulerian_velocity,
    geodesic_integrate,
    invert,
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
    VectorField,
    cosine_mode,
    helmholtz,
    make_grid,
    random_bandlimited,
)
from .uniqueness import verify_theorem

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_TOLERANCE = 3

# Unit direction of each initial-condition mode component.
MODE_DIRECTIONS = {"u1": (1.0, 0.0), "u2": (0.0, 1.0), "both": (1.0, 1.0)}


class ConfigError(Exception):
    """Rejected configuration; reported once, exit code 1."""


# --------------------------------------------------------------------------
# Configuration plumbing.


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed JSON in {path}: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _int(value, name: str, minimum: int | None = None) -> int:
    """A config integer: ints and integral floats pass, bools, strings and fractions do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, not {value!r}")
    return int(value)


def _float(value, name: str) -> float:
    """A finite config number; bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def _tolerances(cfg: dict, required: bool = False) -> dict:
    """The config's tolerance gates as floats; None switches a gate off unless required."""
    return {name: None if value is None and not required else _float(value, f"tolerances.{name}")
            for name, value in cfg["tolerances"].items()}


def _merge(defaults: dict, supplied: dict, context: str = "") -> dict:
    unknown = sorted(set(supplied) - set(defaults))
    if unknown:
        where = f" in {context}" if context else ""
        raise ConfigError(f"unknown config key(s){where}: {', '.join(unknown)}")
    out = {}
    for key, default in defaults.items():
        if key not in supplied:
            out[key] = json.loads(json.dumps(default))  # deep copy via JSON
            continue
        value = supplied[key]
        if isinstance(default, dict) and key != "initial_condition":
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            out[key] = _merge(default, value, context=key)
        else:
            out[key] = value
    return out


def _normalize_ic(spec, seed_override) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError("initial_condition must be an object")
    kind = spec.get("type")
    if kind == "random":
        unknown = sorted(set(spec) - {"type", "seed", "kmax", "amplitude"})
        if unknown:
            raise ConfigError(f"unknown initial_condition key(s): {', '.join(unknown)}")
        out = {
            "type": "random",
            "seed": _int(spec.get("seed", 0), "initial_condition.seed"),
            "kmax": _int(spec.get("kmax", 2), "initial_condition.kmax", minimum=0),
            "amplitude": _float(spec.get("amplitude", 0.02), "initial_condition.amplitude"),
        }
        if seed_override is not None:
            out["seed"] = int(seed_override)
        return out
    if kind == "modes":
        unknown = sorted(set(spec) - {"type", "modes"})
        if unknown:
            raise ConfigError(f"unknown initial_condition key(s): {', '.join(unknown)}")
        modes = spec.get("modes")
        if not isinstance(modes, list) or not modes:
            raise ConfigError("initial_condition.modes must be a non-empty list")
        normalized = []
        for entry in modes:
            if not isinstance(entry, dict):
                raise ConfigError("each mode must be an object")
            unknown = sorted(set(entry) - {"j1", "j2", "amplitude", "component"})
            if unknown:
                raise ConfigError(f"unknown mode key(s): {', '.join(unknown)}")
            component = entry.get("component", "both")
            if component not in MODE_DIRECTIONS:
                raise ConfigError(f"mode component must be u1, u2, or both, not {component!r}")
            normalized.append({
                "j1": _int(entry.get("j1", 0), "mode j1"),
                "j2": _int(entry.get("j2", 0), "mode j2"),
                "amplitude": _float(entry.get("amplitude", 0.0), "mode amplitude"),
                "component": component,
            })
        return {"type": "modes", "modes": normalized}
    raise ConfigError(f"unknown initial_condition type {kind!r}")


def _build_initial(grid, ic: dict):
    if ic["type"] == "random":
        return random_bandlimited(
            grid, seed=ic["seed"], kmax=ic["kmax"], amplitude=ic["amplitude"]
        )
    u = VectorField.zero(grid)
    for mode in ic["modes"]:
        u = u + cosine_mode(grid, mode["j1"], mode["j2"], mode["amplitude"],
                            MODE_DIRECTIONS[mode["component"]])
    return u


def _grid_from(cfg):
    spec = cfg["grid"]
    if (not isinstance(spec, (list, tuple))) or len(spec) != 2:
        raise ConfigError("grid must be [nx, ny]")
    return make_grid(_int(spec[0], "grid"), _int(spec[1], "grid"))


def _pad_factor(cfg) -> int:
    return _int(cfg["pad_factor"], "pad_factor", minimum=1)


def _bandlimited_profile(n: int, seed: int, kmax: int, amplitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    vals = np.zeros(n)
    for j in range(1, kmax + 1):
        a, b = rng.standard_normal(2)
        vals += a * np.cos(TWO_PI * j * x) + b * np.sin(TWO_PI * j * x)
    sup = np.max(np.abs(vals))
    if sup == 0.0:
        return vals
    return amplitude / sup * vals


# --------------------------------------------------------------------------
# simulate


SIMULATE_DEFAULTS = {
    "grid": [32, 32],
    "b": 2.0,
    "initial_condition": {"type": "random", "seed": 0, "kmax": 2, "amplitude": 0.02},
    "dt": 1e-3,
    "t_end": 0.1,
    "record_stride": 1,
    "pad_factor": 2,
    "blowup_factor": 1e3,
    "snapshots": False,
    "tolerances": {"hamiltonian_drift": None},
}


def _cmd_simulate(cfg: dict, out: Path, threads: int) -> int:
    grid = _grid_from(cfg)
    b = _float(cfg["b"], "b")
    t_end, dt = _float(cfg["t_end"], "t_end"), _float(cfg["dt"], "dt")
    stride = _int(cfg["record_stride"], "record_stride", minimum=1)
    blowup_factor = _float(cfg["blowup_factor"], "blowup_factor")
    pad = _pad_factor(cfg)
    tol = _tolerances(cfg)["hamiltonian_drift"]
    u0 = _build_initial(grid, cfg["initial_condition"])
    digest = config_digest(cfg)
    if cfg["snapshots"]:
        write_field_csv(out / "field_initial.csv", u0, digest)
    try:
        traj = integrate(u0, b, t_end, dt, record_stride=stride,
                         blowup_factor=blowup_factor, pad_factor=pad)
    except BlowupError as err:
        report = conservation_report(err.partial)
        write_trajectory_csv(out / "trajectory.csv", report, digest)
        write_json(out / "conservation.json", {
            "aborted": True,
            "diagnostic": str(err),
            "b": b,
            "dt": cfg["dt"],
            "recorded_until": report.times[-1],
        }, digest)
        print(f"runtime abort: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    report = conservation_report(traj)
    write_trajectory_csv(out / "trajectory.csv", report, digest)
    write_json(out / "conservation.json", {
        "aborted": False,
        "b": b,
        "dt": cfg["dt"],
        "t_end": cfg["t_end"],
        "hamiltonian_drift": report.hamiltonian_drift,
        "h1_drift": report.h1_drift,
        "final_sup_u": traj.final.u.sup_norm(),
    }, digest)
    if cfg["snapshots"]:
        write_field_csv(out / "field_final.csv", traj.final.u, digest)
    if tol is not None and report.hamiltonian_drift > tol:
        print(
            f"tolerance gate failed: hamiltonian drift {report.hamiltonian_drift:.3g} > {tol:g}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


# --------------------------------------------------------------------------
# geodesic


GEODESIC_DEFAULTS = {
    "grid": [32, 32],
    "b": 2.0,
    "initial_condition": {"type": "random", "seed": 0, "kmax": 2, "amplitude": 0.02},
    "dt": 5e-3,
    "t_end": 0.2,
    "record_stride": 1,
    "pad_factor": 2,
    "det_floor": 1e-3,
    "snapshots": False,
    "tolerances": {"body_momentum_drift": None},
}


def _cmd_geodesic(cfg: dict, out: Path, threads: int) -> int:
    grid = _grid_from(cfg)
    b = _float(cfg["b"], "b")
    t_end, dt = _float(cfg["t_end"], "t_end"), _float(cfg["dt"], "dt")
    stride = _int(cfg["record_stride"], "record_stride", minimum=1)
    det_floor = _float(cfg["det_floor"], "det_floor")
    pad = _pad_factor(cfg)
    tol = _tolerances(cfg)["body_momentum_drift"]
    u0 = _build_initial(grid, cfg["initial_condition"])
    digest = config_digest(cfg)
    try:
        traj = geodesic_integrate(u0, b, t_end, dt, record_stride=stride,
                                  det_floor=det_floor, pad_factor=pad)
    except (BlowupError, InversionError, OrientationError) as err:
        last = err.partial.final
        write_diffeo_csv(out / "diffeo_final.csv", last.phi, digest)
        write_json(out / "geodesic.json", {
            "aborted": True,
            "diagnostic": str(err),
            "b": b,
            "dt": cfg["dt"],
            "recorded_until": last.t,
        }, digest)
        print(f"runtime abort: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    # One inversion per recorded state, warm started from the previous
    # state's inverse shifted by minus the change in displacement (the
    # inverse of z + d is about z - d); the first inverse serves the
    # reference state, the last the velocity readback.
    psi, prev = None, None
    momenta = []
    for state in traj.states:
        d = state.phi.displacement
        psi = invert(state.phi, initial=None if psi is None else psi.displacement - (d - prev))
        prev = d
        momenta.append(body_momentum(state, psi).m0)
    ref_sup = max(momenta[0].sup_norm(), 1e-14)
    drift = max((m - momenta[0]).sup_norm() / ref_sup for m in momenta)
    final = traj.final
    u_final = eulerian_velocity(final, psi)
    write_diffeo_csv(out / "diffeo_final.csv", final.phi, digest)
    if cfg["snapshots"]:
        write_field_csv(out / "velocity_final.csv", u_final, digest)
    write_json(out / "geodesic.json", {
        "aborted": False,
        "b": b,
        "dt": cfg["dt"],
        "t_end": cfg["t_end"],
        "states_recorded": len(traj.states),
        "body_momentum_drift": drift,
        "final_velocity_sup": u_final.sup_norm(),
    }, digest)
    if tol is not None and drift > tol:
        print(
            f"tolerance gate failed: body momentum drift {drift:.3g} > {tol:g}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


# --------------------------------------------------------------------------
# curvature


CURVATURE_DEFAULTS = {
    "grid": [64, 64],
    "k_range": [1, 2, 3],
    "basis": [1],
    "pairing": "metric",
    "pad_factor": 2,
    "tolerances": {"two_route": 1e-7},
}


def _curvature_case(grid, i: int, j1: int, j2: int, pairing: str, pad_factor: int) -> dict:
    k1, k2 = TWO_PI * j1, TWO_PI * j2
    rep = sectional_formula(basis_field(grid, i), mode_field(grid, k1, k2),
                            pairing=pairing, pad_factor=pad_factor)
    return {
        "k1": k1, "k2": k2, "i": i,
        "S_formula": rep.s_formula,
        "S_direct": rep.s_direct,
        "S_closed_form": closed_form_S(i, k1, k2),
        "gamma_terms": rep.gamma_terms,
        "r_term": rep.r_term,
    }


def _cmd_curvature(cfg: dict, out: Path, threads: int) -> int:
    grid = _grid_from(cfg)
    k_range = [_int(j, "k_range") for j in cfg["k_range"]]
    basis = [_int(i, "basis") for i in cfg["basis"]]
    pad = _pad_factor(cfg)
    tol = _tolerances(cfg)["two_route"]
    if any(i not in (1, 2) for i in basis):
        raise ConfigError("basis entries must be 1 or 2")
    if any(j < 1 or j >= min(grid.nx, grid.ny) // 2 for j in k_range):
        raise ConfigError("k_range entries must sit inside the grid's resolvable band")
    digest = config_digest(cfg)
    cases = [(i, j1, j2) for i in basis for j1 in k_range for j2 in k_range]
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        rows = list(pool.map(
            lambda c: _curvature_case(grid, *c, cfg["pairing"], pad),
            cases,
        ))
    write_curvature_csv(out / "curvature.csv", rows, digest)
    max_gap = max((abs(r["S_formula"] - r["S_direct"]) for r in rows), default=0.0)
    summary = {
        "rows": len(rows),
        "max_disagreement": max_gap,
        "min_S": min((r["S_formula"] for r in rows), default=None),
    }
    write_json(out / "curvature_summary.json", summary, digest)
    if tol is not None and max_gap > tol:
        print(
            f"tolerance gate failed: two-route disagreement {max_gap:.3g} > {tol:g}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


# --------------------------------------------------------------------------
# verify


VERIFY_DEFAULTS = {
    "grid": [32, 32],
    "b_list": [2.0, 3.0, 4.0],
    "mode_list": [[1, 0], [0, 1], [1, 1], [2, 1]],
    "identity_samples": 5,
    "kmax": 3,
    "amplitude": 0.5,
    "seed": 0,
    "pad_factor": 2,
    "tolerances": {
        "identity": 1e-10,
        "uniqueness_zero": 1e-11,
        "uniqueness_nonzero": 1e-3,
    },
}


def _cmd_verify(cfg: dict, out: Path, threads: int) -> int:
    grid = _grid_from(cfg)
    pad = _pad_factor(cfg)
    tol = _tolerances(cfg, required=True)
    b_list = [_float(b, "b_list") for b in cfg["b_list"]]
    mode_list = [tuple(_int(v, "mode_list") for v in m) for m in cfg["mode_list"]]
    seed = _int(cfg["seed"], "seed")
    n = _int(cfg["identity_samples"], "identity_samples", minimum=0)
    kmax = _int(cfg["kmax"], "kmax", minimum=0)
    amp = _float(cfg["amplitude"], "amplitude")
    digest = config_digest(cfg)

    report = verify_theorem(b_list, mode_list, tolerance=tol["uniqueness_zero"])
    rows = []
    for row in report.as_rows():
        row["expected_fail"] = row["b"] != 2.0
        rows.append(row)

    def sample(offset):
        return random_bandlimited(grid, seed=seed + offset, kmax=kmax, amplitude=amp)

    commuting = [
        check_commuting_identity(sample(3 * k), sample(3 * k + 1), pad)
        for k in range(n)
    ]
    metric = [
        check_metric_compatibility(
            sample(100 + 3 * k), sample(101 + 3 * k), sample(102 + 3 * k), 2.0, pad
        )
        for k in range(n)
    ]
    control = check_metric_compatibility(
        sample(500), sample(501), sample(502), 3.0, pad
    )

    gates = {
        "commuting_identity": max(commuting, default=0.0) <= tol["identity"],
        "metric_compatibility": max(metric, default=0.0) <= tol["identity"],
        "metric_negative_control": control > tol["uniqueness_nonzero"],
    }
    if 2.0 in b_list:
        gates["uniqueness_b2"] = report.passes_for(2.0)
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
        failed = ", ".join(name for name, good in gates.items() if not good)
        print(f"tolerance gate failed: {failed}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# --------------------------------------------------------------------------
# reduce1d


REDUCE1D_DEFAULTS = {
    "n": 64,
    "ny": 8,
    "b_list": [2.0, 3.0],
    "dt": 1e-3,
    "t_end": 0.05,
    "mch2_steps": 5,
    "seed": 0,
    "kmax": 3,
    "amplitude": 0.1,
    "pad_factor": 2,
    "tolerances": {"reduction": 1e-9, "mch2": 1e-10},
}


def _lift(grid, profile: np.ndarray) -> np.ndarray:
    return np.tile(profile[:, None], (1, grid.ny))


def _cmd_reduce1d(cfg: dict, out: Path, threads: int) -> int:
    n, ny = _int(cfg["n"], "n"), _int(cfg["ny"], "ny")
    grid = make_grid(n, ny)
    pad = _pad_factor(cfg)
    dt, t_end = _float(cfg["dt"], "dt"), _float(cfg["t_end"], "t_end")
    seed = _int(cfg["seed"], "seed")
    kmax = _int(cfg["kmax"], "kmax", minimum=0)
    amp = _float(cfg["amplitude"], "amplitude")
    b_list = [_float(b, "b_list") for b in cfg["b_list"]]
    steps = _int(cfg["mch2_steps"], "mch2_steps", minimum=0)
    tol = _tolerances(cfg, required=True)
    digest = config_digest(cfg)
    g0 = _bandlimited_profile(n, seed, kmax, amp)
    w0 = _bandlimited_profile(n, seed + 1, kmax, amp)

    rows = []
    all_ok = True
    n_steps = int(round(t_end / dt))
    u0 = VectorField.from_values(grid, _lift(grid, g0), np.zeros(grid.shape))
    for b in b_list:
        traj = integrate(u0, b, t_end, dt, record_stride=max(1, n_steps), pad_factor=pad)
        final_1d = integrate_1d(g0, b, t_end, dt, pad_factor=pad)
        gap = float(np.max(np.abs(traj.final.u.values[0, :, 0] - final_1d)))
        row_ok = gap <= tol["reduction"]
        rows.append({"b": b, "reduction_residual": gap, "pass": row_ok})
        all_ok = all_ok and row_ok

    # y-independent two-component embedding: compare planar momentum rates
    # against the coupled 1D system along a short b = 2 run.
    u_embed = VectorField.from_values(grid, _lift(grid, g0), _lift(grid, w0))
    traj = integrate(u_embed, 2.0, steps * dt, dt, record_stride=1, pad_factor=pad)
    mch2_worst = 0.0
    for state in traj.states:
        v, w = state.u.values[:, :, 0]
        q_t, rho_t = mch2_rhs(v, helmholtz_1d(w), pad_factor=pad)
        m_t = helmholtz(euler_rhs(state.u, 2.0, pad)).values[:, :, 0]
        gap = float(np.max(np.abs(m_t - np.stack([q_t, rho_t]))))
        mch2_worst = max(mch2_worst, gap)
    mch2_ok = mch2_worst <= tol["mch2"]
    all_ok = all_ok and mch2_ok

    write_json(out / "reduction.json", {
        "rows": rows,
        "mch2_residual": mch2_worst,
        "mch2_pass": mch2_ok,
        "pass": all_ok,
    }, digest)
    if not all_ok:
        print("tolerance gate failed: 1D reduction residuals", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# --------------------------------------------------------------------------
# Dispatch.


COMMANDS = {
    "simulate": (_cmd_simulate, SIMULATE_DEFAULTS),
    "geodesic": (_cmd_geodesic, GEODESIC_DEFAULTS),
    "curvature": (_cmd_curvature, CURVATURE_DEFAULTS),
    "verify": (_cmd_verify, VERIFY_DEFAULTS),
    "reduce1d": (_cmd_reduce1d, REDUCE1D_DEFAULTS),
}


class _Parser(argparse.ArgumentParser):
    # Usage problems are config errors here, not the default exit(2).
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="torusflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "simulate": "integrate the momentum equation and report conservation",
        "geodesic": "integrate the deformation-map form and report body momentum",
        "curvature": "sweep closed-form curvature planes through both routes",
        "verify": "run the identity and uniqueness residual suites",
        "reduce1d": "check the y-independent 1D and two-component reductions",
    }
    for name, line in help_lines.items():
        sp = sub.add_parser(name, help=line)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config's random seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweeps")
    return parser


def entry(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        raw = _load_config(args.config)
        handler, defaults = COMMANDS[args.command]
        cfg = _merge(defaults, raw)
        if "initial_condition" in defaults:
            cfg["initial_condition"] = _normalize_ic(cfg["initial_condition"], args.seed)
        elif args.seed is not None and "seed" in defaults:
            cfg["seed"] = int(args.seed)
        return handler(cfg, Path(args.out), int(args.threads))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowupError, InversionError, OrientationError) as err:
        print(f"runtime abort: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(entry())
