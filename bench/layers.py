"""Per-layer metrics from the spans of one traced run.

A span is (id, parent, name, thread, t0, t1, cpu, amount), as
bench/launch.py writes them.  Self time is a span's duration minus that of its direct
children; a total counts only spans with no ancestor of the same name, so
recursion or nesting is not counted twice.
"""

from __future__ import annotations

from collections import defaultdict

COUNTS = {
    "fft.calls": ("fft", "calls"),
    "fft.elements": ("fft", "amount"),
    "spectral.pointwise_product.calls": ("spectral.pointwise_product", "calls"),
    "spectral.eval_spectra.calls": ("spectral.eval_spectra", "calls"),
    "spectral.eval_spectra.points": ("spectral.eval_spectra", "amount"),
    "dynamics.euler_rhs.calls": ("dynamics.euler_rhs", "calls"),
    "dynamics.christoffel.calls": ("dynamics.christoffel", "calls"),
    "flow.invert.calls": ("flow.invert", "calls"),
    "flow.compose_field.calls": ("flow.compose_field", "calls"),
    "reports.write.bytes": ("reports.write", "amount"),
}

TIMES = {
    "fft.self_s": ("fft", "self"),
    "spectral.pointwise_product.self_s": ("spectral.pointwise_product", "self"),
    "spectral.eval_spectra.self_s": ("spectral.eval_spectra", "self"),
    "dynamics.euler_rhs.total_s": ("dynamics.euler_rhs", "total"),
    "dynamics.christoffel.total_s": ("dynamics.christoffel", "total"),
    "flow.invert.total_s": ("flow.invert", "total"),
    "flow.compose_field.total_s": ("flow.compose_field", "total"),
    "flow.body_momentum.total_s": ("flow.body_momentum", "total"),
    "curvature.gamma_terms.total_s": ("curvature.gamma_terms", "total"),
    "curvature.r_term.total_s": ("curvature.r_term", "total"),
    "curvature.sectional_direct.total_s": ("curvature.sectional_direct", "total"),
    "curvature.sectional_formula.busy_s": ("curvature.sectional_formula", "cpu"),
    "reports.write.total_s": ("reports.write", "total"),
}

# Metric name -> unit, in the order they are reported.
UNITS = {
    **{name: "B" if name.endswith(".bytes") else "count" for name in COUNTS},
    **{name: "s" for name in TIMES},
    "dynamics.step_ms": "ms",
    "flow.invert.iterations": "count",
    "flow.step_ms": "ms",
    "cli.threads.efficiency": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list, steps: int, threads: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one run's spans."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[5] - s[4]

    def ancestors(s):
        while s[1] >= 0:
            s = by_id[s[1]]
            yield s

    agg = defaultdict(lambda: {"calls": 0, "amount": 0, "self": 0.0, "total": 0.0, "cpu": 0.0})
    invert_iterations = 0
    for s in spans:
        sid, _, name, _, t0, t1, cpu, amount = s
        a = agg[name]
        a["calls"] += 1
        a["amount"] += amount
        a["cpu"] += cpu
        a["self"] += (t1 - t0) - child_time[sid]
        above = [p[2] for p in ancestors(s)]
        if name not in above:
            a["total"] += t1 - t0
        if name == "spectral.eval_spectra" and "flow.invert" in above:
            invert_iterations += 1

    out = {metric: agg[name][kind] for metric, (name, kind) in {**COUNTS, **TIMES}.items()}
    out["dynamics.step_ms"] = 1e3 * agg["dynamics.integrate"]["total"] / steps if steps else 0.0
    out["flow.step_ms"] = 1e3 * agg["flow.geodesic_integrate"]["total"] / steps if steps else 0.0
    out["flow.invert.iterations"] = invert_iterations
    planes = [s for s in spans if s[2] == "curvature.sectional_formula"]
    if planes:
        pool_wall = max(s[5] for s in planes) - min(s[4] for s in planes)
        out["cli.threads.efficiency"] = out["curvature.sectional_formula.busy_s"] / (pool_wall * threads)
    else:
        out["cli.threads.efficiency"] = 0.0
    return out
