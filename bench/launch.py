"""Child-process side of the benchmark: runs the torusflow CLI in one of two
instrumented modes.

    python3 bench/launch.py setup -- <cli args>
        Runs the CLI until its first call into a solver entry point, prints
        ``solve-start <time.monotonic()>`` and exits at once with code 0.

    python3 bench/launch.py trace SPANS -- <cli args>
        Wraps the public functions of every layer and numpy.fft's transforms,
        runs the CLI to its end, writes the spans to SPANS as JSON and exits
        with the CLI's exit code.

Untraced end-to-end runs do not come through here; they call the console
entry point ``torusflow.cli:entry`` directly.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

# Calls that begin the numerical work of each subcommand.
SOLVERS = {
    "torusflow.dynamics": ("integrate",),
    "torusflow.flow": ("geodesic_integrate",),
    "torusflow.curvature": ("sectional_formula",),
}

# Public functions wrapped in the traced run, by defining module.  A span is
# named "<layer>.<function>", the layer being the module's last name part.
TRACED = {
    "torusflow.spectral": ("pointwise_product", "eval_spectra"),
    "torusflow.dynamics": ("euler_rhs", "christoffel", "integrate"),
    "torusflow.flow": ("invert", "compose_field", "body_momentum", "geodesic_integrate"),
    "torusflow.curvature": ("gamma_terms", "r_term", "sectional_direct", "sectional_formula"),
    "torusflow.reports": ("write_csv", "write_json"),
}

FFT_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _amount(name: str, args, kwargs) -> int:
    """Work done by one call, in the unit its layer is counted in."""
    if name == "fft":
        return int(getattr(args[0], "size", 0))
    if name == "spectral.eval_spectra":
        xs = args[2] if len(args) > 2 else kwargs["xs"]
        return int(getattr(xs, "size", 0))
    if name == "reports.write":
        path = args[0] if args else kwargs["path"]
        return os.path.getsize(path) if os.path.exists(path) else 0
    return 0


class Tracer:
    """In-memory span recorder.

    A span is (id, parent, name, thread, t0, t1, cpu, amount): wall-clock
    start and end, the calling thread's CPU seconds inside the call (time
    spent waiting for the interpreter lock is not counted) and the work done.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(),
                                   t0, t1, c1 - c0, _amount(name, args, kwargs)))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _replace_everywhere(original, wrapper) -> None:
    """Put wrapper in every torusflow module namespace that holds original."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "torusflow" or modname.startswith("torusflow.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _install(targets: dict, make_wrapper) -> None:
    for modname, names in targets.items():
        module = sys.modules[modname]
        layer = modname.rsplit(".", 1)[-1]
        for name in names:
            original = getattr(module, name)
            _replace_everywhere(original, make_wrapper(f"{layer}.{name}", original))


def install_tracer(tracer: Tracer) -> None:
    import numpy.fft

    def span_name(name):
        return "reports.write" if name.startswith("reports.") else name

    _install(TRACED, lambda name, fn: tracer.wrap(span_name(name), fn))
    for name in FFT_TRANSFORMS:
        original = getattr(numpy.fft, name)
        wrapper = tracer.wrap("fft", original)
        setattr(numpy.fft, name, wrapper)
        _replace_everywhere(original, wrapper)


def install_solve_stamp() -> None:
    def make(_name, fn):
        @functools.wraps(fn)
        def stamp(*args, **kwargs):
            print(f"solve-start {time.monotonic()!r}", flush=True)
            os._exit(0)

        return stamp

    _install(SOLVERS, make)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 64
    split = argv.index("--")
    mode, cli_args = argv[:split], argv[split + 1:]
    import torusflow.cli as cli

    if mode == ["setup"]:
        install_solve_stamp()
        code = cli.entry(cli_args)
        print("the CLI returned before reaching a solver", file=sys.stderr)
        return code or 65
    if len(mode) == 2 and mode[0] == "trace":
        tracer = Tracer()
        install_tracer(tracer)
        code = cli.entry(cli_args)
        tracer.dump(mode[1])
        return code
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
