"""The benchmark's instrumented runs find every function they wrap by name.

bench/launch.py replaces the functions named in its TRACED and SOLVERS
tables on their modules; a rename there would silently drop a span or the
setup stamp, so the names are checked here against the package itself.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parents[1] / "bench" / "launch.py"


def load_launch():
    spec = importlib.util.spec_from_file_location("bench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = load_launch()
WRAPPED = sorted({(mod, name) for table in (launch.TRACED, launch.SOLVERS)
                  for mod, names in table.items() for name in names})


@pytest.mark.parametrize("modname,name", WRAPPED)
def test_wrapped_name_is_a_module_function(modname, name):
    module = importlib.import_module(modname)
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == modname


def test_counted_arguments_keep_their_positions():
    spectral = importlib.import_module("torusflow.spectral")
    reports = importlib.import_module("torusflow.reports")
    assert list(inspect.signature(spectral.eval_spectra).parameters)[2] == "xs"
    for fn in (reports.write_csv, reports.write_json):
        assert list(inspect.signature(fn).parameters)[0] == "path"


def test_geodesic_check_imports_resolve():
    torusflow = importlib.import_module("torusflow")
    for name in ("DiffeoMap", "VectorField", "coadjoint", "helmholtz", "integrate", "make_grid"):
        assert hasattr(torusflow, name), name


# The modules that declare __all__.  One name per object keeps aliases such
# as a second name for Field from creeping back in.
PACKAGE = importlib.import_module("torusflow")
MODULES = [name for _, name, _ in pkgutil.iter_modules(PACKAGE.__path__, "torusflow.")
           if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("modname", MODULES)
def test_public_names_are_one_name_per_object(modname):
    module = importlib.import_module(modname)
    objects = {}
    for name in module.__all__:
        assert hasattr(module, name), f"{modname}.{name} is listed but not defined"
        obj = getattr(module, name)
        assert id(obj) not in objects, f"{modname}.{name} aliases {objects[id(obj)]}"
        objects[id(obj)] = name


def test_package_reexports_only_listed_names():
    listed = {name for modname in MODULES for name in importlib.import_module(modname).__all__}
    exported = {name for name, obj in vars(PACKAGE).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported <= listed, sorted(exported - listed)
