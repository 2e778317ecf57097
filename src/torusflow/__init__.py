"""Fourier-spectral geodesic flows for the periodic 2D b-equation family.

The names below are re-exported from their modules on first access (PEP
562), so importing the package loads no numpy: `torusflow.cli` can set the
BLAS thread default before numpy starts.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "spectral": ("Field", "TorusGrid", "VectorField", "h1_inner", "helmholtz", "helmholtz_inverse",
                 "l2_inner", "make_grid", "random_bandlimited"),
    "dynamics": ("B_CAMASSA_HOLM", "BlowupError", "EulerState", "Trajectory", "christoffel",
                 "conservation_report", "euler_rhs", "hamiltonian", "integrate"),
    "flow": ("DiffeoMap", "GeodesicState", "InversionError", "OrientationError", "adjoint", "body_momentum",
             "body_velocity", "coadjoint", "eulerian_velocity", "exp_map", "geodesic_integrate", "invert"),
    "curvature": ("CurvatureReport", "closed_form_S", "curvature_tensor", "sectional_direct",
                  "sectional_formula"),
    "uniqueness": ("verify_theorem",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Each re-exported name, and each module that holds them, imported on first use."""
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
