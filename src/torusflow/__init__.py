"""Fourier-spectral geodesic flows for the periodic 2D b-equation family."""

__version__ = "0.1.0"

from .spectral import (  # noqa: E402
    Field,
    TorusGrid,
    VectorField,
    h1_inner,
    helmholtz,
    helmholtz_inverse,
    l2_inner,
    make_grid,
    random_bandlimited,
)

from .dynamics import (  # noqa: E402
    B_CAMASSA_HOLM,
    BlowupError,
    EulerState,
    Trajectory,
    b_operator,
    christoffel,
    conservation_report,
    euler_rhs,
    hamiltonian,
    integrate,
)

from .flow import (  # noqa: E402
    DiffeoMap,
    GeodesicState,
    InversionError,
    OrientationError,
    adjoint,
    body_momentum,
    body_velocity,
    coadjoint,
    eulerian_velocity,
    exp_map,
    geodesic_integrate,
    invert,
)

from .curvature import (  # noqa: E402
    CurvatureReport,
    closed_form_S,
    curvature_tensor,
    sectional_direct,
    sectional_formula,
)

from .uniqueness import verify_theorem  # noqa: E402
