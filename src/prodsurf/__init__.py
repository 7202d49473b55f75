"""Numerical certification of curvature identities for surfaces in product spaces."""

__version__ = "0.1.0"

from .jets import Jet2, JetDomainError
from .spaceforms import (
    AmbientModel,
    ConstraintError,
    constraint_residual,
    flat_inner,
    make_ambient,
    project_to_product_tangent,
)
from .geometry import (
    DegenerateMetricError,
    GeomPoint,
    MinimalSurfaceError,
    NotNormalError,
    SurfaceSpec,
    evaluate_chart,
    gauss_curvature_brioschi,
    grad_norm_sq,
    normal_connection_derivative,
    shape_operator,
)
from .codazzi import (
    CodazziField,
    angle_operator,
    codazzi_residual,
    field_for,
    metric_change,
    s_norm_det_identity,
)
from .identities import (
    ResidualReport,
    ambient_codazzi_residual,
    curvature_formula_residual,
    gauss_equation_residual,
    mu_estimate,
    pmc_residual,
    run_suite,
    t_laplacian_residual,
)
from .catalog import CatalogEntry, CatalogError, catalog_list, instantiate
from .theorems import TheoremVerdict, run_checker
