"""Gauss curvature measures of hyperbolic convex bodies.

The package computes the curvature measure of a convex polytope in
hyperbolic space (by two independent routes), verifies the admissibility
conditions a spherical measure must satisfy to be such a curvature measure,
and solves the inverse problem: reconstructing the unique convex body with a
prescribed discrete curvature measure by damped Newton on its exact exterior
angles.  A Monte-Carlo integral-geometry module cross-checks polar boundary
areas against intersection counts with random space-like geodesics.
"""

from .bodies import (
    HyperbolicPolytope,
    apply_isometry,
    curvature_measure_angles,
    curvature_measure_integral,
    from_vertices,
    icosphere_body,
    polar_boundary_area,
    polygon_area_m1,
    radial_fn,
    random_polytope,
    regular_polygon,
    support_fn,
    t_map,
)
from .crofton import CroftonReport, count_intersections, crofton_compare, sample_geodesics
from .ctransform import (
    PotentialVector,
    c_transform,
    conjugacy_diagnostics,
    double_convexify,
)
from .densities import F_phi, G_psi, f_phi, g_psi
from .errors import (
    DegenerateHullError,
    HypcurvError,
    IntegrationError,
    NonExtremeVertexError,
    OriginNotInteriorError,
    PreconditionError,
    UncoveredDirectionError,
    UnsupportedDimensionError,
)
from .measures import (
    ConditionReport,
    DiscreteMeasure,
    SphericalConvexSet,
    check_conditions,
    polar_sigma_area,
    spherical_hull,
)
from .minkowski import (
    basepoint,
    boost_matrix,
    cost,
    cost_of_distance,
    desitter_point,
    hyperbolic_point,
    klein_point,
    lorentz_dot,
    sphere_measure,
)
from .quadrature import QuadratureGrid, build_grid, integrate
from .solver import (
    SolveReport,
    SolverConfig,
    dual_gradient,
    dual_objective,
    extract_body,
    solve,
    transport_residuals,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
