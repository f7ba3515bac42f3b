"""Optimal knot placement for piecewise-linear approximation of smooth curves.

The package builds piecewise-linear interpolants of smooth increasing
univariate curves, measures their approximation error, and relocates the
interior knots by damped Newton in x.  The spectral projected gradient
method over the cone reached through y_i = (x_i - a)/(b - x_i) is kept
beside it as ``minimize_y``.
"""

from .cone import project
from .curves import (Curve, CurveCatalogEntry, CurveDomainError, CurveFamily,
                     default_catalog, load_catalog)
from .harness import ResultRow, emit_plot_data, run_catalog, run_experiment
from .kkt import KktReport, hessian_phi, kkt_check, prop1_test
from .objective import YObjective, from_y, phi, to_y
from .pl import (KnotVector, ObjectiveKind, PLApprox, build_pl, error_concave,
                 error_general, error_interior_squared, segment_gaps)
from .quadrature import QuadratureError
from .spg import (MinimizeResult, SolveReport, SolverError, SpgConfig,
                  Termination, backtrack_step, minimize_y, solve)

__version__ = "0.1.0"

__all__ = [
    "Curve", "CurveCatalogEntry", "CurveDomainError", "CurveFamily",
    "KktReport", "KnotVector", "MinimizeResult", "ObjectiveKind", "PLApprox",
    "QuadratureError", "ResultRow", "SolveReport", "SolverError", "SpgConfig",
    "Termination", "YObjective", "backtrack_step", "build_pl",
    "default_catalog", "emit_plot_data", "error_concave", "error_general",
    "error_interior_squared", "from_y", "hessian_phi", "kkt_check",
    "load_catalog", "minimize_y", "phi", "project", "prop1_test",
    "run_catalog", "run_experiment", "segment_gaps", "solve", "to_y",
]
