"""Projection-step implementations for the GD partitioner (§2.2--2.3, §3.1).

The stateless kernels (1-D/2-D/nested equality solvers, box/halfspace
primitives, the projector classes) live in their own modules; the
:class:`ProjectionEngine` layers warm starts and region narrowing on top
of them and is what the optimizer actually drives (see
:mod:`repro.core.projection.engine`).
"""

from .base import FeasibleRegion, Projector
from .box import truncate
from .halfspace import project_onto_band, project_onto_hyperplane
from .exact_1d import project_exact_1d, solve_lambda_1d, weighted_truncated_sum
from .exact_2d import project_exact_2d, solve_lambda_2d
from .nested import project_equality, solve_equality_system
from .warmstart import classify_pattern, region_linear_system, try_warm_equality_solve
from .exact import ExactProjector
from .alternating import AlternatingProjector, OneShotProjector
from .dykstra import DykstraProjector
from .engine import ProjectionEngine, ProjectionStats, make_projector

__all__ = [
    "FeasibleRegion",
    "Projector",
    "truncate",
    "project_onto_band",
    "project_onto_hyperplane",
    "project_exact_1d",
    "solve_lambda_1d",
    "weighted_truncated_sum",
    "project_exact_2d",
    "solve_lambda_2d",
    "project_equality",
    "solve_equality_system",
    "classify_pattern",
    "region_linear_system",
    "try_warm_equality_solve",
    "ExactProjector",
    "AlternatingProjector",
    "OneShotProjector",
    "DykstraProjector",
    "ProjectionEngine",
    "ProjectionStats",
    "make_projector",
]
