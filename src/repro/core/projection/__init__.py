"""Projection-step implementations for the GD partitioner (§2.2--2.3, §3.1).

The stateless kernels (1-D/2-D/nested equality solvers, box/halfspace
primitives, the projector classes) live in their own modules; the
:class:`ProjectionEngine` layers per-region caching and warm starts on top
of them and is what the optimizer actually drives (see
:mod:`repro.core.projection.engine`).
"""

from .base import FeasibleRegion, Projector
from .box import project_onto_box, truncate
from .cache import DimensionCache, RegionCache
from .halfspace import project_onto_band, project_onto_hyperplane
from .exact_1d import project_exact_1d, solve_lambda_1d, weighted_truncated_sum
from .exact_2d import project_exact_2d, solve_lambda_2d
from .nested import project_equality, solve_equality_system
from .warmstart import classify_pattern, region_linear_system, try_warm_equality_solve
from .exact import ExactProjector
from .alternating import AlternatingProjector
from .dykstra import DykstraProjector
from .engine import ProjectionEngine, ProjectionStats

__all__ = [
    "FeasibleRegion",
    "Projector",
    "project_onto_box",
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
    "DimensionCache",
    "RegionCache",
    "ExactProjector",
    "AlternatingProjector",
    "DykstraProjector",
    "ProjectionEngine",
    "ProjectionStats",
    "make_projector",
]


def make_projector(method: str, region: FeasibleRegion,
                   cache: RegionCache | None = None) -> Projector:
    """Build a stateless projector by name.

    ``method`` is one of ``"exact"``, ``"alternating"``,
    ``"alternating_oneshot"``, or ``"dykstra"``.  ``cache`` optionally
    supplies the region's precomputed invariants.  For the cached,
    warm-started hot path use :class:`ProjectionEngine` instead.
    """
    from .engine import _build_projector

    return _build_projector(method, region, cache)
