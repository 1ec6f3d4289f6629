"""The paper's primary contribution: projected-gradient-descent partitioning."""

from .config import (
    ConfigIO,
    ExecutionConfig,
    GDConfig,
    PARALLELISM_MODES,
    PROJECTION_METHODS,
)
from .checkpoint import CheckpointMismatch, FrontierCheckpoint, TaskState
from .executor import BisectionExecutor, ExecutorStats, ExecutorTaskError, task_seed
from .shm import SharedGraphArena, ShmStats
from .kernels import KernelStats, NumpyBackend
from .relaxation import QuadraticRelaxation
from .step import StepSizeController, target_step_length
from .rounding import balance_repair, deterministic_round, randomized_round
from .gd import (
    BisectionResult,
    BisectionStepper,
    GDPartitioner,
    IterationRecord,
    gd_bisect,
)
from .compaction import FreeVertexSystem
from .recursive import recursive_bisection
from .multiway import MultiwayResult, gd_multiway, project_rows_to_simplex
from .projection import (
    AlternatingProjector,
    DykstraProjector,
    ExactProjector,
    FeasibleRegion,
    OneShotProjector,
    ProjectionEngine,
    ProjectionStats,
    Projector,
    make_projector,
)

__all__ = [
    "ConfigIO",
    "ExecutionConfig",
    "GDConfig",
    "PARALLELISM_MODES",
    "PROJECTION_METHODS",
    "BisectionExecutor",
    "ExecutorStats",
    "ExecutorTaskError",
    "task_seed",
    "SharedGraphArena",
    "ShmStats",
    "CheckpointMismatch",
    "FrontierCheckpoint",
    "TaskState",
    "KernelStats",
    "NumpyBackend",
    "QuadraticRelaxation",
    "StepSizeController",
    "target_step_length",
    "balance_repair",
    "deterministic_round",
    "randomized_round",
    "BisectionResult",
    "BisectionStepper",
    "GDPartitioner",
    "IterationRecord",
    "gd_bisect",
    "FreeVertexSystem",
    "recursive_bisection",
    "MultiwayResult",
    "gd_multiway",
    "project_rows_to_simplex",
    "AlternatingProjector",
    "DykstraProjector",
    "ExactProjector",
    "FeasibleRegion",
    "OneShotProjector",
    "ProjectionEngine",
    "ProjectionStats",
    "Projector",
    "make_projector",
]
