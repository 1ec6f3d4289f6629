"""Step-size control for the projected gradient descent (§3.2).

The paper keeps the Euclidean progress per iteration, ``||x(t+1) − x(t)||``,
approximately constant.  The natural scale is ``ξ = √n / I`` (the distance
from the all-zeros start to any integral solution divided by the iteration
budget); a step length of ``2ξ`` works well across graphs (Figure 8).

Because the projection can absorb an arbitrary fraction of the raw gradient
step, a fixed gradient multiplier does not give a fixed realized step.  The
adaptive controller rescales the multiplier after every iteration based on
the realized progress.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepSizeController", "target_step_length"]


def target_step_length(num_vertices: int, iterations: int, factor: float = 2.0) -> float:
    """The paper's step-length target ``factor * sqrt(n) / iterations``.

    ``num_vertices`` must be the count of vertices that can actually
    move: a cold-started bisection passes its full ``n``, while a
    warm-started repair pass passes its *free* vertex count — the
    distance left to travel from a mostly fixed iterate is ``O(√free)``,
    and deriving the target from the original ``n`` would overshoot the
    free vertices by orders of magnitude (see
    :class:`~repro.core.gd.BisectionStepper`).
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    return factor * np.sqrt(max(num_vertices, 1)) / iterations


class StepSizeController:
    """Chooses the gradient multiplier ``γ_t`` each iteration.

    In adaptive mode the multiplier is adjusted multiplicatively so the
    realized (post-projection) step length tracks the target.  In
    non-adaptive mode the multiplier chosen at the first iteration is kept
    for the rest of the run.
    """

    #: Clamp of the per-iteration correction so one bad iteration cannot
    #: destabilize the schedule.
    _MIN_CORRECTION = 0.5
    _MAX_CORRECTION = 2.0

    def __init__(self, target_length: float, adaptive: bool = True):
        if target_length <= 0:
            raise ValueError("target_length must be positive")
        self._target = target_length
        self._adaptive = adaptive
        self._gamma: float | None = None

    @property
    def target_length(self) -> float:
        return self._target

    def step_size(self, gradient: np.ndarray) -> float:
        """Gradient multiplier to use this iteration.

        The first call normalizes by the gradient norm so the *raw* step has
        the target length; later calls reuse the (possibly adapted) value.
        """
        if self._gamma is None:
            norm = float(np.linalg.norm(gradient))
            self._gamma = self._target / norm if norm > 0 else 1.0
        return self._gamma

    def update(self, realized_length: float) -> None:
        """Report the realized post-projection step length."""
        if not self._adaptive or self._gamma is None:
            return
        if realized_length <= 0:
            # Projection absorbed the whole step; push harder next time.
            self._gamma *= self._MAX_CORRECTION
            return
        correction = self._target / realized_length
        correction = float(np.clip(correction, self._MIN_CORRECTION, self._MAX_CORRECTION))
        self._gamma *= correction
