"""Projection onto the hypercube ``B∞ = [-1, 1]ⁿ``."""

from __future__ import annotations

import numpy as np

__all__ = ["truncate"]


def truncate(values: np.ndarray) -> np.ndarray:
    """The truncated linear function ``[z] = min(1, max(-1, z))`` from §2.2,
    which is also the Euclidean projection onto ``B∞`` (coordinate
    clipping)."""
    return np.clip(values, -1.0, 1.0)
