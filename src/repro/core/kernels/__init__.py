"""Kernel backends for the GD hot loop.

:class:`NumpyBackend` holds the reference kernels; :class:`FusedBackend`
inherits them and replaces the gradient step plus the one-shot projection
sweep with one in-place pass, and is the backend every bisection runs on.
See :mod:`repro.core.kernels.base` for the protocol.
"""

from __future__ import annotations

from .base import KernelBackend, KernelStats, kernel
from .fused import FusedBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "FusedBackend",
    "KernelBackend",
    "KernelStats",
    "NumpyBackend",
    "kernel",
]
