"""Kernel backends for the GD hot loop.

:class:`NumpyBackend` holds the kernels every bisection runs on, each as
its plain numpy expression, timed into per-kernel counters.  See
:mod:`repro.core.kernels.base` for the protocol.
"""

from __future__ import annotations

from .base import KernelBackend, KernelStats, kernel
from .numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "KernelStats",
    "NumpyBackend",
    "kernel",
]
