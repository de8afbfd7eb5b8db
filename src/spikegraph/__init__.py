"""Spiking graph network engine for skeleton-based action recognition."""

from .network import _keep_freed_memory
from .tensor import (DimensionError, InvalidInputError, NumericalError,
                     Tape, Tensor, backward)

__all__ = [
    "DimensionError",
    "InvalidInputError",
    "NumericalError",
    "Tape",
    "Tensor",
    "backward",
]

__version__ = "0.1.0"

_keep_freed_memory()
