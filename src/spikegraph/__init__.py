"""Spiking graph network engine for skeleton-based action recognition."""

from .network import _keep_freed_memory
from .tensor import (FormatError, InvalidInputError, NumericalError, Tape, Tensor,
                     backward)

__all__ = [
    "FormatError",
    "InvalidInputError",
    "NumericalError",
    "Tape",
    "Tensor",
    "backward",
]

__version__ = "0.1.0"

_keep_freed_memory()
