"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible tensor/matrix dimensions."""


class NumericalError(RuntimeError):
    """A computation produced a non-finite or otherwise unusable result."""


class OracleSizeError(ValueError):
    """A dense reference computation was requested above its size cap."""


class TensorFormatError(ValueError):
    """A tensor file could not be parsed; message carries the line number."""


class IndexRangeError(TensorFormatError, IndexError):
    """A 1-based index lies off the grid; ``row`` is its 0-based row in the input."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class ModelFormatError(ValueError):
    """A serialized model is corrupt or has an incompatible version."""


class ConfigError(ValueError):
    """A run configuration is malformed or contains unknown keys."""


class AllocationError(RuntimeError):
    """A guarded code region exceeded its peak-allocation budget."""
