"""Exception hierarchy shared across the library."""


class RetinaSSLError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(RetinaSSLError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(RetinaSSLError, ValueError):
    """A numeric parameter is outside its valid range."""


class ContractError(RetinaSSLError, ValueError):
    """A caller violated an operation's contract (wrong structure, not just shape)."""


class InputError(RetinaSSLError, ValueError):
    """Invalid input data (degenerate image, empty dataset, ...)."""


class TrainingError(RetinaSSLError, RuntimeError):
    """Training diverged or hit a non-finite value; carries step context."""

    def __init__(self, message: str, step: int | None = None, loss: float | None = None):
        super().__init__(message)
        self.step = step
        self.loss = loss


class DataFormatError(RetinaSSLError, ValueError):
    """Unrecognized or unsupported file format (bad magic bytes, ...)."""


class DecodeError(RetinaSSLError, ValueError):
    """File has a recognized format but its payload cannot be decoded."""


class ManifestError(RetinaSSLError, ValueError):
    """Malformed dataset manifest; carries the offending line when known,
    and then names it in the message."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CheckpointError(RetinaSSLError, ValueError):
    """Base for checkpoint container problems."""


class CheckpointMagicError(CheckpointError):
    """File does not start with the checkpoint magic bytes."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is unsupported."""


class CheckpointChecksumError(CheckpointError):
    """A checkpoint section failed its integrity check."""


class CheckpointTruncationError(CheckpointError):
    """Checkpoint file ends before a declared section completes."""


class ConfigError(RetinaSSLError, ValueError):
    """Bad run-configuration key or value."""
