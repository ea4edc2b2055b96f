"""Exception hierarchy shared across the library.

An ``InputError`` is bad input from outside the program (the CLI exits 2);
any other ``RetinaSSLError`` is a runtime failure (the CLI exits 3).
"""


class RetinaSSLError(Exception):
    """Base class for all library errors."""


class ContractError(RetinaSSLError, ValueError):
    """A caller violated an operation's contract (wrong structure or shape)."""


class TrainingError(RetinaSSLError, RuntimeError):
    """Training diverged or hit a non-finite value."""


class InputError(RetinaSSLError, ValueError):
    """Invalid input data (degenerate image, empty dataset, ...)."""


class ParameterError(InputError):
    """A numeric parameter is outside its valid range."""


class DataFormatError(InputError):
    """Unrecognized or unsupported file format (bad magic bytes, ...)."""


class DecodeError(InputError):
    """File has a recognized format but its payload cannot be decoded."""


class ManifestError(InputError):
    """Malformed dataset manifest; carries the offending line when known,
    and then names it in the message."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CheckpointError(InputError):
    """Unreadable checkpoint container: bad magic, unsupported version,
    failed checksum, truncation or malformed contents."""


class ConfigError(InputError):
    """Bad run-configuration key or value."""
