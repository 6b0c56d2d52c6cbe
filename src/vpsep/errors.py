"""Exception types shared across the library, and an integer check."""

from numbers import Integral


class VpsepError(Exception):
    """Base class for all vpsep errors."""


class ShapeMismatchError(VpsepError, ValueError):
    """Operand shapes are incompatible."""


class AudioError(VpsepError):
    """Invalid audio geometry (rate, length, frame layout)."""


class WavFormatError(VpsepError):
    """Malformed or unsupported WAV file."""


class ConfigError(VpsepError):
    """Invalid experiment configuration."""


class CheckpointError(VpsepError):
    """Unreadable, corrupt, or mismatched model checkpoint."""


class DatasetError(VpsepError):
    """Missing or inconsistent dataset files."""


class TrainingDivergedError(VpsepError):
    """Training objective became non-finite."""


def check_int(name: str, value, low: int, error=VpsepError) -> None:
    """Raise ``error`` unless ``value`` is an integer (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
