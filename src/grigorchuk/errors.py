"""Shared exception types, and the checks of an input's type: ``check_int``
for every size, level, depth and cap, and ``check_type`` for the rest."""


class GrigError(Exception):
    pass


class WordParseError(GrigError, ValueError):
    """Raised on malformed word input; carries the offending position."""

    def __init__(self, text, position, message):
        self.text = text
        self.position = position
        super().__init__(f"{message} at position {position}: {text!r}")


class PreconditionError(GrigError, ValueError):
    pass


class CapExceeded(GrigError, RuntimeError):
    """A resource cap was hit; ``partial`` holds whatever was computed."""

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)


def check_int(value, name: str, least: int | None = None) -> None:
    """TypeError unless value is an int (a bool is not one), and ValueError
    if it is below ``least``, when ``least`` is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def check_type(value, kind: type, name: str) -> None:
    """TypeError unless value is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")
