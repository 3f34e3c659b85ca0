"""Exception types shared across the package, and the allocation size check."""

import math
import os

# Physical memory; without sysconf (Windows) numpy's own checks apply.
MEMORY_BYTES = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                if hasattr(os, "sysconf") else math.inf)


class EdgewalkError(Exception):
    """Base class for all errors raised by edgewalk."""


class ParseError(EdgewalkError):
    """A malformed input line; the message carries the line number."""


class ValidationError(EdgewalkError):
    """Input that parses but violates a structural requirement."""


class ConfigError(EdgewalkError):
    """An invalid or inconsistent configuration value."""


class NumericsError(EdgewalkError):
    """Non-finite values encountered during training."""


def check_allocatable(what: str, *shape: int) -> None:
    """Refuse an array of ``shape`` (8-byte items) larger than physical memory."""
    if math.prod(shape) * 8 > MEMORY_BYTES:
        raise ConfigError(f"{what} of shape {shape} needs more memory than this machine has")
