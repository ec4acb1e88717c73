"""Shared error types for configuration and data ingestion, and the configs' integer rule."""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataFormatError(ValueError):
    """Dataset file violates the expected schema."""


def require_integers(config, *names: str) -> None:
    """Raise ``ConfigError`` naming the first of ``names`` whose value on
    ``config`` is not an integer: a float such as 8.0, or a bool, fails; a
    numpy integer passes."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
