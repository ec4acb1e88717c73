"""Shared error types for configuration and data ingestion."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataFormatError(ValueError):
    """Dataset file violates the expected schema."""
