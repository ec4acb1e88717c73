"""Shared error types for configuration and data ingestion, and the
JSON-lines reader that both ingestion paths use."""

import json


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataFormatError(ValueError):
    """Dataset file violates the expected schema."""


def json_objects(path):
    """(line number, object) for each non-blank line of a JSON-lines file.
    A line that is not a JSON object raises ``DataFormatError`` naming the
    file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}: line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise DataFormatError(f"{path}: line {line_no}: expected a JSON object")
            yield line_no, obj
