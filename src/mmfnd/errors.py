"""Shared error types for configuration and data ingestion, and the
JSON-lines reader that both ingestion paths use."""

import json
import re
from json.decoder import scanstring


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataFormatError(ValueError):
    """Dataset file violates the expected schema."""


_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE.match
_OPEN = re.compile(r"[ \t\n\r]*\{[ \t\n\r]*").match
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*").match
_NEXT = re.compile(r"[ \t\n\r]*([,}])[ \t\n\r]*").match


def _walk_object(s: str) -> tuple[dict, dict[str, str]]:
    """``s`` parsed as one JSON object, plus the JSON text of each top-level
    value; a duplicate key's last value and text win, as in ``json.loads``.
    Raises ValueError on any text that is not a single object, without
    telling why (``json.loads`` says that)."""
    m = _OPEN(s)
    if m is None:
        raise ValueError("not an object")
    idx = m.end()
    obj: dict = {}
    texts: dict[str, str] = {}
    if s[idx:idx + 1] == "}":
        idx = _WS(s, idx + 1).end()
    else:
        while True:
            if s[idx:idx + 1] != '"':
                raise ValueError("expected a key")
            key, idx = scanstring(s, idx + 1)
            m = _COLON(s, idx)
            if m is None:
                raise ValueError("expected ':'")
            start = m.end()
            obj[key], idx = _DECODER.raw_decode(s, start)
            texts[key] = s[start:idx]
            m = _NEXT(s, idx)
            if m is None:
                raise ValueError("expected ',' or '}'")
            idx = m.end()
            if m[1] == "}":
                break
    if idx != len(s):
        raise ValueError("extra data")
    return obj, texts


def json_objects(path):
    """(line number, object, texts) for each non-blank line of a JSON-lines
    file. Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in a text-mode read.
    ``texts[key]`` is the JSON text of the object's top-level value under
    ``key``, as it stands in the line. A line that is not UTF-8 or not a JSON
    object raises ``DataFormatError`` naming the file and the line; a line
    is accepted exactly when ``json.loads`` accepts it, and yields the same
    object."""
    with open(path, "rb") as fh:
        line_no = 0
        for chunk in fh:
            for raw in chunk.splitlines(keepends=True) if b"\r" in chunk else (chunk,):
                line_no += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(f"{path}: line {line_no}: invalid UTF-8 ({exc.reason})") from exc
                if not line.strip():
                    continue
                try:
                    obj, texts = _walk_object(line)
                except ValueError:
                    # json.loads gives the verdict and the message
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise DataFormatError(f"{path}: line {line_no}: invalid JSON ({exc.msg})") from exc
                    if not isinstance(obj, dict):
                        raise DataFormatError(f"{path}: line {line_no}: expected a JSON object")
                    texts = {}  # an object the walker missed only loses its texts
                yield line_no, obj, texts
