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


def _walk_object(s: str) -> tuple[dict, dict[str, tuple[int, int]]]:
    """``s`` parsed as one JSON object, plus the (start, end) character span
    of each top-level value; a duplicate key's last value and span win, as
    in ``json.loads``. Raises ValueError on any text that is not a single
    object, without telling why (``json.loads`` says that)."""
    m = _OPEN(s)
    if m is None:
        raise ValueError("not an object")
    idx = m.end()
    obj: dict = {}
    spans: dict[str, tuple[int, int]] = {}
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
            spans[key] = (start, idx)
            m = _NEXT(s, idx)
            if m is None:
                raise ValueError("expected ',' or '}'")
            idx = m.end()
            if m[1] == "}":
                break
    if idx != len(s):
        raise ValueError("extra data")
    return obj, spans


def _byte_spans(line: str, raw: bytes, offset: int, spans: dict) -> dict[str, tuple[int, bytes]]:
    """Character spans of ``line``, the decoded ``raw`` that starts at byte
    ``offset`` of its file, as (file offset, bytes) pairs."""
    if raw.isascii():
        return {key: (offset + a, raw[a:b]) for key, (a, b) in spans.items()}
    out = {}
    for key, (a, b) in spans.items():
        start = len(line[:a].encode("utf-8"))
        end = start + len(line[a:b].encode("utf-8"))
        out[key] = (offset + start, raw[start:end])
    return out


def json_objects(path):
    """(line number, object, spans) for each non-blank line of a JSON-lines
    file. Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in a text-mode read.
    ``spans[key]`` is (file offset, bytes) of the JSON text of the object's
    top-level value under ``key``. A line that is not UTF-8 or not a JSON
    object raises ``DataFormatError`` naming the file and the line; a line
    is accepted exactly when ``json.loads`` accepts it, and yields the same
    object."""
    with open(path, "rb") as fh:
        line_no = offset = 0
        for chunk in fh:
            for raw in chunk.splitlines(keepends=True) if b"\r" in chunk else (chunk,):
                line_no += 1
                start, offset = offset, offset + len(raw)
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(f"{path}: line {line_no}: invalid UTF-8 ({exc.reason})") from exc
                if not line.strip():
                    continue
                try:
                    obj, spans = _walk_object(line)
                except ValueError:
                    # json.loads gives the verdict and the message
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise DataFormatError(f"{path}: line {line_no}: invalid JSON ({exc.msg})") from exc
                    if not isinstance(obj, dict):
                        raise DataFormatError(f"{path}: line {line_no}: expected a JSON object")
                    spans = {}  # an object the walker missed only loses its spans
                yield line_no, obj, _byte_spans(line, raw, start, spans)
