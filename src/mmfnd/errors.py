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
# A subset of JSON: a flat, non-empty list of plain numbers, each with at most
# 16 integer digits and at most 2 exponent digits, so every number is a finite
# float64 (and an integer fits int64). Possessive quantifiers never backtrack.
_NUMBER = r"-?+(?:0|[1-9][0-9]{0,15}+)(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]{1,2}+)?+"
_FLAT_NUMBERS = re.compile(
    rf"\[[ \t\n\r]*+{_NUMBER}[ \t\n\r]*+(?:,[ \t\n\r]*+{_NUMBER}[ \t\n\r]*+)*+\]"
).match


class FlatNumbers(str):
    """The JSON text of a value that ``json_objects`` left undecoded: a flat,
    non-empty list of plain numbers, each a finite float64. Its width is its
    comma count plus one."""


def _walk_object(s: str, undecoded) -> tuple[dict, dict[str, str]]:
    """``s`` parsed as one JSON object, plus the JSON text of each top-level
    value; a duplicate key's last value and text win, as in ``json.loads``.
    The value of a key in ``undecoded`` that ``_FLAT_NUMBERS`` matches is
    left as its ``FlatNumbers`` text. Raises ValueError on any text that is
    not a single object, without telling why (``json.loads`` says that)."""
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
            m = _FLAT_NUMBERS(s, start) if key in undecoded else None
            if m is None:
                obj[key], idx = _DECODER.raw_decode(s, start)
                texts[key] = s[start:idx]
            else:
                idx = m.end()
                obj[key] = texts[key] = FlatNumbers(s[start:idx])
            m = _NEXT(s, idx)
            if m is None:
                raise ValueError("expected ',' or '}'")
            idx = m.end()
            if m[1] == "}":
                break
    if idx != len(s):
        raise ValueError("extra data")
    return obj, texts


def json_objects(path, undecoded=frozenset()):
    """(line number, object, texts) for each non-blank line of a JSON-lines
    file. Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in a text-mode read.
    ``texts[key]`` is the JSON text of the object's top-level value under
    ``key``, as it stands in the line. A line that is not UTF-8 or not a JSON
    object raises ``DataFormatError`` naming the file and the line; a line
    is accepted exactly when ``json.loads`` accepts it, and yields the same
    object, except for the top-level keys in ``undecoded``.

    The value of such a key is checked against a subset of JSON without
    being decoded: a flat, non-empty list of numbers, each with at most 16
    integer digits and at most 2 exponent digits (``[1.5, -2e-05, 3]``, but
    not ``[]``, ``[[1]]``, ``[NaN]`` or ``[1e400]``). A value in the subset is
    left as its ``FlatNumbers`` text; ``json.loads`` of that text gives the
    value, and every number in it is a finite float64. Any other value is
    decoded as usual, so acceptance and error messages stay those of
    ``json.loads``."""
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
                    obj, texts = _walk_object(line, undecoded)
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
