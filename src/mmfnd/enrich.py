"""External knowledge enrichment.

Concept entities are extracted from news text by longest-match lookup
against a gazetteer, their one-sentence encyclopedia descriptions are
retrieved (live HTTP, on-disk cache, or an offline fixture file), and the
description features are fused into the text feature through an attention
step plus additive projection. The attention and its pooling over each
item's descriptions are one tape node (``tensor.attention_pool``), which
builds no (B, D) attention map; the op-by-op reference it is checked
against lives in the tests.
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import json_objects
from .encoders import WORD_RE, tokenize
from .errors import DataFormatError
from .tensor import DegenerateInputError, Param, Tensor


@dataclass(frozen=True)
class Entity:
    """A gazetteer hit in a news text."""

    surface: str
    canonical_title: str
    span: tuple[int, int]


@dataclass(frozen=True)
class EntityDescription:
    """First sentence of an entity's encyclopedia summary."""

    entity: str
    sentence: str
    source: str  # live | cache | fixture


class CacheMissError(LookupError):
    """Offline lookup found neither a cache entry nor a fixture entry."""


class FetchError(RuntimeError):
    """Live retrieval kept failing for ``MAX_RETRIES`` attempts."""


# ---------------------------------------------------------------------------
# entity extraction
# ---------------------------------------------------------------------------


def _title_key(title: str) -> tuple[str, ...]:
    # tokenized exactly like text in extract_entities: split, then lowercase
    return tuple(tokenize(title))


class Gazetteer:
    """Entity titles in file order plus a longest-match index built once.

    ``by_key`` maps each title's lowercased word-token tuple to the first
    title with that key; ``lengths`` maps each first token to the key
    lengths that start with it, longest first. Titles with no word
    characters are kept in ``titles`` but never match.
    """

    def __init__(self, titles):
        self.titles = list(titles)
        self.by_key: dict[tuple[str, ...], str] = {}
        lengths: dict[str, set[int]] = {}
        for title in self.titles:
            key = _title_key(title)
            if key:
                self.by_key.setdefault(key, title)
                lengths.setdefault(key[0], set()).add(len(key))
        self.lengths = {tok: sorted(ls, reverse=True) for tok, ls in lengths.items()}

    def __iter__(self):
        return iter(self.titles)


def extract_entities(text: str, gazetteer: Gazetteer) -> list[Entity]:
    """Greedy longest-match scan of ``text`` against the index that
    ``gazetteer`` built once, left to right.

    Matching is case-insensitive on word-token boundaries; overlapping
    candidates resolve to the longest, titles with the same key resolve to
    the first in gazetteer order, and repeated titles keep only the first
    mention.
    """
    by_key, lengths = gazetteer.by_key, gazetteer.lengths
    matches = list(WORD_RE.finditer(text))
    words = [m.group().lower() for m in matches]
    n = len(words)
    found: list[Entity] = []
    seen_titles = set()
    i = 0
    while i < n:
        for length in lengths.get(words[i], ()):
            j = i + length
            title = by_key.get(tuple(words[i:j]))
            if title is not None and j <= n:
                if title not in seen_titles:
                    seen_titles.add(title)
                    start, end = matches[i].start(), matches[j - 1].end()
                    found.append(Entity(surface=text[start:end], canonical_title=title, span=(start, end)))
                i = j
                break
        else:
            i += 1
    return found


def load_gazetteer(path) -> Gazetteer:
    """One title per line, UTF-8; blank lines ignored. The returned
    ``Gazetteer`` iterates the titles in file order and carries the index
    that ``extract_entities`` reuses on every call."""
    with open(path, "r", encoding="utf-8") as fh:
        return Gazetteer(line.strip() for line in fh if line.strip())


def write_gazetteer(path, titles) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for title in titles:
            fh.write(title + "\n")


# ---------------------------------------------------------------------------
# first-sentence splitting
# ---------------------------------------------------------------------------

# multi-letter abbreviations whose trailing dot does not end a sentence;
# single letters ("A.", the "U" and "S" in "U.S.") are guarded separately
_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "rev", "gen", "sen", "rep", "hon",
    "jr", "sr", "st", "no", "vs", "etc", "inc", "ltd", "co", "corp",
    "dept", "est", "fig", "approx", "ca", "cf", "al",
}

_TERMINATOR_RE = re.compile(r"[.!?](?=\s|$)")


def first_sentence(text: str) -> str:
    """Prefix up to and including the first sentence terminator.

    A '.' does not terminate after a known abbreviation or a single-letter
    initial; text without any terminator is returned whole.
    """
    if not text or not text.strip():
        raise DegenerateInputError("first_sentence of empty text")
    for match in _TERMINATOR_RE.finditer(text):
        if text[match.start()] == ".":
            j = match.start() - 1
            k = j
            while k >= 0 and (text[k].isalnum() or text[k] == "'"):
                k -= 1
            word = text[k + 1:match.start()]
            if len(word) == 1 and word.isalpha():
                continue
            if word.lower() in _ABBREVIATIONS:
                continue
        return text[:match.end()]
    return text


# ---------------------------------------------------------------------------
# description cache and retrieval
# ---------------------------------------------------------------------------


def _cache_entry(raw: bytes) -> dict | None:
    """A cache line as {"title": str, "sentence": str, ...}, or None."""
    try:
        entry = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(entry, dict) or not isinstance(entry.get("title"), str):
        return None
    return entry if isinstance(entry.get("sentence"), str) else None


class DescriptionCache:
    """Descriptions in one append-only JSON-lines file under a cache directory.

    ``put`` appends one line ``{"title", "sentence", "fetched_at"}``, so a
    new entry creates no file of its own; the last line for a title wins.
    The cache maps each title to its sentence, reading only lines appended
    since its last scan, and rescans when a lookup misses, so caches on the
    same directory see each other's new titles. A hit reads no file, by
    design: another cache's overwrite of a title this cache already holds
    is seen by a new cache, and by this one only once a miss makes it
    rescan. This cache's own ``put`` is seen at once.
    """

    FILE = "descriptions.jsonl"

    def __init__(self, root):
        self.root = Path(root)
        self.path = os.path.join(self.root, self.FILE)
        self._sentences: dict[str, str] = {}
        self._scanned = 0  # bytes of the file read so far

    def _scan(self, title: str) -> None:
        """Read the complete lines appended since the last scan; a partial
        last line (a write in progress) is left for the next one. A line
        that is not a JSON object with string ``"title"`` and ``"sentence"``
        raises ``DataFormatError`` naming the file, its byte offset and the
        title being looked up."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._scanned)
                tail = fh.read()
        except FileNotFoundError:
            return
        *lines, _partial = tail.split(b"\n")
        for line in lines:
            entry = _cache_entry(line)
            if entry is None:
                raise DataFormatError(
                    f"cache file {self.path}: the line at byte {self._scanned} is not a JSON object with string "
                    f"\"title\" and \"sentence\" (looking up {title!r})"
                )
            self._sentences[entry["title"]] = entry["sentence"]
            self._scanned += len(line) + 1

    def get(self, title: str) -> str | None:
        """The cached sentence, or None when the title has no entry; the
        file is scanned only when the title is not yet known."""
        if title not in self._sentences:
            self._scan(title)
        return self._sentences.get(title)

    def put(self, title: str, sentence: str) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"title": title, "sentence": sentence, "fetched_at": time.time()}
        line = (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")
        with open(self.path, "ab") as fh:
            fh.write(line)
        self._sentences[title] = sentence


def load_fixture(path) -> dict[str, str]:
    """Fixture summaries: JSON lines of {"title": str, "summary": str}, with
    a summary that is not blank. A line that breaks this raises
    ``DataFormatError`` naming the file, the line and the field."""
    out: dict[str, str] = {}
    for line_no, obj, _ in json_objects(path):
        for name in ("title", "summary"):
            if not isinstance(obj.get(name), str):
                raise DataFormatError(f"{path}: line {line_no}: {name} must be a string")
        if not obj["summary"].strip():
            raise DataFormatError(f"{path}: line {line_no}: summary is blank")
        out[obj["title"]] = obj["summary"]
    return out


def requests_transport(url: str, headers: dict, timeout: float) -> tuple[int, bytes]:
    import requests

    resp = requests.get(url, headers=headers, timeout=timeout)
    return resp.status_code, resp.content


DEFAULT_BASE_URL = "https://en.wikipedia.org"
DEFAULT_USER_AGENT = "mmfnd/0.1 (multimodal news verification research)"
# live retrieval: attempts per title, seconds between requests, seconds per request
MAX_RETRIES = 3
MIN_INTERVAL = 0.1
TIMEOUT = 10.0


class WikiClient:
    """Entity-description retrieval against the REST page-summary endpoint.

    The HTTP transport is injectable so tests can count or fake network
    traffic; live requests are rate limited, and a transport ``OSError`` or
    a status other than 200 and 404 is retried with exponential backoff.
    Any other exception from the transport propagates at once. All
    successful lookups land in the on-disk cache.
    """

    def __init__(
        self,
        cache: DescriptionCache,
        *,
        base_url: str = DEFAULT_BASE_URL,
        fixture: dict[str, str] | None = None,
        transport=None,
        user_agent: str = DEFAULT_USER_AGENT,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        self.cache = cache
        self.base_url = base_url.rstrip("/")
        self.fixture = fixture or {}
        self.transport = transport or requests_transport
        self.user_agent = user_agent
        self._sleep = sleep
        self._clock = clock
        self._last_request: float | None = None

    def fetch_description(self, entity, mode: str = "offline") -> EntityDescription | None:
        """Resolve one entity; returns None when the title has no page."""
        if mode not in ("live", "offline"):
            raise ValueError(f"unknown fetch mode {mode!r}")
        title = entity.canonical_title if isinstance(entity, Entity) else entity
        cached = self.cache.get(title)
        if cached is not None:
            return EntityDescription(entity=title, sentence=cached, source="cache")
        if mode == "offline":
            if title in self.fixture:
                sentence = first_sentence(self.fixture[title])
                self.cache.put(title, sentence)
                return EntityDescription(entity=title, sentence=sentence, source="fixture")
            raise CacheMissError(f"no cached or fixture description for {title!r}")
        return self._fetch_live(title)

    def _fetch_live(self, title: str) -> EntityDescription | None:
        url = f"{self.base_url}/api/rest_v1/page/summary/{urllib.parse.quote(title, safe='')}"
        headers = {"User-Agent": self.user_agent, "Accept": "application/json"}
        last_error: str = ""
        for attempt in range(MAX_RETRIES):
            if attempt > 0:
                self._sleep(0.5 * 2 ** (attempt - 1))
            self._throttle()
            try:
                status, body = self.transport(url, headers, TIMEOUT)
            except ImportError as exc:  # a missing package does not come back on retry
                raise FetchError(
                    f"live mode needs the 'live' extra (pip install 'mmfnd[live]'): {exc}"
                ) from exc
            except OSError as exc:  # network-level failure (requests' errors included): retry
                last_error = str(exc)
                continue
            if status == 404:
                return None
            if status != 200:
                last_error = f"HTTP {status}"
                continue
            try:
                extract = json.loads(body.decode("utf-8"))["extract"]
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
                raise FetchError(f"unparseable summary response for {title!r}: {exc}") from exc
            if not isinstance(extract, str) or not extract.strip():
                raise FetchError(
                    f"unparseable summary response for {title!r}: 'extract' must be a non-blank string, got {extract!r}"
                )
            sentence = first_sentence(extract)
            self.cache.put(title, sentence)
            return EntityDescription(entity=title, sentence=sentence, source="live")
        raise FetchError(f"failed to fetch {title!r} after {MAX_RETRIES} attempts: {last_error}")

    def _throttle(self) -> None:
        now = self._clock()
        if self._last_request is not None:
            wait = MIN_INTERVAL - (now - self._last_request)
            if wait > 0:
                self._sleep(wait)
        self._last_request = self._clock()


# ---------------------------------------------------------------------------
# attention-based information fusion
# ---------------------------------------------------------------------------


def enhance(r_t: Tensor, m_d: Tensor | None, counts: np.ndarray, w_t: Param, w_d: Param | None) -> Tensor:
    """Knowledge-enhanced text features (B, d).

    ``m_d`` holds each item's description rows padded to (B, D, d); item b
    has counts[b] of them. They are weighted by a softmax over their dot
    products with the text feature, mean-pooled over the item's own count
    in the same node, projected by ``w_d``, and added to the projected text
    feature. Padding rows get no weight. An item with no descriptions (or
    ``m_d=None``, as in every ``no_E`` batch) gets the text projection
    alone. ``w_d`` is read only when descriptions are given; else it may be None.
    """
    base = T.matvec(w_t, r_t)
    if m_d is None:
        return base
    counts = np.asarray(counts)
    mask = np.arange(T.data_of(m_d).shape[1]) < counts[:, None]
    pooled = T.attention_pool(r_t, m_d, mask, 1.0 / np.maximum(counts, 1))
    return T.add(base, T.matvec(w_d, pooled))
