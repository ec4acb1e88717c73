"""Dataset ingestion and the deterministic synthetic corpus generator.

Synthetic items carry a latent topic vector z. The text encodes the sign
pattern of z through axis-and-polarity word lists, the image feature is a
noisy linear mixture of z under a per-item scale nuisance, and each item
mentions named entities whose fixture descriptions are written in the
vocabulary of one (axis, polarity) cell. Real items keep text, image and
entity polarities consistent with z; fake items mix an independent topic
vector into the image and flip the mentioned entity polarities, so
veracity is exactly cross-channel consistency. Entity names are assigned
to cells independently of their wording: the polarity of a mention is
only recoverable through its description.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from json.decoder import scanstring

import numpy as np

from .errors import ConfigError, DataFormatError, require_integers
from .rng import Rng

logger = logging.getLogger(__name__)

REQUIRED_FIELDS = ("id", "text", "image_vec", "label")
# the empty value that, besides null or absence, marks a required field missing
_EMPTY_VALUES = {"id": "", "text": "", "image_vec": []}
# JSONL field name -> NewsItem attribute of each vector field
VECTOR_FIELDS = {"image_vec": "image", "text_vec": "text_vec", "desc_vecs": "desc_vecs"}
# the flat vector fields load_jsonl checks without decoding them
UNDECODED_FIELDS = frozenset({"image_vec", "text_vec"})


class VectorSource:
    """The JSON text a vector was loaded from, and its read-only array:
    ``None`` until the first read when ``json_objects`` left the text
    undecoded. Two threads reading at once may both parse it; they get
    equal arrays."""

    __slots__ = ("text", "array")

    def __init__(self, text: str, array: np.ndarray | None = None):
        self.text = text
        self.array = array

    def read(self) -> np.ndarray:
        """The array, parsed from ``text`` on the first call into the bytes
        an eager decode gives (``json.loads``, ``np.asarray``, float64).
        The text is in the ``_FLAT_NUMBERS`` subset, so ``np.fromstring``
        reads each number as ``json.loads`` does (both round the decimal
        correctly), except an integer ``-0``: it gives -0.0 where
        ``json.loads`` gives the int 0, hence +0.0."""
        if self.array is None:
            vec = np.fromstring(self.text[1:-1], sep=",")
            if not vec.all():
                numbers = self.text[1:-1].split(",")
                zeros = np.flatnonzero(vec == 0.0)
                vec[zeros] = [json.loads(numbers[i]) for i in zeros]
            vec.flags.writeable = False
            self.array = vec
        return self.array


class _Vector:
    """Dataclass field descriptor of a vector attribute. The item holds an
    array, ``None`` or a ``VectorSource``; reading it gives the array, parsed
    on first read. Assigning the array the source already holds keeps the
    source, so ``save_jsonl`` can still copy its text."""

    def __init__(self, required: bool = False):
        self.required = required

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, item, owner=None):
        if item is None:  # the dataclass default; none for a required field
            if self.required:
                raise AttributeError(self.name)
            return None
        value = item.__dict__[self.name]
        return value.read() if type(value) is VectorSource else value

    def __set__(self, item, value):
        held = item.__dict__.get(self.name)
        if type(held) is VectorSource and held.array is not None and value is held.array:
            return  # the loaded array itself: keep its source
        item.__dict__[self.name] = value


@dataclass
class NewsItem:
    """One (text, image features, descriptions, label) record. The optional
    precomputed ``text_vec`` (d,) and ``desc_vecs`` (n, d) take the place of
    the tokenized text and descriptions.

    An item from ``load_jsonl`` holds each vector as a ``VectorSource``: the
    JSON text it was read from, and the read-only array. An ``image`` or
    ``text_vec`` whose text is in the flat-number subset (``_FLAT_NUMBERS``)
    is kept as text at load time and parsed the first time the attribute is
    read; any other vector was decoded at load. Assigning a new array drops
    the source.
    """

    id: str
    text: str
    image: np.ndarray = _Vector(required=True)
    label: int
    entities: list[str] = field(default_factory=list)
    descriptions: list[str] = field(default_factory=list)
    text_vec: np.ndarray | None = _Vector()
    desc_vecs: np.ndarray | None = _Vector()

    @property
    def sources(self) -> dict[str, VectorSource]:
        """JSONL field name -> ``VectorSource`` of each vector the item holds
        as loaded: not yet read, or read and still read-only."""
        sources = {}
        for name, attr in VECTOR_FIELDS.items():
            value = self.__dict__[attr]
            if type(value) is VectorSource and (value.array is None or not value.array.flags.writeable):
                sources[name] = value
        return sources


@dataclass
class Dataset:
    items: list[NewsItem]
    split: str
    provenance: str
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.items)

    def labels(self) -> list[int]:
        return [item.label for item in self.items]

    def require_labels(self, role: str) -> None:
        """Raise ``ConfigError`` naming the ``role`` dataset's provenance when
        it is empty, or also the first item whose label is not the int 0 or 1."""
        where = f"{role} dataset {self.provenance!r}"
        if not self.items:
            raise ConfigError(f"{where} is empty")
        for item in self.items:
            if isinstance(item.label, (bool, np.bool_)) or item.label not in (0, 1):
                raise ConfigError(f"{where}: item {item.id!r} has label {item.label!r}, expected 0 or 1")


# ---------------------------------------------------------------------------
# JSONL input/output
# ---------------------------------------------------------------------------

_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE.match
_OPEN = re.compile(r"[ \t\n\r]*\{[ \t\n\r]*").match
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*").match
_NEXT = re.compile(r"[ \t\n\r]*([,}])[ \t\n\r]*").match
# The flat-number subset of JSON, the one text format that a vector is kept in
# undecoded: a flat, non-empty list of plain numbers, each with at most 16
# integer digits and at most 2 exponent digits (``[1.5, -2e-05, 3]``, but not
# ``[]``, ``[[1]]``, ``[NaN]`` or ``[1e400]``). So every number is a finite
# float64 (and an integer fits int64), and the list's width is its comma count
# plus one. Possessive quantifiers never backtrack.
_NUMBER = r"-?+(?:0|[1-9][0-9]{0,15}+)(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]{1,2}+)?+"
_FLAT_NUMBERS = re.compile(
    rf"\[[ \t\n\r]*+{_NUMBER}[ \t\n\r]*+(?:,[ \t\n\r]*+{_NUMBER}[ \t\n\r]*+)*+\]"
).match


def _walk_object(s: str, undecoded) -> tuple[dict, dict[str, str]]:
    """``s`` parsed as one JSON object, plus the JSON text of each top-level
    value; a duplicate key's last value and text win, as in ``json.loads``.
    The value of a key in ``undecoded`` whose text ``_FLAT_NUMBERS`` matches
    is left undecoded, as a ``VectorSource`` of that text. Raises ValueError
    on any text that is not a single object, without telling why
    (``json.loads`` says that)."""
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
                texts[key] = text = s[start:idx]
                obj[key] = VectorSource(text)
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
    object, except for the top-level keys in ``undecoded``: a value in the
    flat-number subset (``_FLAT_NUMBERS``) is left as the ``VectorSource`` of
    its text, and ``json.loads`` of that text gives the value. Any other
    value is decoded as usual, so acceptance and error messages stay those
    of ``json.loads``."""
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


def _vector(obj: dict, texts: dict[str, str], name: str, ndim: int, widths: dict[str, int], where: str):
    """Field ``name`` as a read-only finite float array with ``ndim`` axes and
    the same last-axis width on every line, wrapped in the ``VectorSource`` of
    its JSON text when the walker kept it; None when absent or an empty list.
    A ``VectorSource`` the walker left undecoded is checked by its width
    alone and parsed on first read."""
    value = obj.get(name)
    if type(value) is VectorSource:
        vec, width = value, value.text.count(",") + 1
    else:
        if value in (None, []):
            return None
        kind = "a flat list" if ndim == 1 else "a list of equal-length lists"
        try:
            vec = np.asarray(value)
        except ValueError as exc:  # rows of different lengths
            raise DataFormatError(f"{where}: {name} must be {kind} of numbers") from exc
        if vec.ndim != ndim or vec.dtype.kind not in "biuf":
            raise DataFormatError(f"{where}: {name} must be {kind} of numbers")
        vec = vec.astype(np.float64, copy=False)
        if not np.isfinite(vec).all():
            raise DataFormatError(f"{where}: {name} has a non-finite value")
        vec.flags.writeable = False
        width = vec.shape[-1]
        if name in texts:
            vec = VectorSource(texts[name], vec)
    expected = widths.setdefault(name, width)
    if width != expected:
        raise DataFormatError(f"{where}: {name} has length {width}, expected {expected}")
    return vec


def _strings(obj: dict, name: str, where: str) -> list[str]:
    value = obj.get(name)
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise DataFormatError(f"{where}: {name} must be a list of strings")
    return value


def load_jsonl(path, split: str = "train") -> Dataset:
    """Read one news item per line.

    Schema per line: {"id": str, "text": str, "image_vec": [float, ...],
    "label": 0 | 1, "entities": [str, ...]?, "desc_sentences": [str, ...]?,
    "text_vec": [float, ...]?, "desc_vecs": [[float, ...], ...]?}.

    Lines missing a required field are excluded with a warning (mirroring
    the usual multimodal preprocessing rule): the field is absent or null,
    ``id`` or ``text`` is ``""``, or ``image_vec`` is ``[]``. Broken
    JSON, wrong field types, duplicate ids, and a vector (or ``desc_vecs``
    row) that is not a flat list of numbers, holds a non-finite value (the
    JSON literals NaN and Infinity) or changes width within the file are
    hard errors naming the line and field.

    ``image_vec`` and ``text_vec`` are checked without being decoded when
    their text is in the flat-number subset (``_FLAT_NUMBERS``): every such
    number is finite, so only the width is checked, and the array is parsed
    the first time the item's attribute is read. Any other value, and every
    ``desc_vecs``, is decoded and checked here, with the errors above.
    Either way every error is raised here, and every vector is read-only and
    keeps the JSON text it was read from (``NewsItem.sources``).
    """
    items: list[NewsItem] = []
    seen_ids: set[str] = set()
    skipped = 0
    widths: dict[str, int] = {}
    for line_no, obj, texts in json_objects(path, UNDECODED_FIELDS):
        where = f"{path}: line {line_no}"
        missing = [name for name in REQUIRED_FIELDS if obj.get(name) in (None, _EMPTY_VALUES.get(name))]
        if missing:
            skipped += 1
            logger.warning("%s: skipping item (missing %s)", where, ", ".join(missing))
            continue
        label = obj["label"]
        if isinstance(label, bool) or label not in (0, 1):
            raise DataFormatError(f"{where}: label must be 0 or 1")
        for name in ("id", "text"):
            if not isinstance(obj[name], str):
                raise DataFormatError(f"{where}: {name} must be a string")
        if obj["id"] in seen_ids:
            raise DataFormatError(f"{where}: duplicate id {obj['id']!r}")
        seen_ids.add(obj["id"])
        items.append(NewsItem(
            id=obj["id"],
            text=obj["text"],
            image=_vector(obj, texts, "image_vec", 1, widths, where),
            label=int(label),
            entities=_strings(obj, "entities", where),
            descriptions=_strings(obj, "desc_sentences", where),
            text_vec=_vector(obj, texts, "text_vec", 1, widths, where),
            desc_vecs=_vector(obj, texts, "desc_vecs", 2, widths, where),
        ))
    if not items:
        raise DataFormatError(f"{path}: no usable items")
    return Dataset(items=items, split=split, provenance=str(path), skipped=skipped)


def _vector_json(item: NewsItem, name: str, sources: dict[str, VectorSource]) -> str | None:
    """The JSON text of vector field ``name``: the text it was loaded from
    when the item still holds it as loaded, else its floats formatted; None
    when the item has none."""
    if name in sources:
        return sources[name].text
    vec = getattr(item, VECTOR_FIELDS[name])
    return None if vec is None else json.dumps(vec.tolist())


def save_jsonl(path, dataset: Dataset) -> None:
    """Write one news item per line, in the schema ``load_jsonl`` reads.

    A vector the item still holds as loaded (``NewsItem.sources``) is
    written by copying the JSON text it was read from: one never read is not
    parsed at all, and one that was read is copied while the item holds that
    very array and the array is still read-only. Otherwise its floats are
    formatted. A line has the bytes of ``json.dumps(obj, ensure_ascii=False)``
    with each copied text in place of its value. Only the output file is
    opened.
    """
    dumps = json.JSONEncoder(ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8") as fh:
        for item in dataset.items:
            sources = item.sources
            fields = {
                "id": dumps(item.id), "text": dumps(item.text),
                "image_vec": _vector_json(item, "image_vec", sources) or "null", "label": dumps(item.label),
            }
            if item.entities:
                fields["entities"] = dumps(item.entities)
            if item.descriptions:
                fields["desc_sentences"] = dumps(item.descriptions)
            for name in ("text_vec", "desc_vecs"):
                text = _vector_json(item, name, sources)
                if text is not None:
                    fields[name] = text
            fh.write("{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}\n")


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

_POS_STEMS = ("storm", "market", "league", "clinic", "orbit", "canyon", "ballot", "gallery")
_NEG_STEMS = ("harvest", "tunnel", "signal", "meadow", "anchor", "piston", "lantern", "quarry")

_COMMON_WORDS = (
    "the a an of and to in on for with as by at from into over after before "
    "near again report today local officials people sources said during new "
    "first last many few several area city region group plan update follow "
    "state major minor early late against between"
).split()

_ENTITY_FIRST = ("veltor", "casmun", "dorlin", "quenby", "marsa", "tilvane", "orrek", "zefia")
_ENTITY_SECOND = ("ridge", "hall", "bridge", "garden", "station", "archive", "harbor", "tower")


# The generator's fixed shape. Changing any of these changes every corpus's
# bytes, which tests/test_data.py pins.
Z_DIM = 3  # topic axes; at most len(_POS_STEMS)
WORDS_PER_LIST = 8  # words per (axis, polarity) list
ENTITIES_PER_CELL = 32  # entity titles per (axis, polarity) cell
TEXT_LEN = (24, 36)  # inclusive range of tokens per text, before mentions
ENTITIES_RANGE = (2, 3)  # inclusive range of entity mentions per item, at most Z_DIM
TOPIC_WORD_RATE = 0.8  # share of text tokens drawn from the topic lists
IMAGE_NOISE = 0.4  # standard deviation of the image's additive noise
NOISY_IMAGE_RATE = 0.15  # share of items whose image noise is boosted
NOISY_IMAGE_BOOST = 2.0  # noise multiplier of those items
IMAGE_SCALE_RANGE = (0.6, 1.8)  # per-item image scale, drawn log-uniformly


@dataclass
class SynthConfig:
    n_train: int
    n_test: int
    seed: int
    d_raw: int

    def validate(self) -> None:
        require_integers(self, "n_train", "n_test", "seed", "d_raw")
        if self.d_raw < 1:
            raise ConfigError(f"d_raw must be positive, got {self.d_raw!r}")
        if self.n_train < 10 or self.n_test < 10:
            raise ConfigError("synthetic splits need at least 10 items each")


@dataclass
class SynthArtifacts:
    train: Dataset
    test: Dataset
    gazetteer: list[str]
    summaries: dict[str, str]
    # topic_words[axis][polarity] with polarity 0 = positive, 1 = negative
    topic_words: list[tuple[list[str], list[str]]]
    mixing: np.ndarray


def _topic_vocab() -> list[tuple[list[str], list[str]]]:
    return [
        (
            [f"{_POS_STEMS[k]}{j}" for j in range(WORDS_PER_LIST)],
            [f"{_NEG_STEMS[k]}{j}" for j in range(WORDS_PER_LIST)],
        )
        for k in range(Z_DIM)
    ]


def _entities(rng: Rng) -> tuple[list[str], dict[str, tuple[int, int]]]:
    """Unique entity titles, shuffled onto (axis, polarity) cells.

    The shuffle keeps title wording independent of the cell, so a mention
    reveals its polarity only through the entity's description.
    """
    n_cells = Z_DIM * 2
    pool = [
        f"{first.title()} {second.title()} {i}"
        for i in range(1 + (n_cells * ENTITIES_PER_CELL - 1) // (len(_ENTITY_FIRST) * len(_ENTITY_SECOND)))
        for first in _ENTITY_FIRST
        for second in _ENTITY_SECOND
    ]
    order = rng.stream("entity-assign").permutation(len(pool))
    titles, cell_of = [], {}
    for slot in range(n_cells * ENTITIES_PER_CELL):
        title = pool[int(order[slot])]
        titles.append(title)
        cell_of[title] = (slot % n_cells // 2, slot % 2)  # (axis, polarity)
    return sorted(titles), cell_of


def _summary_sentences(title: str, axis: int, polarity: int, topic_words, gen) -> tuple[str, str]:
    """The two sentences of an entity's summary. Titles and topic words hold
    no '.', so the first is what ``enrich.first_sentence`` cuts from the
    summary."""
    words = topic_words[axis][polarity]
    picks = [words[int(i)] for i in gen.integers(0, len(words), size=3)]
    return (
        f"{title} is a widely covered {picks[0]} {picks[1]} landmark.",
        f"It appears in {picks[2]} reports every season.",
    )


def _polarity(value: float) -> int:
    return 0 if value >= 0 else 1


def _make_item(
    idx: int, split: str, rng: Rng, topic_words, by_cell, descriptions, mixing, label: int,
) -> NewsItem:
    gen = rng.stream("item", split, idx)
    z = gen.normal(size=Z_DIM)

    # text: axis words encode the sign pattern of z; axes cycle in a random
    # order so every axis gets roughly even coverage
    n_tok = int(gen.integers(TEXT_LEN[0], TEXT_LEN[1] + 1))
    axis_cycle = [int(a) for a in gen.permutation(Z_DIM)]
    tokens, cursor = [], 0
    for _ in range(n_tok):
        if gen.random() < TOPIC_WORD_RATE:
            axis = axis_cycle[cursor % Z_DIM]
            cursor += 1
            words = topic_words[axis][_polarity(z[axis])]
            tokens.append(words[int(gen.integers(len(words)))])
        else:
            tokens.append(_COMMON_WORDS[int(gen.integers(len(_COMMON_WORDS)))])

    # entity mentions: polarity matches the text for real news, is flipped
    # for fake news; descriptions carry the mentioned cell's vocabulary
    n_e = int(gen.integers(ENTITIES_RANGE[0], ENTITIES_RANGE[1] + 1))
    mentions = []
    if n_e > 0:
        axes = [int(a) for a in gen.choice(Z_DIM, size=n_e, replace=False)]
        for axis in axes:
            polarity = _polarity(z[axis])
            if label == 1:
                polarity = 1 - polarity
            pool = by_cell[(axis, polarity)]
            mentions.append(pool[int(gen.integers(len(pool)))])
    for title in mentions:
        pos = int(gen.integers(0, len(tokens) + 1))
        tokens.insert(pos, title)
    text = " ".join(tokens)

    # image: mixture of the item's topic vector for real news; fake news
    # resamples magnitudes and flips the sign on at least half the axes,
    # so the image sign pattern always contradicts the text
    if label == 0:
        z_img = z
    else:
        magnitudes = np.abs(gen.normal(size=Z_DIM))
        signs = np.sign(z) + (z == 0)
        n_flip = int(gen.integers(max(1, Z_DIM // 2), Z_DIM + 1))
        flip = gen.choice(Z_DIM, size=n_flip, replace=False)
        signs[flip] *= -1.0
        z_img = signs * magnitudes
    sigma = IMAGE_NOISE
    if gen.random() < NOISY_IMAGE_RATE:
        sigma *= NOISY_IMAGE_BOOST
    lo, hi = IMAGE_SCALE_RANGE
    image_scale = float(np.exp(gen.uniform(np.log(lo), np.log(hi))))
    image = image_scale * (mixing @ z_img + sigma * gen.normal(size=mixing.shape[0]))

    return NewsItem(
        id=f"{split}-{idx:05d}",
        text=text,
        image=image,
        label=label,
        entities=mentions,
        descriptions=[descriptions[m] for m in mentions],
    )


def synth_generate(n_train: int, n_test: int, seed: int, d_raw: int = 128) -> SynthArtifacts:
    """Deterministic synthetic corpus with ``d_raw``-wide image features;
    identical arguments give identical bytes."""
    cfg = SynthConfig(n_train=n_train, n_test=n_test, seed=seed, d_raw=d_raw)
    cfg.validate()
    rng = Rng(cfg.seed)
    topic_words = _topic_vocab()
    titles, cell_of = _entities(rng)
    by_cell: dict[tuple[int, int], list[str]] = {}
    for title in titles:
        by_cell.setdefault(cell_of[title], []).append(title)
    sentences = {
        title: _summary_sentences(title, *cell_of[title], topic_words, rng.stream("summary", title))
        for title in titles
    }
    summaries = {title: " ".join(pair) for title, pair in sentences.items()}
    descriptions = {title: first for title, (first, _) in sentences.items()}
    mixing = rng.stream("mixing").normal(size=(cfg.d_raw, Z_DIM)) / np.sqrt(Z_DIM)

    def build_split(split: str, n: int) -> Dataset:
        labels = np.array([0, 1] * (n // 2) + [0] * (n % 2))
        labels = labels[rng.stream("labels", split).permutation(n)]
        items = [
            _make_item(i, split, rng, topic_words, by_cell, descriptions, mixing, int(labels[i]))
            for i in range(n)
        ]
        return Dataset(
            items=items, split=split,
            provenance=f"synthetic seed={cfg.seed} n={n} split={split}",
        )

    return SynthArtifacts(
        train=build_split("train", cfg.n_train),
        test=build_split("test", cfg.n_test),
        gazetteer=titles,
        summaries=summaries,
        topic_words=topic_words,
        mixing=mixing,
    )
