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
from dataclasses import dataclass, field

import numpy as np

from .enrich import first_sentence
from .errors import ConfigError, DataFormatError, FlatNumbers, json_objects
from .rng import Rng

logger = logging.getLogger(__name__)

REQUIRED_FIELDS = ("id", "text", "image_vec", "label")
# JSONL field name -> NewsItem attribute of each vector field
VECTOR_FIELDS = {"image_vec": "image", "text_vec": "text_vec", "desc_vecs": "desc_vecs"}
# the flat vector fields load_jsonl checks without decoding them
UNDECODED_FIELDS = frozenset({"image_vec", "text_vec"})


class VectorSource:
    """The JSON text a vector was loaded from, and its read-only array:
    ``None`` until the first read when ``load_jsonl`` left the text
    undecoded. Two threads reading at once may both parse it; they get
    equal arrays."""

    __slots__ = ("text", "array")

    def __init__(self, text: str, array: np.ndarray | None = None):
        self.text = text
        self.array = array

    def read(self) -> np.ndarray:
        """The array, parsed from ``text`` on the first call into the bytes
        an eager decode gives (``json.loads``, ``np.asarray``, float64).
        The text is a ``FlatNumbers`` list, so ``np.fromstring`` reads each
        number as ``json.loads`` does (both round the decimal correctly),
        except an integer ``-0``: it gives -0.0 where ``json.loads`` gives
        the int 0, hence +0.0."""
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
    ``text_vec`` whose text is a flat list of plain finite numbers (see
    ``errors.json_objects``) is kept as text at load time and parsed the
    first time the attribute is read; any other vector was decoded at load.
    Assigning a new array drops the source.
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


# ---------------------------------------------------------------------------
# JSONL input/output
# ---------------------------------------------------------------------------


def _vector(obj: dict, texts: dict[str, str], name: str, ndim: int, widths: dict[str, int], where: str):
    """Field ``name`` as a read-only finite float array with ``ndim`` axes and
    the same last-axis width on every line, wrapped in the ``VectorSource`` of
    its JSON text when the walker kept it; None when absent or an empty list.
    Text the walker left undecoded is checked by its width alone and parsed
    on first read."""
    value = obj.get(name)
    if isinstance(value, FlatNumbers):
        vec, width = None, value.count(",") + 1
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
    expected = widths.setdefault(name, width)
    if width != expected:
        raise DataFormatError(f"{where}: {name} has length {width}, expected {expected}")
    return VectorSource(texts[name], vec) if name in texts else vec


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

    Lines missing text, image features or a valid label are excluded with
    a warning (mirroring the usual multimodal preprocessing rule). Broken
    JSON, wrong field types, duplicate ids, and a vector (or ``desc_vecs``
    row) that is not a flat list of numbers, holds a non-finite value (the
    JSON literals NaN and Infinity) or changes width within the file are
    hard errors naming the line and field.

    ``image_vec`` and ``text_vec`` are checked without being decoded when
    their text is a flat list of plain numbers, each with at most 16 integer
    digits and at most 2 exponent digits (``errors.json_objects``): every
    such number is finite, so only the width (comma count plus one) is
    checked, and the array is parsed the first time the item's attribute is
    read. Any other value, and every ``desc_vecs``, is decoded and checked
    here, with the errors above. Either way every error is raised here, and
    every vector is read-only and keeps the JSON text it was read from
    (``NewsItem.sources``).
    """
    items: list[NewsItem] = []
    seen_ids: set[str] = set()
    skipped = 0
    widths: dict[str, int] = {}
    for line_no, obj, texts in json_objects(path, UNDECODED_FIELDS):
        where = f"{path}: line {line_no}"
        missing = [name for name in REQUIRED_FIELDS if obj.get(name) in (None, "", [])]
        if missing:
            skipped += 1
            logger.warning("%s: skipping item (missing %s)", where, ", ".join(missing))
            continue
        label = obj["label"]
        if isinstance(label, bool) or label not in (0, 1):
            raise DataFormatError(f"{where}: label must be 0 or 1")
        if not isinstance(obj["id"], str) or not isinstance(obj["text"], str):
            raise DataFormatError(f"{where}: id and text must be strings")
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


def _json_line(fields: dict, copied: dict[str, str]) -> str:
    """``json.dumps(fields, ensure_ascii=False)`` for ``fields`` keyed by plain
    ASCII names, with the JSON text of each field in ``copied`` taken as given."""
    if not copied:  # one encoder call for the whole line is faster
        return json.dumps(fields, ensure_ascii=False)
    return "{" + ", ".join(
        f'"{key}": ' + (copied[key] if key in copied else json.dumps(value, ensure_ascii=False))
        for key, value in fields.items()
    ) + "}"


def _vector_json(item: NewsItem, name: str, copied: dict[str, str]):
    """The value of vector field ``name`` for ``_json_line``: its copied text
    when it has one, else its list of floats; None when the item has none."""
    if name in copied:
        return copied[name]
    vec = getattr(item, VECTOR_FIELDS[name])
    return None if vec is None else vec.tolist()


def save_jsonl(path, dataset: Dataset) -> None:
    """Write one news item per line, in the schema ``load_jsonl`` reads.

    A vector the item still holds as loaded (``NewsItem.sources``) is
    written by copying the JSON text it was read from: one never read is not
    parsed at all, and one that was read is copied while the item holds that
    very array and the array is still read-only. Otherwise its floats are
    formatted. Every other part of a line is ``json.dumps(obj,
    ensure_ascii=False)``. Only the output file is opened.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for item in dataset.items:
            copied = {name: source.text for name, source in item.sources.items()}
            fields = {
                "id": item.id, "text": item.text,
                "image_vec": _vector_json(item, "image_vec", copied), "label": item.label,
            }
            if item.entities:
                fields["entities"] = item.entities
            if item.descriptions:
                fields["desc_sentences"] = item.descriptions
            for name in ("text_vec", "desc_vecs"):
                value = _vector_json(item, name, copied)
                if value is not None:
                    fields[name] = value
            fh.write(_json_line(fields, copied) + "\n")


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


@dataclass
class SynthConfig:
    n_train: int = 2000
    n_test: int = 500
    seed: int = 42
    z_dim: int = 3
    d_raw: int = 128
    words_per_list: int = 8
    entities_per_cell: int = 32
    text_len: tuple[int, int] = (24, 36)
    entities_range: tuple[int, int] = (2, 3)
    topic_word_rate: float = 0.8
    image_noise: float = 0.4
    noisy_image_rate: float = 0.15
    noisy_image_boost: float = 2.0
    image_scale_range: tuple[float, float] = (0.6, 1.8)

    def validate(self) -> None:
        if self.n_train < 10 or self.n_test < 10:
            raise ConfigError("synthetic splits need at least 10 items each")
        if not (1 <= self.z_dim <= len(_POS_STEMS)):
            raise ConfigError(f"z_dim must lie in 1..{len(_POS_STEMS)}")
        if self.entities_range[0] < 0 or self.entities_range[1] > self.z_dim:
            raise ConfigError("entities_range must fit inside the topic axes")


@dataclass
class SynthArtifacts:
    train: Dataset
    test: Dataset
    gazetteer: list[str]
    summaries: dict[str, str]
    # topic_words[axis][polarity] with polarity 0 = positive, 1 = negative
    topic_words: list[tuple[list[str], list[str]]]
    mixing: np.ndarray
    config: SynthConfig


def _topic_vocab(cfg: SynthConfig) -> list[tuple[list[str], list[str]]]:
    return [
        (
            [f"{_POS_STEMS[k]}{j}" for j in range(cfg.words_per_list)],
            [f"{_NEG_STEMS[k]}{j}" for j in range(cfg.words_per_list)],
        )
        for k in range(cfg.z_dim)
    ]


def _entities(cfg: SynthConfig, rng: Rng) -> tuple[list[str], dict[str, tuple[int, int]]]:
    """Unique entity titles, shuffled onto (axis, polarity) cells.

    The shuffle keeps title wording independent of the cell, so a mention
    reveals its polarity only through the entity's description.
    """
    n_cells = cfg.z_dim * 2
    pool = [
        f"{first.title()} {second.title()} {i}"
        for i in range(1 + (n_cells * cfg.entities_per_cell - 1) // (len(_ENTITY_FIRST) * len(_ENTITY_SECOND)))
        for first in _ENTITY_FIRST
        for second in _ENTITY_SECOND
    ]
    order = rng.stream("entity-assign").permutation(len(pool))
    titles, cell_of = [], {}
    for slot in range(n_cells * cfg.entities_per_cell):
        title = pool[int(order[slot])]
        titles.append(title)
        cell_of[title] = (slot % n_cells // 2, slot % 2)  # (axis, polarity)
    return sorted(titles), cell_of


def _summary_for(title: str, axis: int, polarity: int, topic_words, gen) -> str:
    words = topic_words[axis][polarity]
    picks = [words[int(i)] for i in gen.integers(0, len(words), size=3)]
    return (
        f"{title} is a widely covered {picks[0]} {picks[1]} landmark. "
        f"It appears in {picks[2]} reports every season."
    )


def _polarity(value: float) -> int:
    return 0 if value >= 0 else 1


def _make_item(
    idx: int, split: str, cfg: SynthConfig, rng: Rng, topic_words, by_cell,
    summaries, mixing, label: int,
) -> NewsItem:
    gen = rng.stream("item", split, idx)
    z = gen.normal(size=cfg.z_dim)

    # text: axis words encode the sign pattern of z; axes cycle in a random
    # order so every axis gets roughly even coverage
    n_tok = int(gen.integers(cfg.text_len[0], cfg.text_len[1] + 1))
    axis_cycle = [int(a) for a in gen.permutation(cfg.z_dim)]
    tokens, cursor = [], 0
    for _ in range(n_tok):
        if gen.random() < cfg.topic_word_rate:
            axis = axis_cycle[cursor % cfg.z_dim]
            cursor += 1
            words = topic_words[axis][_polarity(z[axis])]
            tokens.append(words[int(gen.integers(len(words)))])
        else:
            tokens.append(_COMMON_WORDS[int(gen.integers(len(_COMMON_WORDS)))])

    # entity mentions: polarity matches the text for real news, is flipped
    # for fake news; descriptions carry the mentioned cell's vocabulary
    n_e = int(gen.integers(cfg.entities_range[0], cfg.entities_range[1] + 1))
    mentions = []
    if n_e > 0:
        axes = [int(a) for a in gen.choice(cfg.z_dim, size=n_e, replace=False)]
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
        magnitudes = np.abs(gen.normal(size=cfg.z_dim))
        signs = np.sign(z) + (z == 0)
        n_flip = int(gen.integers(max(1, cfg.z_dim // 2), cfg.z_dim + 1))
        flip = gen.choice(cfg.z_dim, size=n_flip, replace=False)
        signs[flip] *= -1.0
        z_img = signs * magnitudes
    sigma = cfg.image_noise
    if gen.random() < cfg.noisy_image_rate:
        sigma *= cfg.noisy_image_boost
    lo, hi = cfg.image_scale_range
    image_scale = float(np.exp(gen.uniform(np.log(lo), np.log(hi))))
    image = image_scale * (mixing @ z_img + sigma * gen.normal(size=cfg.d_raw))

    return NewsItem(
        id=f"{split}-{idx:05d}",
        text=text,
        image=image,
        label=label,
        entities=mentions,
        descriptions=[first_sentence(summaries[m]) for m in mentions],
    )


def synth_generate(n_train: int, n_test: int, seed: int, **overrides) -> SynthArtifacts:
    """Deterministic synthetic corpus; identical seeds give identical bytes."""
    cfg = SynthConfig(n_train=n_train, n_test=n_test, seed=seed, **overrides)
    cfg.validate()
    rng = Rng(cfg.seed)
    topic_words = _topic_vocab(cfg)
    titles, cell_of = _entities(cfg, rng)
    by_cell: dict[tuple[int, int], list[str]] = {}
    for title in titles:
        by_cell.setdefault(cell_of[title], []).append(title)
    summaries = {
        title: _summary_for(title, *cell_of[title], topic_words, rng.stream("summary", title))
        for title in titles
    }
    mixing = rng.stream("mixing").normal(size=(cfg.d_raw, cfg.z_dim)) / np.sqrt(cfg.z_dim)

    def build_split(split: str, n: int) -> Dataset:
        labels = np.array([0, 1] * (n // 2) + [0] * (n % 2))
        labels = labels[rng.stream("labels", split).permutation(n)]
        items = [
            _make_item(
                i, split, cfg, rng, topic_words, by_cell, summaries, mixing, int(labels[i])
            )
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
        config=cfg,
    )
