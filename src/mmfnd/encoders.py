"""Unimodal feature encoders.

The text path emulates a pretrained sentence encoder at desk scale: a
mean pool over trainable token embeddings followed by a linear
projection. The image path linearly projects pre-extracted feature
vectors. Externally computed embeddings can be swapped in through a
JSONL file; the projection layers stay in place either way.
"""

from __future__ import annotations

import json
import re
from itertools import chain, compress
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Param, Tensor

OOV_ID = 0

_TOKEN_RE = re.compile(r"\w+")


class EmptyTextError(ValueError):
    """Text contains no tokens after normalization."""


class EmbeddingFileError(ValueError):
    """Precomputed embedding file is malformed."""


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; punctuation and whitespace are separators."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class TokenSequence:
    """Fixed-length id sequence; padded tail positions carry mask=False."""

    ids: list[int]
    mask: list[bool]

    def active_ids(self) -> list[int]:
        return list(compress(self.ids, self.mask))


class Vocabulary:
    """Deterministic token -> id table built from a training corpus.

    Ids are assigned in sorted token order starting at 1; id 0 is reserved
    for out-of-vocabulary tokens and padding.
    """

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.id_of = {tok: i + 1 for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, texts) -> "Vocabulary":
        seen = set()
        for text in texts:
            seen.update(tokenize(text))
        return cls(sorted(seen))

    def __len__(self) -> int:
        # embedding table size: all known tokens plus the OOV/pad row
        return len(self.tokens) + 1

    def encode(self, text: str, max_len: int = 64) -> TokenSequence:
        toks = tokenize(text)[:max_len]
        ids = [self.id_of.get(t, OOV_ID) for t in toks]
        n = len(ids)
        ids += [OOV_ID] * (max_len - n)
        mask = [True] * n + [False] * (max_len - n)
        return TokenSequence(ids=ids, mask=mask)


# ---------------------------------------------------------------------------
# encoder forward passes
# ---------------------------------------------------------------------------


def bag_of_ids(seqs: list, vocab_size: int) -> np.ndarray:
    """(N, V) pooling weights: row r holds k/n at an id that fills k of the
    n unmasked positions of ``seqs[r]``, so its product with the embedding
    table is the mean of those rows. A ``None`` entry leaves its row zero.

    On a desk-scale vocabulary one (N, V) x (V, d) product is far cheaper
    than gathering and masking (N, L, d) token rows.
    """
    active = [s.active_ids() if s is not None else None for s in seqs]
    if any(ids == [] for ids in active):
        raise EmptyTextError("cannot encode an all-padding token sequence")
    lens = np.array([len(ids) if ids else 0 for ids in active])
    rows = np.repeat(np.arange(len(seqs)), lens)
    ids = np.fromiter(chain.from_iterable(ids for ids in active if ids), dtype=np.intp, count=rows.size)
    if ids.size and not 0 <= ids.min() <= ids.max() < vocab_size:
        raise ValueError(f"token ids must lie in [0, {vocab_size}), got {ids.min()}..{ids.max()}")
    weights = np.repeat(1.0 / np.maximum(lens, 1), lens)
    bag = np.bincount(rows * vocab_size + ids, weights=weights, minlength=len(seqs) * vocab_size)
    return bag.reshape(len(seqs), vocab_size)


def pooled_embedding(emb: Param, bag: np.ndarray) -> Tensor:
    """Mean of the embedding rows each row of ``bag`` selects (see bag_of_ids)."""
    return T.matmul(T.Tensor(bag), emb)


def embed_rows(emb: Param, slots: list, lead: tuple[int, ...]) -> Tensor | None:
    """Feature rows shaped ``lead + (d,)`` from ``slots`` in row-major order.

    A TokenSequence slot gives the mean of its token embeddings, an array
    slot is a precomputed vector taken as it is, and a None slot (padding)
    gives a zero row. Returns None when every slot is None.
    """
    n_vocab, d = emb.data.shape
    seqs = [s if isinstance(s, TokenSequence) else None for s in slots]
    rows = None
    if any(s is not None for s in seqs):
        rows = pooled_embedding(emb, bag_of_ids(seqs, n_vocab).reshape(*lead, n_vocab))
    if any(isinstance(s, np.ndarray) for s in slots):
        pre = np.array([s if isinstance(s, np.ndarray) else np.zeros(d) for s in slots])
        pre = T.Tensor(pre.reshape(*lead, d))
        rows = pre if rows is None else T.add(rows, pre)
    return rows


def encode_description(emb: Param, w_df: Param, slots: list, lead: tuple[int, int]) -> Tensor:
    """Projected description features (B, D, d) from padded description
    slots (see embed_rows); they share the token table with the text."""
    return T.matvec(w_df, embed_rows(emb, slots, lead))


def encode_image(w_vf: Param, img: Tensor) -> Tensor:
    """Projected image features from pre-extracted feature vectors (B, d_raw)."""
    return T.matvec(w_vf, img)


# ---------------------------------------------------------------------------
# precomputed embedding files (JSONL)
# ---------------------------------------------------------------------------


@dataclass
class PrecomputedItem:
    """Externally computed vectors that bypass the toy encoders."""

    image_vec: np.ndarray
    text_vec: np.ndarray | None = None
    desc_vecs: list[np.ndarray] = field(default_factory=list)


def _as_float_vector(value, line_no: int, name: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) for v in value):
        raise EmbeddingFileError(f"line {line_no}: field {name!r} must be a list of numbers")
    vec = np.asarray(value, dtype=np.float64)
    if not np.isfinite(vec).all():
        raise EmbeddingFileError(f"line {line_no}: field {name!r} has a non-finite value")
    return vec


def load_precomputed(path) -> dict[str, PrecomputedItem]:
    """Read an embedding file: one JSON object per line.

    Schema per line: {"id": str, "image_vec": [...], "text_vec": [...]?,
    "desc_vecs": [[...], ...]?}. Vector widths must be consistent across
    the whole file, and every value must be finite.
    """
    items: dict[str, PrecomputedItem] = {}
    dims: dict[str, int] = {}

    def check_dim(kind: str, vec: np.ndarray, line_no: int) -> None:
        if kind not in dims:
            dims[kind] = vec.shape[0]
        elif dims[kind] != vec.shape[0]:
            raise EmbeddingFileError(
                f"line {line_no}: {kind} has length {vec.shape[0]}, expected {dims[kind]}"
            )

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EmbeddingFileError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise EmbeddingFileError(f"line {line_no}: expected a JSON object")
            for required in ("id", "image_vec"):
                if required not in obj:
                    raise EmbeddingFileError(f"line {line_no}: missing field {required!r}")
            item_id = obj["id"]
            if not isinstance(item_id, str):
                raise EmbeddingFileError(f"line {line_no}: field 'id' must be a string")
            if item_id in items:
                raise EmbeddingFileError(f"line {line_no}: duplicate id {item_id!r}")
            image_vec = _as_float_vector(obj["image_vec"], line_no, "image_vec")
            check_dim("image_vec", image_vec, line_no)
            text_vec = None
            if obj.get("text_vec") is not None:
                text_vec = _as_float_vector(obj["text_vec"], line_no, "text_vec")
                check_dim("text_vec", text_vec, line_no)
            desc_vecs = []
            if obj.get("desc_vecs") is not None:
                if not isinstance(obj["desc_vecs"], list):
                    raise EmbeddingFileError(f"line {line_no}: field 'desc_vecs' must be a list")
                for row in obj["desc_vecs"]:
                    vec = _as_float_vector(row, line_no, "desc_vecs")
                    check_dim("desc_vecs", vec, line_no)
                    desc_vecs.append(vec)
            items[item_id] = PrecomputedItem(image_vec=image_vec, text_vec=text_vec, desc_vecs=desc_vecs)
    return items


def write_precomputed(path, items: dict[str, PrecomputedItem]) -> None:
    """Inverse of load_precomputed; floats round-trip exactly through JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, item in items.items():
            obj = {"id": item_id, "image_vec": item.image_vec.tolist()}
            if item.text_vec is not None:
                obj["text_vec"] = item.text_vec.tolist()
            if item.desc_vecs:
                obj["desc_vecs"] = [v.tolist() for v in item.desc_vecs]
            fh.write(json.dumps(obj) + "\n")
