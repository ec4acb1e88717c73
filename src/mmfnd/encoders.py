"""Unimodal feature encoders.

The text path emulates a pretrained sentence encoder at desk scale: a
mean pool over trainable token embeddings followed by a linear
projection. The image path linearly projects pre-extracted feature
vectors. Precomputed text and description embeddings (``text_vec`` and
``desc_vecs`` of a news item) replace the pooled token embeddings; the
projection layers stay in place either way.

Texts and descriptions share the token table, so ``embed_rows`` pads each
item's description slots to the widest item of the batch and pools them
with the text slots through one bag of ids and one product with the
table. The product's text rows and description rows are two results, and
on the tape two nodes, each of whose backward adds its own block of the
bag to the table's gradient.
"""

from __future__ import annotations

import re
from itertools import chain
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Param, Tensor

OOV_ID = 0

# one word token; enrich matches gazetteer titles on the same tokens
WORD_RE = re.compile(r"\w+")


class EmptyTextError(ValueError):
    """Text contains no tokens after normalization."""


def tokenize(text: str) -> list[str]:
    """Word tokens, each lowercased after splitting; punctuation and
    whitespace are separators. Lowercasing first would split a word whose
    lowercase form holds a non-word character ("İ" gives "i" and a
    combining dot)."""
    return [word.lower() for word in WORD_RE.findall(text)]


@dataclass
class TokenSequence:
    """The token ids of one text, at most ``max_len`` of them."""

    ids: list[int]


class Vocabulary:
    """Deterministic token -> id table built from a training corpus.

    Ids are assigned in sorted token order starting at 1; id 0 is reserved
    for out-of-vocabulary tokens.
    """

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.id_of = {tok: i + 1 for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, texts) -> "Vocabulary":
        """Vocabulary of every token in ``texts``; a repeated text (a shared
        description sentence) is tokenized once."""
        seen = set()
        for text in dict.fromkeys(texts):
            seen.update(tokenize(text))
        return cls(sorted(seen))

    def __len__(self) -> int:
        # embedding table size: all known tokens plus the OOV row
        return len(self.tokens) + 1

    def encode(self, text: str, max_len: int) -> TokenSequence:
        """Ids of the first ``max_len`` tokens of ``text``."""
        return TokenSequence(ids=[self.id_of.get(t, OOV_ID) for t in tokenize(text)[:max_len]])


# ---------------------------------------------------------------------------
# encoder forward passes
# ---------------------------------------------------------------------------


def bag_of_ids(seqs: list, vocab_size: int) -> np.ndarray:
    """(N, V) pooling weights: row r holds k/n at an id that fills k of the
    n positions of ``seqs[r]``, so its product with the embedding table is
    the mean of those rows. A ``None`` entry leaves its row zero.

    On a desk-scale vocabulary one (N, V) x (V, d) product is far cheaper
    than gathering (N, L, d) token rows.
    """
    active = [s.ids if s is not None else None for s in seqs]
    if [] in active:
        raise EmptyTextError("cannot encode an empty token sequence")
    lens = np.array([len(ids) if ids else 0 for ids in active])
    rows = np.arange(len(seqs)).repeat(lens)
    ids = np.fromiter(chain.from_iterable(ids for ids in active if ids), dtype=np.intp, count=rows.size)
    # ufunc reductions: .min() and .max() would add a Python frame each per scored item
    if ids.size and not 0 <= np.minimum.reduce(ids) <= np.maximum.reduce(ids) < vocab_size:
        bad = np.flatnonzero((ids < 0) | (ids >= vocab_size))[0]
        raise ValueError(f"slot {rows[bad]}: token id {ids[bad]} is outside [0, {vocab_size})")
    weights = (1.0 / np.maximum(lens, 1)).repeat(lens)
    bag = np.bincount(rows * vocab_size + ids, weights=weights, minlength=len(seqs) * vocab_size)
    return bag.reshape(len(seqs), vocab_size)


def pooled_embedding(emb: Param, bag: np.ndarray, leads: list[tuple[int, ...]]) -> list:
    """Mean of the embedding rows each row of ``bag`` selects (see bag_of_ids),
    from one product with the table, split into one result per shape in
    ``leads``, in order: the first rows of ``bag`` shaped ``leads[0] + (d,)``,
    and so on. On the tape each result is its own node. The bag is a
    constant operand: it gets no gradient."""
    return T.matmul(bag, emb, leads)


def embed_rows(emb: Param, texts: list, descs: list[list]) -> tuple:
    """The feature rows of a batch: ``texts`` holds each item's text slot,
    ``descs`` each item's list of description slots. Returns the (B, d)
    text rows; the (B, D, d) description rows, each item's slots padded
    with zero rows to the widest item's D, or None when no item has a
    description; and each item's description count.

    The one place that reads a slot's kind: a TokenSequence slot gives the
    mean of its token embeddings, and an array slot is a precomputed vector
    taken as it is. The token slots of both blocks share one ``bag_of_ids``
    and one product with the table, which gives one result per block that
    holds a token slot. Precomputed vectors are constants: a block with no
    token slot gives a plain array, and otherwise they enter as the offset
    of one ``affine`` node. A plain-array ``emb`` gives plain rows.
    """
    n_vocab, d = T.data_of(emb).shape
    lens = [len(slots) for slots in descs]
    width = max(lens)
    blocks = [(texts, (len(texts),))]
    if width:
        blocks.append(([s for slots in descs for s in slots + [None] * (width - len(slots))], (len(descs), width)))
    rows = [None, None]
    pooled = [i for i, (slots, _) in enumerate(blocks) if any(isinstance(s, TokenSequence) for s in slots)]
    if pooled:
        bag = bag_of_ids([s if isinstance(s, TokenSequence) else None for i in pooled for s in blocks[i][0]], n_vocab)
        for i, block in zip(pooled, pooled_embedding(emb, bag, [blocks[i][1] for i in pooled])):
            rows[i] = block
    for i, (slots, lead) in enumerate(blocks):
        if any(isinstance(s, np.ndarray) for s in slots):
            pre = np.array([s if isinstance(s, np.ndarray) else np.zeros(d) for s in slots]).reshape(*lead, d)
            rows[i] = pre if rows[i] is None else T.affine(rows[i], 1.0, pre)
    return rows[0], rows[1], np.array(lens)


def encode_description(w_df: Param, rows: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Projected description features (B, D, d) from the description rows
    that ``embed_rows`` gives; they share the token table with the text."""
    return T.matvec(w_df, rows)


def encode_image(w_vf: Param, img: Tensor | np.ndarray) -> Tensor:
    """Projected image features from pre-extracted feature vectors (B, d_raw);
    a plain array is a constant input that gets no gradient."""
    return T.matvec(w_vf, img)
