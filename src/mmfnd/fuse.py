"""Adaptive gated fusion of the feature channels and the classifier head.

A per-item sigmoid gate is learned for every feature channel from the
mean of the channels; gated channels are concatenated in a fixed order and
classified by a two-layer MLP with a 2-way softmax. Every function takes a
batch: each channel is (B, d), gates are (B, k), the fused input (B, k*d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Param, Tensor

REAL, FAKE = 0, 1
PROB_CLAMP = 1e-12


@dataclass
class Prediction:
    """Classifier output for one item; ties in argmax resolve to real."""

    probs: np.ndarray
    label: int
    gates: tuple[float, ...] | None = None


def adaptive_weights(features: list[Tensor], w_g: Param, b_g: Param) -> Tensor:
    """Per-item, per-channel sigmoid gates (B, k) from the channel mean."""
    pooled = T.mean_pool(T.stack_rows(features), axis=0)
    return T.sigmoid(T.matvec(w_g, pooled, b_g))


def fuse(features: list[Tensor], gates: Tensor | None) -> Tensor:
    """Concatenate the channels, each scaled by its gate.

    ``gates=None`` is the plain-concatenation variant (all gates one).
    Channel order is fixed: enhanced text, image, interaction.
    """
    if gates is None:
        return T.concat(features)
    return T.concat([T.scale_rows(f, T.take_at(gates, i)) for i, f in enumerate(features)])


def classify(x: Tensor, w1: Param, b1: Param, w2: Param, b2: Param) -> tuple[Tensor, np.ndarray]:
    """Class distributions (B, 2) and hard labels (B,) for fused inputs."""
    hidden = T.relu(T.matvec(w1, x, b1))
    probs = T.softmax_rows(T.matvec(w2, hidden, b2))
    return probs, np.argmax(probs.data, axis=-1)


def detection_loss(probs: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy on the fake-class probability.

    The probability is clamped to [1e-12, 1 - 1e-12], so the loss is
    finite for any prediction and strictly positive.
    """
    y = np.asarray(labels) == FAKE
    p = T.clip(T.take_at(probs, FAKE), PROB_CLAMP, 1.0 - PROB_CLAMP)
    # the probability of the true class: p for fake items, 1 - p for real ones
    p_true = T.affine(p, np.where(y, 1.0, -1.0), np.where(y, 0.0, 1.0))
    return T.scale(T.mean_pool(T.log(p_true), axis=0), -1.0)


def total_loss(l_c: Tensor, l_d: Tensor, lambda_c: float = 1.0) -> Tensor:
    """Combined objective; the default weight keeps the plain sum."""
    if lambda_c == 1.0:
        return T.add(l_c, l_d)
    return T.add(T.scale(l_c, lambda_c), l_d)
