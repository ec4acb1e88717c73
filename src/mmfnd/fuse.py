"""Adaptive gated fusion of the feature channels and the classifier head.

A per-item sigmoid gate is learned for every feature channel from the
mean of the channels; gated channels are concatenated in a fixed order and
classified by a two-layer MLP with a 2-way softmax. Every function takes a
batch: each channel is (B, d), gates are (B, k), the fused input (B, k*d).
The gated concatenation and the detection loss are one tape node each
(``tensor.gated_concat``, ``tensor.binary_nll``).
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
    return T.gated_concat(features, gates)


def classify(x: Tensor, w1: Param, b1: Param, w2: Param, b2: Param) -> tuple[Tensor, np.ndarray]:
    """Class distributions (B, 2) and hard labels (B,) for fused inputs."""
    hidden = T.relu(T.matvec(w1, x, b1))
    probs = T.softmax_rows(T.matvec(w2, hidden, b2))
    return probs, np.argmax(probs.data, axis=-1)


def detection_loss(probs: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy on the fake-class probability.

    The probability is clamped to [1e-12, 1 - 1e-12], so the loss is
    finite for any prediction and strictly positive; a clamped item passes
    no gradient.
    """
    return T.binary_nll(probs, FAKE, np.asarray(labels) == FAKE, PROB_CLAMP)


def total_loss(l_c: Tensor, l_d: Tensor, lambda_c: float) -> Tensor:
    """Combined objective ``lambda_c * l_c + l_d``. At ``lambda_c == 1`` the
    scaled term equals ``l_c`` exactly, so the result is the plain sum."""
    return T.add(T.affine(l_c, lambda_c, 0.0), l_d)
