"""Cross-modal semantic interaction between aligned modality vectors.

For each item, mutual attention maps are built from the scaled outer
product of its two aligned vectors, each modality is updated through the
other's attention, and the rank-1 interaction matrix of the updated
vectors is pooled and passed through a two-layer MLP. Every function takes
a batch of (B, d) vectors.

Training and inference attend without the (B, d, d) maps:
``modality_update`` fuses each map's softmax with its value product in one
``rank1_attention`` node, so no map is a tape node and none gets a
gradient, and scoring calls the op's array kernel. The aligned vectors are
unit-norm and the logit scale is 1/sqrt(d), so every logit lies within
1/sqrt(d) of zero. On such logits, in any call with enough of them (a
training batch, or one item at d=256), ``rank1_attention`` sums a short
power series over the vectors' entries instead of exponentiating d^2
logits per item, and builds no (B, d, d) array at all.

``cross_attention`` returns the maps as tensors off the tape. Nothing in
the package calls it; it stays while the benchmark's stage tracer patches
it by name, until the package has a stage hook of its own.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Param, ShapeError, Tensor


def logit_scale(m_t: np.ndarray, m_v: np.ndarray) -> float:
    """1/sqrt(d), the scale of the outer-product logits, for equal (B, d) inputs."""
    if m_t.ndim != 2 or m_v.shape != m_t.shape:
        raise ShapeError(f"cross-modal attention needs equal (B, d) inputs: {m_t.shape} vs {m_v.shape}")
    return 1.0 / math.sqrt(m_t.shape[1])


def cross_attention(m_t: Tensor, m_v: Tensor) -> tuple[Tensor, Tensor]:
    """Row-stochastic (B, d, d) attention maps between the modality vectors,
    as tensors off the tape.

    Logits are the outer product divided by sqrt(d), softmaxed per row;
    the first map attends text->image, the second image->text.
    """
    c = logit_scale(m_t.data, m_v.data)
    f_tv = T.rank1_softmax(m_t.data, m_v.data, c)
    f_vt = T.rank1_softmax(m_v.data, m_t.data, c)
    return T.Tensor(f_tv), T.Tensor(f_vt)


def modality_update(m_t: Tensor, m_v: Tensor) -> tuple[Tensor, Tensor]:
    """Each modality vector smoothed through the other modality's attention:
    (``cross_attention`` maps) @ (m_v, m_t), without building the maps."""
    c = logit_scale(m_t.data, m_v.data)
    return T.rank1_attention(m_t, m_v, c), T.rank1_attention(m_v, m_t, c)


def interaction_feature(
    m_f_v: Tensor, m_f_t: Tensor, w1: Param, b1: Param, w2: Param, b2: Param
) -> Tensor:
    """Pooled rank-1 interaction of the updated vectors, through the MLP.

    The interaction matrix is the outer product; pooling takes the max
    over rows (one value per column) in closed form, without building the
    matrix, and the MLP is d -> d -> d with a ReLU in between.
    """
    pooled = T.rank1_max_pool(m_f_v, m_f_t)
    hidden = T.relu(T.matvec(w1, pooled, b1))
    return T.matvec(w2, hidden, b2)
