"""Cross-modal semantic interaction between aligned modality vectors.

For each item, mutual attention maps are built from the scaled outer
product of its two aligned vectors, each modality is updated through the
other's attention, and the rank-1 interaction matrix of the updated
vectors is pooled and passed through a two-layer MLP. Every function takes
a batch: vectors are (B, d) and attention maps (B, d, d).
"""

from __future__ import annotations

import math

from . import tensor as T
from .tensor import Param, ShapeError, Tensor


def cross_attention(m_t: Tensor, m_v: Tensor) -> tuple[Tensor, Tensor]:
    """Row-stochastic (B, d, d) attention maps between the modality vectors.

    Logits are the outer product divided by sqrt(d), softmaxed per row;
    the first map attends text->image, the second image->text.
    """
    if m_t.data.ndim != 2 or m_v.data.shape != m_t.data.shape:
        raise ShapeError(f"cross_attention needs equal (B, d) inputs: {m_t.data.shape} vs {m_v.data.shape}")
    inv_sqrt_d = 1.0 / math.sqrt(m_t.data.shape[1])
    return T.outer_softmax(m_t, m_v, inv_sqrt_d), T.outer_softmax(m_v, m_t, inv_sqrt_d)


def modality_update(f_tv: Tensor, f_vt: Tensor, m_v: Tensor, m_t: Tensor) -> tuple[Tensor, Tensor]:
    """Each modality vector smoothed through the other modality's attention."""
    return T.bmv(f_tv, m_v), T.bmv(f_vt, m_t)


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
