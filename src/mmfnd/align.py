"""Contrastive alignment of text and image features in a shared space.

Both modalities are mapped through their own fully connected layer onto
the unit sphere; matched pairs inside a batch act as positives against
all other in-batch combinations.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ConfigError
from .tensor import Param, ShapeError, Tensor

LOG_CLAMP = 1e-12


def shared_encode(r: Tensor, w: Param, b: Param) -> Tensor:
    """Unit-norm shared-space embeddings (B, d) of unimodal features (B, d)."""
    return T.l2_normalize(T.matvec(w, r, b))


def similarity_matrix(e_a: Tensor, e_b: Tensor, tau: float) -> Tensor:
    """Row-stochastic similarity: softmax over temperature-scaled dot products.

    Entry (i, j) is the probability mass that row i of ``e_a`` assigns to
    row j of ``e_b`` among all in-batch candidates.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    logits = T.scale(T.matmul(e_a, T.transpose(e_b)), 1.0 / tau)
    return T.softmax_rows(logits)


def contrastive_loss(p_vt: Tensor, p_tv: Tensor, diagnostics: dict | None = None) -> Tensor:
    """Bidirectional InfoNCE over matched (diagonal) pairs.

    Each direction averages -log of the diagonal probabilities; the final
    loss is the mean of the two directions. Diagonal probabilities are
    clamped at 1e-12 before the log; clamp events are counted in
    ``diagnostics`` when provided.
    """
    n, cols = p_vt.data.shape
    if n != cols or p_tv.data.shape != (n, n):
        raise ShapeError(f"contrastive_loss needs square matrices of equal size, got {p_vt.data.shape} and {p_tv.data.shape}")
    diag_vt = T.take_diag(p_vt)
    diag_tv = T.take_diag(p_tv)
    if diagnostics is not None:
        clamped = int((diag_vt.data < LOG_CLAMP).sum() + (diag_tv.data < LOG_CLAMP).sum())
        if clamped:
            diagnostics["clamped_log_events"] = diagnostics.get("clamped_log_events", 0) + clamped
    loss_vt = T.scale(T.tsum(T.log(T.clip(diag_vt, LOG_CLAMP, None))), -1.0 / n)
    loss_tv = T.scale(T.tsum(T.log(T.clip(diag_tv, LOG_CLAMP, None))), -1.0 / n)
    return T.scale(T.add(loss_vt, loss_tv), 0.5)
