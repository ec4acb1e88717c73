"""Contrastive alignment of text and image features in a shared space.

Both modalities are mapped through their own fully connected layer onto
the unit sphere; matched pairs inside a batch act as positives against
all other in-batch combinations.

Training takes the bidirectional InfoNCE loss in one ``tensor.infonce``
node, straight from the two embedding batches. ``similarity_matrix`` is
the explicit row-stochastic matrix of one direction: the loss's reference
in the tests, and the distribution that telemetry reads.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ConfigError
from .tensor import Param, Tensor

LOG_CLAMP = 1e-12


def _check_temperature(tau: float) -> None:
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")


def shared_encode(r: Tensor, w: Param, b: Param) -> Tensor:
    """Unit-norm shared-space embeddings (B, d) of unimodal features (B, d)."""
    return T.l2_normalize(T.matvec(w, r, b))


def similarity_matrix(e_a: Tensor, e_b: Tensor, tau: float) -> Tensor:
    """Row-stochastic similarity: softmax over temperature-scaled dot products.

    Entry (i, j) is the probability mass that row i of ``e_a`` assigns to
    row j of ``e_b`` among all in-batch candidates.
    """
    _check_temperature(tau)
    logits = T.scale(T.matmul(e_a, T.transpose(e_b)), 1.0 / tau)
    return T.softmax_rows(logits)


def contrastive_loss(e_v: Tensor, e_t: Tensor, tau: float, diagnostics: dict | None = None) -> Tensor:
    """Bidirectional InfoNCE over matched (diagonal) pairs of the (n, d)
    embedding batches ``e_v`` and ``e_t``.

    Each direction averages -log of the diagonal of its similarity matrix
    (``similarity_matrix(e_v, e_t, tau)`` and ``(e_t, e_v, tau)``); the
    final loss is the mean of the two directions. Diagonal probabilities
    are clamped at 1e-12 before the log, and a clamped one passes no
    gradient; clamp events are counted in ``diagnostics`` when provided.
    """
    _check_temperature(tau)
    loss, clamped = T.infonce(e_v, e_t, 1.0 / tau, LOG_CLAMP)
    if diagnostics is not None and clamped:
        diagnostics["clamped_log_events"] = diagnostics.get("clamped_log_events", 0) + clamped
    return loss
