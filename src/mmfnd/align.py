"""Contrastive alignment of text and image features in a shared space.

Both modalities are mapped through their own fully connected layer onto
the unit sphere; matched pairs inside a batch act as positives against
all other in-batch combinations.

Training takes the bidirectional InfoNCE loss in one ``tensor.infonce``
node, straight from the two embedding batches. ``similarity_matrix`` is
the explicit row-stochastic matrix of one direction, as a tensor off the
tape. Training does not call it; it stays while the benchmark's stage
tracer patches it by name, until the package has a stage hook of its own.
"""

from __future__ import annotations

import math

from . import tensor as T
from .errors import ConfigError
from .tensor import Param, Tensor

LOG_CLAMP = 1e-12


def _check_temperature(tau: float) -> None:
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigError(f"tau must be a finite positive temperature, got {tau}")


def shared_encode(r: Tensor, w: Param, b: Param) -> Tensor:
    """Unit-norm shared-space embeddings (B, d) of unimodal features (B, d)."""
    return T.l2_normalize(T.matvec(w, r, b))


def similarity_matrix(e_a: Tensor, e_b: Tensor, tau: float) -> Tensor:
    """Row-stochastic similarity: softmax over temperature-scaled dot
    products, as a tensor off the tape (no parents, no gradient).

    Entry (i, j) is the probability mass that row i of ``e_a`` assigns to
    row j of ``e_b`` among all in-batch candidates.
    """
    _check_temperature(tau)
    return T.Tensor(T.softmax((1.0 / tau) * (e_a.data @ e_b.data.T)))


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
