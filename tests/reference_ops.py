"""Tape ops that only the tests use.

The package fuses each model stage into one node. The op-by-op references
that the fused ops are checked against, and the scalar losses of the
gradient tests, are built from these small ops instead. Each op has a
finite-difference check in ``test_tensor.OP_CASES``.
"""

from __future__ import annotations

import numpy as np

from mmfnd import tensor as T
from mmfnd.tensor import ShapeError, Tensor


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    out = Tensor(x.data.sum(), (x,))

    def _backward():
        x.grad += out.grad

    out._backward = _backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes disagree: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data, (a, b))

    def _backward():
        a.grad += out.grad * b.data
        b.grad += out.grad * a.data

    out._backward = _backward
    return out


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise ShapeError(f"transpose needs at least 2 axes, got shape {x.data.shape}")
    out = Tensor(np.swapaxes(x.data, -1, -2).copy(), (x,))

    def _backward():
        x.grad += np.swapaxes(out.grad, -1, -2)

    out._backward = _backward
    return out


def bmv(m: Tensor, v: Tensor) -> Tensor:
    """Batched matrix-vector product: out[..., i] = sum_j m[..., i, j] v[..., j]."""
    if m.data.ndim != v.data.ndim + 1 or m.data.shape[:-2] + m.data.shape[-1:] != v.data.shape:
        raise ShapeError(f"bmv shapes disagree: {m.data.shape} vs {v.data.shape}")
    out = Tensor(np.matmul(m.data, v.data[..., None])[..., 0], (m, v))

    def _backward():
        m.grad += out.grad[..., :, None] * v.data[..., None, :]
        v.grad += np.matmul(out.grad[..., None, :], m.data)[..., 0, :]

    out._backward = _backward
    return out


def scale_rows(m: Tensor, w: Tensor) -> Tensor:
    """Each vector along the last axis of m multiplied by its entry of w."""
    if m.data.shape[:-1] != w.data.shape or m.data.ndim < 1:
        raise ShapeError(f"scale_rows shapes disagree: {m.data.shape} vs {w.data.shape}")
    out = Tensor(m.data * w.data[..., None], (m, w))

    def _backward():
        m.grad += out.grad * w.data[..., None]
        w.grad += np.sum(out.grad * m.data, axis=-1)

    out._backward = _backward
    return out


def masked_softmax_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """``tensor.softmax_rows`` over the entries where the boolean ``mask``
    (x's shape) holds: masked-out entries get probability zero, and a row
    with no entry left is all zeros."""
    p = T.softmax(x.data, mask)
    out = Tensor(p, (x,))

    def _backward():
        x.grad += p * (out.grad - np.sum(out.grad * p, axis=-1, keepdims=True))

    out._backward = _backward
    return out
