"""Dense float64 tensor kernel with hand-derived reverse-mode gradients.

Tensors wrap numpy arrays and record their producing operation on a tape;
calling ``backward()`` on a scalar result propagates gradients to every
leaf. One tape covers a whole batch: ops act on (B, ...) arrays and treat
the leading axes as batch axes, so a training step builds a few dozen
nodes, not a few per item. Broadcasting is explicit: each op states the
shapes it accepts.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DegenerateInputError(ValueError):
    """Input is outside an operation's domain (e.g. normalizing a zero vector)."""


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = None

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Afterwards the graph is unlinked (see ``release``): the gradients
        have reached the leaves, and each node's closure holds its own
        output, so a linked graph would live until the cyclic collector ran.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward() needs a scalar output, got shape {self.data.shape}")
        order = _topo_order(self)
        for node in order:
            if node.grad is None:
                node.grad = np.zeros(node.data.shape)
        self.grad += 1.0
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
        for node in order:
            node._backward = None
            node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Param(Tensor):
    """Trainable leaf tensor with a persistent, accumulated gradient."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.data.shape})"


class ParamRegistry:
    """Ordered name -> Param map holding every trainable weight of a model."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def register(self, name: str, data) -> Param:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        p = Param(name, data)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params)

    def reset_gradients(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS: no recursion limit however deep the graph.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def release(root: Tensor) -> None:
    """Unlink the graph under ``root`` without a backward sweep (inference),
    so reference counting frees it as soon as its tensors go out of use."""
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node._parents)  # a node reached twice has no parents left
        node._parents = ()
        node._backward = None


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C = A @ B for a 2-D B; leading axes of A beyond the last are batch axes."""
    if b.data.ndim != 2 or a.data.ndim < 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def _backward():
        a.grad += out.grad @ b.data.T
        b.grad += a.data.reshape(-1, a.data.shape[-1]).T @ out.grad.reshape(-1, b.data.shape[1])

    out._backward = _backward
    return out


def matvec(a: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """y = A x (+ b) for every vector along the last axis of x (a dense layer)."""
    if a.data.ndim != 2 or x.data.shape[-1:] != a.data.shape[1:]:
        raise ShapeError(f"matvec inner dims disagree: {a.data.shape} vs {x.data.shape}")
    if b is not None and b.data.shape != a.data.shape[:1]:
        raise ShapeError(f"matvec bias has shape {b.data.shape}, expected {a.data.shape[:1]}")
    y = x.data @ a.data.T
    if b is not None:
        y += b.data
    out = Tensor(y, (a, x) if b is None else (a, x, b))

    def _backward():
        g = out.grad.reshape(-1, a.data.shape[0])
        a.grad += g.T @ x.data.reshape(-1, a.data.shape[1])
        x.grad += out.grad @ a.data
        if b is not None:
            b.grad += g.sum(axis=0)

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


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise ShapeError(f"transpose needs at least 2 axes, got shape {x.data.shape}")
    out = Tensor(np.swapaxes(x.data, -1, -2).copy(), (x,))

    def _backward():
        x.grad += np.swapaxes(out.grad, -1, -2)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# elementwise and affine
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes disagree: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data, (a, b))

    def _backward():
        a.grad += out.grad
        b.grad += out.grad

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


def affine(x: Tensor, a, b) -> Tensor:
    """a*x + b with constant coefficients: python floats or arrays shaped like x."""
    out = Tensor(a * x.data + b, (x,))

    def _backward():
        x.grad += a * out.grad

    out._backward = _backward
    return out


def scale(x: Tensor, c: float) -> Tensor:
    return affine(x, c, 0.0)


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


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), (x,))

    def _backward():
        x.grad += out.grad * (x.data > 0.0)

    out._backward = _backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    # split form avoids overflow in exp for large |x|
    y = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = Tensor(y, (x,))

    def _backward():
        x.grad += out.grad * y * (1.0 - y)

    out._backward = _backward
    return out


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data), (x,))

    def _backward():
        x.grad += out.grad / x.data

    out._backward = _backward
    return out


def clip(x: Tensor, lo: float | None, hi: float | None) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through only where unclamped."""
    out = Tensor(np.clip(x.data, lo, hi), (x,))
    mask = np.ones_like(x.data, dtype=bool)
    if lo is not None:
        mask &= x.data >= lo
    if hi is not None:
        mask &= x.data <= hi

    def _backward():
        x.grad += out.grad * mask

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# softmax and normalization
# ---------------------------------------------------------------------------


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along the last axis with max-subtraction for stability.

    With a boolean ``mask`` (x's shape), masked-out entries get probability
    zero; a row with no entry left is all zeros.
    """
    if x.data.ndim < 1:
        raise ShapeError("softmax_rows needs at least one axis")
    z = x.data if mask is None else np.where(mask, x.data, -np.inf)
    top = z.max(axis=-1, keepdims=True)
    if mask is not None:
        top[~np.isfinite(top)] = 0.0
    e = np.exp(z - top)
    total = e.sum(axis=-1, keepdims=True)
    if mask is not None:
        total[total == 0.0] = 1.0
    p = e / total
    out = Tensor(p, (x,))

    def _backward():
        # dx = p * (g - sum(g * p, last axis))
        x.grad += p * (out.grad - np.sum(out.grad * p, axis=-1, keepdims=True))

    out._backward = _backward
    return out


def _rank1_exp(u: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """exp of the rank-1 logits u_i * cv_j, each row shifted by its maximum.

    A row of a rank-1 matrix peaks at u_i * max(cv) where u_i >= 0, else at
    u_i * min(cv), so the shift costs no pass over the logits, and the shifted
    logits are one (n, 2) @ (2, m) product: [u, -top] @ [cv; 1].
    """
    top = np.where(u >= 0.0, u * cv.max(axis=-1, keepdims=True), u * cv.min(axis=-1, keepdims=True))
    # filled in place: np.stack would cost more than the matmul for one item at d=64
    lhs = np.empty(u.shape + (2,))
    lhs[..., 0] = u
    np.negative(top, out=lhs[..., 1])
    rhs = np.ones(cv.shape[:-1] + (2, cv.shape[-1]))
    rhs[..., 0, :] = cv
    e = np.matmul(lhs, rhs)
    np.exp(e, out=e)
    return e


def rank1_softmax(u: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """p[..., i, :] = softmax(c * u[..., i] * v): the row-wise softmax of the
    scaled outer product of each pair of vectors, as a plain array.

    This is the explicit (..., n, m) map that ``rank1_attention`` attends
    through without keeping; it builds no tape node.
    """
    e = _rank1_exp(u, c * v)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def rank1_attention(u: Tensor, v: Tensor, c: float) -> Tensor:
    """out[..., i] = sum_j softmax_j(c * u[..., i] * v[..., j]) * v[..., j]:
    each entry of u attends over v through the rank-1 logits c u v^T.

    One node, and the (..., n, m) attention map is no node at all: the
    forward keeps only its unnormalised exp, and the backward builds no
    (..., n, m) temporary. With p_i the softmax of row i,
    d out_i / d u_i = c (E_p[v^2] - out_i^2), and the gradient of v is one
    (2, n) @ (n, m) product with the kept exp.
    """
    if u.data.shape[:-1] != v.data.shape[:-1]:
        raise ShapeError(f"rank1_attention batch dims disagree: {u.data.shape} vs {v.data.shape}")
    e = _rank1_exp(u.data, c * v.data)
    # row sums of e, e * v and e * v^2 in one product
    powers = np.ones(v.data.shape + (3,))
    powers[..., 1] = v.data
    np.multiply(v.data, v.data, out=powers[..., 2])
    sums = np.matmul(e, powers)
    total = sums[..., 0]
    y = sums[..., 1] / total
    second = sums[..., 2] / total
    out = Tensor(y, (u, v))

    def _backward():
        g = out.grad
        u.grad += c * g * (second - y * y)
        a = g / total
        b = c * u.data * a
        rows = np.matmul(np.stack([a - b * y, b], axis=-2), e)
        v.grad += rows[..., 0, :] + v.data * rows[..., 1, :]

    out._backward = _backward
    return out


def l2_normalize(v: Tensor) -> Tensor:
    """Each vector along the last axis scaled to unit Euclidean norm."""
    if v.data.ndim < 1:
        raise ShapeError("l2_normalize needs at least one axis")
    n = np.sqrt(np.sum(v.data * v.data, axis=-1, keepdims=True))
    if np.any(n == 0.0):
        raise DegenerateInputError("l2_normalize of a zero vector")
    y = v.data / n
    out = Tensor(y, (v,))

    def _backward():
        # d v = (g - y (y.g)) / ||v||
        v.grad += (out.grad - y * np.sum(y * out.grad, axis=-1, keepdims=True)) / n

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def mean_pool(x: Tensor, axis: int) -> Tensor:
    if not 0 <= axis < x.data.ndim:
        raise ShapeError(f"mean_pool axis {axis} out of range for shape {x.data.shape}")
    m = x.data.shape[axis]
    out = Tensor(x.data.mean(axis=axis), (x,))

    def _backward():
        x.grad += np.expand_dims(out.grad, axis) / m

    out._backward = _backward
    return out


def rank1_max_pool(u: Tensor, v: Tensor) -> Tensor:
    """out[..., j] = max_i u[..., i] * v[..., j], the column max of the rank-1
    matrix u v^T, in O(n + m): v_j * max(u) where v_j >= 0, else v_j * min(u).

    Ties route the gradient to the first maximum (or minimum) of u.
    """
    if u.data.shape[:-1] != v.data.shape[:-1]:
        raise ShapeError(f"rank1_max_pool batch dims disagree: {u.data.shape} vs {v.data.shape}")
    pos = v.data >= 0.0
    picked = np.where(pos, u.data.max(axis=-1, keepdims=True), u.data.min(axis=-1, keepdims=True))
    out = Tensor(picked * v.data, (u, v))

    def _backward():
        gv = out.grad * v.data
        v.grad += out.grad * picked
        idx = np.arange(u.data.shape[-1])
        u.grad += (idx == np.argmax(u.data, axis=-1)[..., None]) * np.sum(gv * pos, axis=-1, keepdims=True)
        u.grad += (idx == np.argmin(u.data, axis=-1)[..., None]) * np.sum(gv * ~pos, axis=-1, keepdims=True)

    out._backward = _backward
    return out


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    out = Tensor(x.data.sum(), (x,))

    def _backward():
        x.grad += out.grad

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis; leading axes must agree."""
    leading = {p.data.shape[:-1] for p in parts}
    if len(leading) != 1 or parts[0].data.ndim < 1:
        raise ShapeError(f"concat needs equal leading dims, got {[p.data.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1), tuple(parts))
    sizes = [p.data.shape[-1] for p in parts]

    def _backward():
        off = 0
        for p, size in zip(parts, sizes):
            p.grad += out.grad[..., off:off + size]
            off += size

    out._backward = _backward
    return out


def stack_rows(parts: list[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    shapes = {p.data.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeError(f"stack_rows needs equal shapes, got {sorted(shapes)}")
    out = Tensor(np.stack([p.data for p in parts]), tuple(parts))

    def _backward():
        for i, p in enumerate(parts):
            p.grad += out.grad[i]

    out._backward = _backward
    return out


def take_at(v: Tensor, i: int) -> Tensor:
    """Entry i along the last axis (a 0-d tensor for a vector)."""
    if v.data.ndim < 1:
        raise ShapeError("take_at needs at least one axis")
    out = Tensor(v.data[..., i], (v,))

    def _backward():
        v.grad[..., i] += out.grad

    out._backward = _backward
    return out


def take_diag(m: Tensor) -> Tensor:
    """Diagonal of a square matrix."""
    if m.data.ndim != 2 or m.data.shape[0] != m.data.shape[1]:
        raise ShapeError(f"take_diag needs a square matrix, got {m.data.shape}")
    out = Tensor(np.diagonal(m.data).copy(), (m,))
    ar = np.arange(m.data.shape[0])

    def _backward():
        m.grad[ar, ar] += out.grad

    out._backward = _backward
    return out
