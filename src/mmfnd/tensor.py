"""Dense float64 tensor kernel with hand-derived reverse-mode gradients.

Tensors wrap numpy arrays and record their producing operation on a tape;
calling ``backward()`` on a scalar result propagates gradients to every
leaf. One tape covers a whole training batch: ops act on (B, ...) arrays
and treat the leading axes as batch axes. A model stage that would take a
chain of small ops (a loss head, an attention pool, gated fusion) is one
fused op with a closed-form backward, so a default training step builds
32 nodes. Broadcasting is explicit: each op states the shapes it accepts.

Scoring builds no tape: ``Model.predict_batch`` runs the same forward on
plain arrays, because a score needs no gradient. An op whose forward takes
more than a couple of numpy calls computes it in a private array kernel
(``_matmul``, ``_matvec``, ``_sigmoid``, ``_attention_pool``,
``_rank1_attention``, ``_l2_normalize``, ``_rank1_max_pool``,
``_gated_concat``) that the plain forward calls too, so a score is
bit-identical to the tape's probabilities by construction. One item is
scored by about a hundred calls on arrays of a few dozen entries, so call
overhead is most of its cost: these kernels and ``softmax`` reduce through
``np.maximum.reduce`` and the like, which skip the Python frame that the
``.max()`` and ``.sum()`` methods add, and ``_matvec`` skips the reshapes
of a 2-D operand.

The module holds only the ops that training, scoring and enrichment run,
plus ``softmax`` and ``rank1_softmax``, which compute plain arrays for the
explicit views in ``align`` and ``interact``. The op-by-op references that
the fused ops are checked against live in the tests.
"""

from __future__ import annotations

import math

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

        Afterwards the graph is unlinked: the gradients have reached the
        leaves, and each node's closure holds its own output, so a linked
        graph would live until the cyclic collector ran.
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
    """Trainable leaf tensor with a persistent, accumulated gradient.

    A standalone Param owns its arrays. One built by ``ParamRegistry`` is
    given ``data`` and ``grad`` as views into the registry's flat buffers.
    Every update therefore writes into those arrays in place (``+=``,
    ``[...] =``). Rebinding ``p.data`` or ``p.grad`` to a new array would
    detach the parameter from the buffers that the optimizer, the gradient
    reset and the finite check read.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, data, grad=None):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data) if grad is None else grad

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.data.shape})"


class ParamRegistry:
    """Ordered name -> Param map holding every trainable weight of a model.

    The registry owns the parameter memory: two contiguous float64 arrays,
    ``data`` and ``grad``, laid out in registry order. Each Param's ``data``
    and ``grad`` are reshaped views into them, so whole-model passes (the
    optimizer step, the gradient reset, the finite check) are a few calls
    over the flat arrays instead of one loop iteration per parameter.
    """

    def __init__(self, arrays):
        """Copy each ``(name, array)`` pair, in order, into the flat buffer.
        A repeated name raises ValueError."""
        arrays = [(name, np.asarray(a, dtype=np.float64)) for name, a in arrays]
        size = sum(a.size for _, a in arrays)
        self.data = np.empty(size)
        self.grad = np.zeros(size)  # calloc'd: pages cost no memory until written
        self._params: dict[str, Param] = {}
        start = 0
        for name, a in arrays:
            if name in self._params:
                raise ValueError(f"parameter {name!r} already registered")
            end = start + a.size
            data = self.data[start:end].reshape(a.shape)
            data[...] = a
            self._params[name] = Param(name, data, self.grad[start:end].reshape(a.shape))
            start = end

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params)

    def reset_gradients(self) -> None:
        self.grad.fill(0.0)


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


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B for a 2-D B, with A's leading axes folded into one 2-D product."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:])


def matmul(a: Tensor | np.ndarray, b: Tensor) -> Tensor:
    """C = A @ B for a 2-D B; leading axes of A beyond the last are batch axes.

    The leading axes are folded into one 2-D product, forward and backward:
    numpy would otherwise run one small GEMM per batch row. A plain array
    ``a`` is a constant: it is no parent and gets no gradient.
    """
    const_a = isinstance(a, np.ndarray)
    a_data = a if const_a else a.data
    if b.data.ndim != 2 or a_data.ndim < 2 or a_data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a_data.shape} vs {b.data.shape}")
    out = Tensor(_matmul(a_data, b.data), (b,) if const_a else (a, b))

    def _backward():
        g = out.grad.reshape(-1, b.data.shape[1])
        if not const_a:
            a.grad += (g @ b.data.T).reshape(a_data.shape)
        b.grad += a_data.reshape(-1, a_data.shape[-1]).T @ g

    out._backward = _backward
    return out


def _matvec(a: np.ndarray, x: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """A x (+ b) for every vector along the last axis of x, as one 2-D product."""
    flat = x.ndim == 2
    y = (x if flat else x.reshape(-1, a.shape[1])) @ a.T
    if b is not None:
        y += b
    return y if flat else y.reshape(x.shape[:-1] + a.shape[:1])


def matvec(a: Tensor, x: Tensor | np.ndarray, b: Tensor | None = None) -> Tensor:
    """y = A x (+ b) for every vector along the last axis of x (a dense layer).

    As in ``matmul``, the leading axes of x form one 2-D product, and a
    plain array ``x`` is a constant input that gets no gradient.
    """
    const_x = isinstance(x, np.ndarray)
    x_data = x if const_x else x.data
    if a.data.ndim != 2 or x_data.shape[-1:] != a.data.shape[1:]:
        raise ShapeError(f"matvec inner dims disagree: {a.data.shape} vs {x_data.shape}")
    if b is not None and b.data.shape != a.data.shape[:1]:
        raise ShapeError(f"matvec bias has shape {b.data.shape}, expected {a.data.shape[:1]}")
    parents = (a,) if const_x else (a, x)
    if b is not None:
        parents += (b,)
    out = Tensor(_matvec(a.data, x_data, None if b is None else b.data), parents)

    def _backward():
        g = out.grad.reshape(-1, a.data.shape[0])
        a.grad += g.T @ x_data.reshape(-1, a.data.shape[1])
        if not const_x:
            x.grad += (g @ a.data).reshape(x_data.shape)
        if b is not None:
            b.grad += g.sum(axis=0)

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


def affine(x: Tensor, a, b) -> Tensor:
    """a*x + b with constant coefficients: python floats or arrays shaped like x."""
    out = Tensor(a * x.data + b, (x,))

    def _backward():
        x.grad += a * out.grad

    out._backward = _backward
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), (x,))

    def _backward():
        x.grad += out.grad * (x.data > 0.0)

    out._backward = _backward
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split form avoids overflow in exp for large |x|
    z = np.exp(-np.abs(x))
    total = 1.0 + z
    return np.where(x >= 0, 1.0 / total, z / total)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    out = Tensor(y, (x,))

    def _backward():
        x.grad += out.grad * y * (1.0 - y)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# softmax and normalization
# ---------------------------------------------------------------------------


def softmax(z: np.ndarray, mask: np.ndarray | None = None, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability, as a plain
    array; it builds no tape node. With a boolean ``mask`` (z's shape),
    masked-out entries get probability zero, and a slice with no entry left
    is all zeros."""
    if mask is not None:
        z = np.where(mask, z, -np.inf)
    top = np.maximum.reduce(z, axis=axis, keepdims=True)
    if mask is not None:
        top[~np.isfinite(top)] = 0.0
    e = np.exp(z - top)
    total = np.add.reduce(e, axis=axis, keepdims=True)
    if mask is not None:
        total[total == 0.0] = 1.0
    return e / total


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis with max-subtraction for stability."""
    if x.data.ndim < 1:
        raise ShapeError("softmax_rows needs at least one axis")
    p = softmax(x.data)
    out = Tensor(p, (x,))

    def _backward():
        # dx = p * (g - sum(g * p, last axis))
        x.grad += p * (out.grad - np.sum(out.grad * p, axis=-1, keepdims=True))

    out._backward = _backward
    return out


def _attention_pool(q: np.ndarray, m: np.ndarray, mask: np.ndarray, w: np.ndarray):
    """``attention_pool``'s output and its attention weights p."""
    rows = m.shape[:-1]
    if rows[:-1] + m.shape[-1:] != q.shape or mask.shape != rows or w.shape != rows[:-1]:
        raise ShapeError(
            f"attention_pool shapes disagree: q {q.shape}, m {m.shape}, mask {mask.shape}, w {w.shape}"
        )
    p = softmax(np.matmul(m, q[..., None])[..., 0], mask)
    return np.matmul(p[..., None, :], m)[..., 0, :] * w[..., None], p


def attention_pool(q: Tensor, m: Tensor, mask: np.ndarray, w: np.ndarray) -> Tensor:
    """out[..., :] = w[...] * sum_j p[..., j] m[..., j, :], where p is the
    masked softmax over j of the scores m[..., j, :] . q[..., :].

    Each query attends over its own rows of m, which are keys and values
    alike, and pools them scaled by its constant weight w. One node: the
    weights p are kept for the backward, and neither they nor the scores
    are nodes. With g the output gradient, h_j = w g . m_j and the score
    gradient ds = p (h - sum_j p_j h_j), q gets sum_j ds_j m_j and row m_j
    gets p_j w g + ds_j q. A masked-out row has p_j = 0 and gets no gradient.
    """
    y, p = _attention_pool(q.data, m.data, mask, w)
    out = Tensor(y, (q, m))

    def _backward():
        gw = out.grad * w[..., None]
        h = np.matmul(m.data, gw[..., None])[..., 0]
        ds = p * (h - np.sum(h * p, axis=-1, keepdims=True))
        q.grad += np.matmul(ds[..., None, :], m.data)[..., 0, :]
        m.grad += p[..., :, None] * gw[..., None, :] + ds[..., :, None] * q.data[..., None, :]

    out._backward = _backward
    return out


def infonce(a: Tensor, b: Tensor, c: float, floor: float) -> tuple[Tensor, int]:
    """Bidirectional InfoNCE over matched rows of two (n, d) batches, as one
    node, plus the count of diagonal probabilities below ``floor``.

    The logits S = c a b^T are formed once. P, the row softmax of S, scores
    a_i against every row of b; Q, its column softmax, scores b_j against
    every row of a. Each direction averages -log of its diagonal, clamped
    at ``floor``, and the loss is the mean of the two directions. So S gets
    0.5/n ((P - I) by row plus (Q - I) by column), except that a row of P
    (column of Q) whose diagonal lies below the floor gets none: the
    clamped log is constant there.
    """
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise ShapeError(
            f"infonce needs two (n, d) batches of one shape, got {a.data.shape} and {b.data.shape}"
        )
    n = a.data.shape[0]
    s = c * (a.data @ b.data.T)
    p, q = softmax(s), softmax(s, axis=0)
    diag_p, diag_q = np.diagonal(p).copy(), np.diagonal(q).copy()
    loss_p = -np.log(np.maximum(diag_p, floor)).sum() / n
    loss_q = -np.log(np.maximum(diag_q, floor)).sum() / n
    out = Tensor(0.5 * (loss_p + loss_q), (a, b))

    def _backward():
        ar = np.arange(n)
        p[ar, ar] -= 1.0
        q[ar, ar] -= 1.0
        gs = (0.5 * out.grad / n) * (p * (diag_p >= floor)[:, None] + q * (diag_q >= floor)[None, :])
        a.grad += c * (gs @ b.data)
        b.grad += c * (gs.T @ a.data)

    out._backward = _backward
    return out, int((diag_p < floor).sum() + (diag_q < floor).sum())


# ``rank1_attention`` sums a power series in place of exponentiating its
# (..., n, m) logits when the logit radius is at most _SERIES_MAX_RADIUS
# (this bounds the series order at 18 and its error at e^2 half-ulps; see
# the docstring) and the call has at least _SERIES_MIN_LOGITS logits. The
# series costs a fixed number of small array calls, so below that size the
# exp path's one matmul and one exp cost less. Forward + backward on unit
# vectors at c = 1/sqrt(d), 2-vCPU VM, one BLAS thread, exp / series µs:
# 4,096 logits (1, 64) 56 / 84; 16,384 (4, 64) 81 / 96 and (1, 128) 74 / 84;
# 32,768 (8, 64) 149 / 140 and (2, 128) 157 / 141; 65,536 (1, 256) 180 / 94;
# 2,097,152 (32, 256) 6,602 / 582.
_SERIES_MAX_RADIUS = 1.0
_SERIES_MIN_LOGITS = 32768


def _rank1_exp(u: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """exp of the rank-1 logits u_i * cv_j, each row shifted by its maximum.

    A row of a rank-1 matrix peaks at u_i * max(cv) where u_i >= 0, else at
    u_i * min(cv), so the shift costs no pass over the logits, and the shifted
    logits are one (n, 2) @ (2, m) product: [u, -top] @ [cv; 1].
    """
    hi = np.maximum.reduce(cv, axis=-1, keepdims=True)
    lo = np.minimum.reduce(cv, axis=-1, keepdims=True)
    top = np.where(u >= 0.0, u * hi, u * lo)
    # filled in place: np.stack would cost more than the matmul for one item at d=64
    lhs = np.empty(u.shape + (2,))
    lhs[..., 0] = u
    np.negative(top, out=lhs[..., 1])
    rhs = np.empty(cv.shape[:-1] + (2, cv.shape[-1]))
    rhs[..., 0, :] = cv
    rhs[..., 1, :] = 1.0
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


def _exp_moments(u: np.ndarray, v: np.ndarray, c: float):
    """``_series_moments`` through the exponentiated logits: each row's sums
    are of its shifted exp, and ``times_exp`` multiplies by the kept exp."""
    e = _rank1_exp(u, c * v)
    # row sums of e, e * v and e * v^2 in one product
    powers = np.empty(v.shape + (3,))
    powers[..., 0] = 1.0
    powers[..., 1] = v
    np.multiply(v, v, out=powers[..., 2])

    def times_exp(lhs):
        return np.matmul(lhs, e)

    return np.matmul(e, powers), times_exp


def _series_order(u: np.ndarray, v: np.ndarray, c: float) -> int | None:
    """Order K of the exp series ``rank1_attention`` sums for these operands,
    or None when the call takes the exp path: fewer than
    ``_SERIES_MIN_LOGITS`` logits, or a logit radius r = |c| max|u| max|v|
    above ``_SERIES_MAX_RADIUS`` (or not finite).

    K is the smallest order whose first omitted term r^(K+1)/(K+1)! is at
    most 2^-53, half an ulp of 1.
    """
    if u.size * v.shape[-1] < _SERIES_MIN_LOGITS:
        return None
    r = abs(c) * max(u.max(), -u.min()) * max(v.max(), -v.min())
    if not r <= _SERIES_MAX_RADIUS:
        return None
    k, omitted = 0, r
    while omitted > 2.0 ** -53:
        k += 1
        omitted *= r / (k + 1)
    return k


def _series_moments(s: np.ndarray, v: np.ndarray, k: int):
    """Row sums of exp(s_i v_j) times 1, v_j and v_j^2 from power sums of v,
    with the exp expanded to order k.

    Returns the (..., n, 3) sums and ``times_exp(lhs)``, the product
    lhs @ exp(s v^T) (..., m) to the same order, which is
    ((lhs @ S) / q!) @ V with S[..., i, q] = s_i^q and V[..., q, j] = v_j^q.
    """
    # powers stacked on a new leading axis, so each is one contiguous array
    s_pow = np.empty((k + 1,) + s.shape)
    s_pow[0] = 1.0
    for q in range(1, k + 1):
        np.multiply(s_pow[q - 1], s, out=s_pow[q])
    v_pow = np.empty((k + 3,) + v.shape)
    v_pow[0] = 1.0
    for q in range(1, k + 3):
        np.multiply(v_pow[q - 1], v, out=v_pow[q])
    inv_fact = np.array([1.0 / math.factorial(q) for q in range(k + 1)])
    # sum_j exp(s_i v_j) v_j^p = sum_q s_i^q (P_{q+p} / q!), with P_q = sum_j v_j^q
    power_sums = np.moveaxis(v_pow.sum(axis=-1), 0, -1)
    coef = np.empty(s.shape[:-1] + (k + 1, 3))
    for p in range(3):
        np.multiply(power_sums[..., p : p + k + 1], inv_fact, out=coef[..., p])
    s_pow = np.moveaxis(s_pow, 0, -1)
    v_pow = np.moveaxis(v_pow[: k + 1], 0, -2)

    def times_exp(lhs):
        return np.matmul(np.matmul(lhs, s_pow) * inv_fact, v_pow)

    return np.matmul(s_pow, coef), times_exp


def _rank1_attention(u: np.ndarray, v: np.ndarray, c: float):
    """``rank1_attention``'s output, plus the (..., n, 3) moment sums and the
    ``times_exp`` product that its backward reads."""
    if u.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"rank1_attention batch dims disagree: {u.shape} vs {v.shape}")
    k = _series_order(u, v, c)
    if k is None:
        sums, times_exp = _exp_moments(u, v, c)
    else:
        sums, times_exp = _series_moments(c * u, v, k)
    return sums[..., 1] / sums[..., 0], sums, times_exp


def rank1_attention(u: Tensor, v: Tensor, c: float) -> Tensor:
    """out[..., i] = sum_j softmax_j(c * u[..., i] * v[..., j]) * v[..., j]:
    each entry of u attends over v through the rank-1 logits c u v^T.

    One node, and the (..., n, m) attention map is no node at all. With p_i
    the softmax of row i, d out_i / d u_i = c (E_p[v^2] - out_i^2), and the
    gradient of v is a (2, n) @ E product with E = exp(c u v^T).

    Two ways to get E's products, picked per call by ``_series_order``:

    - Series (r = |c| max|u| max|v| <= 1 and at least
      ``_SERIES_MIN_LOGITS`` logits): with s_i = c u_i and power sums
      P_q = sum_j v_j^q, sum_j exp(s_i v_j) v_j^p = sum_{q<=K} s_i^q/q! P_{q+p},
      so the forward is one (n, K+1) @ (K+1, 3) product and E = S @ V with
      S[i, q] = s_i^q/q!, V[q, j] = v_j^q: O((n + m) K) per item, and no
      (..., n, m) array in either direction. K is the smallest order whose
      first omitted term r^(K+1)/(K+1)! is at most 2^-53. Truncation then
      moves each exp(s_i v_j) by at most e^(2r) 2^-53 of its value, and the
      terms' absolute sum is at most e^(2r) times it, which bounds their
      rounding; r <= 1 caps both factors at e^2 and K at 18. Unit vectors
      at c = 1/sqrt(d) give r <= 1/sqrt(d) and K of about 5-7.
    - Exp (every other call): E is exponentiated, each row shifted by its
      peak logit so any r stays finite; it is kept for the backward, and no
      other (..., n, m) temporary is built.
    """
    y, sums, times_exp = _rank1_attention(u.data, v.data, c)
    total = sums[..., 0]
    second = sums[..., 2] / total
    out = Tensor(y, (u, v))

    def _backward():
        g = out.grad
        u.grad += c * g * (second - y * y)
        a = g / total
        b = c * u.data * a
        rows = times_exp(np.stack([a - b * y, b], axis=-2))
        v.grad += rows[..., 0, :] + v.data * rows[..., 1, :]

    out._backward = _backward
    return out


def _l2_normalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vector along the last axis over its norm, and the norms."""
    if v.ndim < 1:
        raise ShapeError("l2_normalize needs at least one axis")
    n = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    if (n == 0.0).any():
        raise DegenerateInputError("l2_normalize of a zero vector")
    return v / n, n


def l2_normalize(v: Tensor) -> Tensor:
    """Each vector along the last axis scaled to unit Euclidean norm."""
    y, n = _l2_normalize(v.data)
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


def _rank1_max_pool(u: np.ndarray, v: np.ndarray):
    """``rank1_max_pool``'s output, the sign mask of v and the picked
    extremes of u that its backward reads."""
    if u.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"rank1_max_pool batch dims disagree: {u.shape} vs {v.shape}")
    pos = v >= 0.0
    hi = np.maximum.reduce(u, axis=-1, keepdims=True)
    picked = np.where(pos, hi, np.minimum.reduce(u, axis=-1, keepdims=True))
    return picked * v, pos, picked


def rank1_max_pool(u: Tensor, v: Tensor) -> Tensor:
    """out[..., j] = max_i u[..., i] * v[..., j], the column max of the rank-1
    matrix u v^T, in O(n + m): v_j * max(u) where v_j >= 0, else v_j * min(u).

    Ties route the gradient to the first maximum (or minimum) of u.
    """
    y, pos, picked = _rank1_max_pool(u.data, v.data)
    out = Tensor(y, (u, v))

    def _backward():
        gv = out.grad * v.data
        v.grad += out.grad * picked
        idx = np.arange(u.data.shape[-1])
        u.grad += (idx == np.argmax(u.data, axis=-1)[..., None]) * np.sum(gv * pos, axis=-1, keepdims=True)
        u.grad += (idx == np.argmin(u.data, axis=-1)[..., None]) * np.sum(gv * ~pos, axis=-1, keepdims=True)

    out._backward = _backward
    return out


def binary_nll(probs: Tensor, col: int, positive: np.ndarray, eps: float) -> Tensor:
    """Mean binary cross-entropy of column ``col`` of (B, k) probabilities,
    as one node: -log p in rows where ``positive`` holds, -log(1 - p) in
    the others, with p clamped to [eps, 1 - eps]. The gradient reaches
    column ``col`` only, and is zero in rows where p was clamped.
    """
    if probs.data.ndim != 2 or np.shape(positive) != probs.data.shape[:1]:
        raise ShapeError(
            f"binary_nll needs (B, k) probabilities and B targets, "
            f"got {probs.data.shape} and {np.shape(positive)}"
        )
    n = probs.data.shape[0]
    raw = probs.data[:, col]
    p = np.clip(raw, eps, 1.0 - eps)
    p_true = np.where(positive, p, 1.0 - p)
    out = Tensor(-np.log(p_true).mean(), (probs,))

    def _backward():
        sign = np.where(positive, 1.0, -1.0)
        inside = (raw >= eps) & (raw <= 1.0 - eps)
        probs.grad[:, col] += sign * ((-out.grad / n) / p_true) * inside

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


def _gated_concat(parts: list[np.ndarray], gates: np.ndarray):
    """``gated_concat``'s output and the (..., k, d) stack of its parts."""
    shapes = {p.shape for p in parts}
    lead = parts[0].shape[:-1]
    if len(shapes) != 1 or parts[0].ndim < 1 or gates.shape != lead + (len(parts),):
        raise ShapeError(
            f"gated_concat needs equal parts and one gate each, "
            f"got {[p.shape for p in parts]} and {gates.shape}"
        )
    x = np.concatenate(parts, axis=-1).reshape(lead + (len(parts), -1))  # (..., k, d)
    return (x * gates[..., None]).reshape(lead + (-1,)), x


def gated_concat(parts: list[Tensor], gates: Tensor) -> Tensor:
    """``concat`` of equal-shape parts, part i scaled by gates[..., i], as
    one node; ``gates`` has one entry per part for each leading index."""
    y, x = _gated_concat([p.data for p in parts], gates.data)
    out = Tensor(y, (*parts, gates))

    def _backward():
        g = out.grad.reshape(x.shape)
        gates.grad += np.sum(g * x, axis=-1)
        g = g * gates.data[..., None]
        for i, p in enumerate(parts):
            p.grad += g[..., i, :]

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
