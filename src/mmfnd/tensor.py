"""Dense float64 tensor kernel with hand-derived reverse-mode gradients.

Tensors wrap numpy arrays and record their producing operation on a tape;
calling ``backward()`` on a scalar result propagates gradients to every
leaf. One tape covers a whole training batch: ops act on (B, ...) arrays
and treat the leading axes as batch axes. A model stage that would take a
chain of small ops (a loss head, an attention pool, the channel mean,
gated fusion) is one fused op with a closed-form backward, so a default
training step builds 31 nodes. Where one computation serves two results
(``matmul`` split into row blocks, the two directions of
``rank1_attention``), each result is its own node with the backward that
result would have alone, so the tape and its arithmetic stay those of two
separate calls. Broadcasting is explicit: each op states the shapes it
accepts.

An op records a node only when an operand needs a gradient. Given plain
arrays where it takes tensors, every op but the loss heads (``infonce``,
``binary_nll``) runs the same shape checks and arithmetic and returns its
result as a plain array, with no node. So ``Model.forward`` is one wiring
for both uses: on the registry's ``Param``s it records a training tape,
and on their arrays it scores, to the same bits, without one. One item is
scored by about a hundred numpy calls on arrays of a few dozen entries, so
call overhead is most of its cost: the ops and ``softmax`` reduce through
``np.maximum.reduce`` and the like, which skip the Python frame that the
``.max()`` and ``.sum()`` methods add, and ``matvec`` skips the reshapes
of a 2-D operand. An operand counts as plain when it is an ``np.ndarray``
or a numpy scalar (what a ufunc makes of 0-d operands), not when it is no
``Tensor``: a stage tracer may rebind ``Tensor`` to a subclass, which a
``Param`` is then no instance of. Each backward closure takes what it
reads as default arguments, not as closure cells: Python makes a
function's cells on every call, so they would cost the plain path too.

The module holds only the ops that training, scoring and enrichment run,
plus ``softmax``, which computes plain arrays for the explicit views in
``align`` and ``interact``. The op-by-op references that the fused
ops are checked against live in the tests.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DegenerateInputError(ValueError):
    """Input is outside an operation's domain (e.g. normalizing a zero vector).
    ``rows`` holds the offending rows' flat indices when the op knows them."""

    def __init__(self, message: str, rows: tuple[int, ...] = ()):
        super().__init__(message)
        self.rows = rows


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
    ``arrays`` maps each name to its Param's ``data`` view: what
    ``Model.forward`` reads to score without a tape.
    """

    def __init__(self, arrays):
        """Copy each ``(name, array)`` pair, in order, into the flat buffer.
        A repeated name raises ValueError."""
        arrays = [(name, np.asarray(a, dtype=np.float64)) for name, a in arrays]
        size = sum(a.size for _, a in arrays)
        self.data = np.empty(size)
        self.grad = np.zeros(size)  # calloc'd: pages cost no memory until written
        self._params: dict[str, Param] = {}
        self.arrays: dict[str, np.ndarray] = {}
        start = 0
        for name, a in arrays:
            if name in self._params:
                raise ValueError(f"parameter {name!r} already registered")
            end = start + a.size
            data = self.data[start:end].reshape(a.shape)
            data[...] = a
            self._params[name] = Param(name, data, self.grad[start:end].reshape(a.shape))
            self.arrays[name] = data
            start = end

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params)

    def reset_gradients(self) -> None:
        self.grad.fill(0.0)


# what an op takes as a plain operand: arrays, and the numpy scalars that a
# ufunc returns for 0-d operands
_PLAIN = (np.ndarray, np.generic)


def data_of(x: Tensor | np.ndarray) -> np.ndarray:
    """The array of a tensor, or a plain array as it is."""
    return x if isinstance(x, _PLAIN) else x.data


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


def matmul(a: np.ndarray, b: Tensor | np.ndarray, blocks: list) -> list:
    """C = A @ B for a constant (N, k) array A and a (k, m) B, returned as
    its row blocks: ``blocks`` is a list of leading shapes whose sizes add
    up to N, and C is a list of one block per shape, each shaped
    ``shape + (m,)``. So one product serves several results.

    A is a constant: it is no parent and gets no gradient. With ``b`` a
    plain array, the blocks are plain arrays. On the tape each block is its
    own node, whose backward adds ``a_block.T @ g`` to B's gradient, as a
    product of that block alone would.
    """
    plain = isinstance(b, _PLAIN)
    b_data = b if plain else b.data
    sizes = [math.prod(shape) for shape in blocks]
    if a.ndim != 2 or b_data.ndim != 2 or a.shape[1] != b_data.shape[0] or sum(sizes) != a.shape[0]:
        raise ShapeError(f"matmul of {a.shape} and {b_data.shape} cannot give the row blocks {blocks}")
    m = b_data.shape[1]
    y = a @ b_data
    outs, start = [], 0
    for shape, size in zip(blocks, sizes):
        rows = a[start:start + size]
        out = y[start:start + size].reshape(tuple(shape) + (m,))
        start += size
        if not plain:
            out = Tensor(out, (b,))

            def _backward(out=out, b=b, rows=rows, m=m):
                b.grad += rows.T @ out.grad.reshape(-1, m)

            out._backward = _backward
        outs.append(out)
    return outs


def matvec(
    a: Tensor | np.ndarray, x: Tensor | np.ndarray, b: Tensor | np.ndarray | None = None
) -> Tensor | np.ndarray:
    """y = A x (+ b) for every vector along the last axis of x (a dense layer).

    The leading axes of x form one 2-D product (a 2-D x needs no reshape).
    A plain array ``x`` is a constant input that gets no gradient, as
    ``matmul``'s A is. With ``a`` and ``b`` plain arrays too, y is a plain
    array.
    """
    plain = isinstance(a, _PLAIN)
    const_x = plain or isinstance(x, _PLAIN)
    a_data = a if plain else a.data
    x_data = x if const_x else x.data
    if a_data.ndim != 2 or x_data.shape[-1:] != a_data.shape[1:]:
        raise ShapeError(f"matvec inner dims disagree: {a_data.shape} vs {x_data.shape}")
    m, k = a_data.shape
    if b is not None:
        b_data = b if plain else b.data
        if b_data.shape != (m,):
            raise ShapeError(f"matvec bias has shape {b_data.shape}, expected {(m,)}")
    flat = x_data.ndim == 2
    y = (x_data if flat else x_data.reshape(-1, k)) @ a_data.T
    if b is not None:
        y += b_data
    if not flat:
        y = y.reshape(x_data.shape[:-1] + (m,))
    if plain:
        return y
    parents = (a,) if const_x else (a, x)
    if b is not None:
        parents += (b,)
    out = Tensor(y, parents)

    def _backward(out=out, a=a, x=x, b=b, a_data=a_data, x_data=x_data, const_x=const_x, m=m, k=k):
        g = out.grad.reshape(-1, m)
        a.grad += g.T @ x_data.reshape(-1, k)
        if not const_x:
            x.grad += (g @ a_data).reshape(x_data.shape)
        if b is not None:
            b.grad += g.sum(axis=0)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# elementwise and affine
# ---------------------------------------------------------------------------


def add(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor | np.ndarray:
    plain = isinstance(a, _PLAIN)
    a_data, b_data = (a, b) if plain else (a.data, b.data)
    if a_data.shape != b_data.shape:
        raise ShapeError(f"add shapes disagree: {a_data.shape} vs {b_data.shape}")
    y = a_data + b_data
    if plain:
        return y
    out = Tensor(y, (a, b))

    def _backward(out=out, a=a, b=b):
        a.grad += out.grad
        b.grad += out.grad

    out._backward = _backward
    return out


def affine(x: Tensor | np.ndarray, a, b) -> Tensor | np.ndarray:
    """a*x + b with constant coefficients: python floats or arrays shaped like x."""
    plain = isinstance(x, _PLAIN)
    y = a * (x if plain else x.data) + b
    if plain:
        return y
    out = Tensor(y, (x,))

    def _backward(out=out, x=x, a=a):
        x.grad += a * out.grad

    out._backward = _backward
    return out


def relu(x: Tensor | np.ndarray) -> Tensor | np.ndarray:
    plain = isinstance(x, _PLAIN)
    y = np.maximum(x if plain else x.data, 0.0)
    if plain:
        return y
    out = Tensor(y, (x,))

    def _backward(out=out, x=x):
        x.grad += out.grad * (x.data > 0.0)

    out._backward = _backward
    return out


def sigmoid(x: Tensor | np.ndarray) -> Tensor | np.ndarray:
    plain = isinstance(x, _PLAIN)
    x_data = x if plain else x.data
    # split form avoids overflow in exp for large |x|
    z = np.exp(-np.abs(x_data))
    y = np.where(x_data >= 0, 1.0, z) / (1.0 + z)
    if plain:
        return y
    out = Tensor(y, (x,))

    def _backward(out=out, x=x, y=y):
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


def softmax_rows(x: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Softmax along the last axis with max-subtraction for stability."""
    plain = isinstance(x, _PLAIN)
    x_data = x if plain else x.data
    p = softmax(x_data)
    if plain:
        return p
    out = Tensor(p, (x,))

    def _backward(out=out, x=x, p=p):
        # dx = p * (g - sum(g * p, last axis))
        x.grad += p * (out.grad - np.sum(out.grad * p, axis=-1, keepdims=True))

    out._backward = _backward
    return out


def attention_pool(
    q: Tensor | np.ndarray, m: Tensor | np.ndarray, mask: np.ndarray, w: np.ndarray
) -> Tensor | np.ndarray:
    """out[..., :] = w[...] * sum_j p[..., j] m[..., j, :], where p is the
    masked softmax over j of the scores m[..., j, :] . q[..., :].

    Each query attends over its own rows of m, which are keys and values
    alike, and pools them scaled by its constant weight w. One node: the
    weights p are kept for the backward, and neither they nor the scores
    are nodes. With g the output gradient, h_j = w g . m_j and the score
    gradient ds = p (h - sum_j p_j h_j), q gets sum_j ds_j m_j and row m_j
    gets p_j w g + ds_j q. A masked-out row has p_j = 0 and gets no gradient.
    """
    plain = isinstance(q, _PLAIN)
    q_data, m_data = (q, m) if plain else (q.data, m.data)
    rows = m_data.shape[:-1]
    if rows[:-1] + m_data.shape[-1:] != q_data.shape or mask.shape != rows or w.shape != rows[:-1]:
        raise ShapeError(
            f"attention_pool shapes disagree: q {q_data.shape}, m {m_data.shape}, "
            f"mask {mask.shape}, w {w.shape}"
        )
    p = softmax(np.matmul(m_data, q_data[..., None])[..., 0], mask)
    y = np.matmul(p[..., None, :], m_data)[..., 0, :] * w[..., None]
    if plain:
        return y
    out = Tensor(y, (q, m))

    def _backward(out=out, q=q, m=m, q_data=q_data, m_data=m_data, w=w, p=p):
        gw = out.grad * w[..., None]
        h = np.matmul(m_data, gw[..., None])[..., 0]
        ds = p * (h - np.sum(h * p, axis=-1, keepdims=True))
        q.grad += np.matmul(ds[..., None, :], m_data)[..., 0, :]
        m.grad += p[..., :, None] * gw[..., None, :] + ds[..., :, None] * q_data[..., None, :]

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

    def _backward(out=out, a=a, b=b, c=c, n=n, p=p, q=q, diag_p=diag_p, diag_q=diag_q, floor=floor):
        ar = np.arange(n)
        p[ar, ar] -= 1.0
        q[ar, ar] -= 1.0
        gs = (0.5 * out.grad / n) * (p * (diag_p >= floor)[:, None] + q * (diag_q >= floor)[None, :])
        a.grad += c * (gs @ b.data)
        b.grad += c * (gs.T @ a.data)

    out._backward = _backward
    return out, int((diag_p < floor).sum() + (diag_q < floor).sum())


# ``rank1_attention`` sums the exp series to the order K that ``_series_order``
# picks, at most _TOP_ORDER on its domain r <= 1. Row q of each table serves
# the term of order q: _INV_FACT holds 1/q!, and _COEF_INDEX the indices
# q + p (p = 0, 1, 2) of the power sums that, times 1/q!, are the term's
# coefficients in the row sums of exp, exp * v and exp * v^2.
_TOP_ORDER = 18
_INV_FACT = np.array([1.0 / math.factorial(q) for q in range(_TOP_ORDER + 1)])
_COEF_INDEX = np.arange(_TOP_ORDER + 1)[:, None] + np.arange(3)


def _series_order(u: np.ndarray, v: np.ndarray, c: float) -> int:
    """Order K of the exp series ``rank1_attention`` sums for these operands:
    the smallest K whose first omitted term r^(K+1)/(K+1)! is at most
    2^-53, half an ulp of 1, for the logit radius r = |c| max|u| max|v|.

    A finite r above 1 raises ``DegenerateInputError``. A radius that is
    not finite gets the top order, so a NaN or inf operand reaches the
    output instead of vanishing from a low-order sum.
    """
    r = float(abs(c) * np.maximum.reduce(np.abs(u), axis=None) * np.maximum.reduce(np.abs(v), axis=None))
    if r <= 1.0:
        k, omitted = 0, r
        while omitted > 2.0 ** -53:
            k += 1
            omitted *= r / (k + 1)
        return k
    if math.isfinite(r):
        raise DegenerateInputError(
            f"rank1_attention needs a logit radius |c| max|u| max|v| of at most 1, got r = {r!r}"
        )
    return _TOP_ORDER


def _series_moments(s: np.ndarray, v: np.ndarray, k: int):
    """Row sums of exp(s_i v_j) times 1, v_j and v_j^2 from power sums of v,
    with the exp expanded to order k, for P problems stacked on a leading
    axis: s is (P, B, n) and v is (P, B, m).

    Returns the (P, B, n, 3) sums and the power arrays S (P, B, n, k+1) and
    V (P, B, k+1, m), with S[..., i, q] = s_i^q and V[..., q, j] = v_j^q,
    from which ``_times_exp`` forms lhs @ exp(s v^T) of one problem.
    """
    # powers stacked on a new leading axis, so each is one contiguous array;
    # one array holding both (one loop) made training take more page faults
    s_pow = np.empty((k + 1,) + s.shape)
    power = s_pow[0] = 1.0
    for q in range(1, k + 1):
        power = np.multiply(power, s, out=s_pow[q])
    v_pow = np.empty((k + 3,) + v.shape)
    power = v_pow[0] = 1.0
    for q in range(1, k + 3):
        power = np.multiply(power, v, out=v_pow[q])
    # sum_j exp(s_i v_j) v_j^p = sum_q s_i^q (P_{q+p} / q!), with P_q = sum_j v_j^q
    power_sums = np.add.reduce(v_pow, axis=-1).transpose(1, 2, 0)
    coef = power_sums[..., _COEF_INDEX[: k + 1]] * _INV_FACT[: k + 1, None]
    s_pow = s_pow.transpose(1, 2, 3, 0)
    return np.matmul(s_pow, coef), s_pow, v_pow[: k + 1].transpose(1, 2, 0, 3)


def _times_exp(lhs: np.ndarray, s_pow: np.ndarray, v_pow: np.ndarray) -> np.ndarray:
    """lhs @ exp(s v^T) of one ``_series_moments`` problem, to its order:
    ((lhs @ S) / q!) @ V."""
    return np.matmul(np.matmul(lhs, s_pow) * _INV_FACT[: s_pow.shape[-1]], v_pow)


def rank1_attention(u: Tensor | np.ndarray, v: Tensor | np.ndarray, c: float) -> tuple:
    """Both directions of rank-1 attention between two (B, d) operands of
    one shape, as the pair (u over v, v over u): out[b, i] = sum_j
    softmax_j(c * u[b, i] * v[b, j]) * v[b, j], each entry of u attending
    over v through the logits c u v^T, and the same with u and v swapped.
    Both directions share the logit radius r = |c| max|u| max|v|, which
    must be at most 1. Operands of different shapes raise ``ShapeError``.

    One node per direction, and no (B, d, d) array is built in either. With
    s_i = c u_i and power sums P_q = sum_j v_j^q, the row sums of
    E = exp(c u v^T) times 1, v and v^2 are sum_{q<=K} s_i^q/q! P_{q+p}, so
    the forward is one (d, K+1) @ (K+1, 3) product per item. With p_i the
    softmax of row i, d out_i / d u_i = c (E_p[v^2] - out_i^2), and the
    gradient of v is a (2, d) @ E product, formed as (2, d) @ S @ V with
    S[i, q] = s_i^q/q! and V[q, j] = v_j^q: O(d K) per item. The operands
    are stacked, so one ``_series_moments`` pass serves both directions,
    and each node's backward reads its half of the power arrays.

    K is the smallest order whose first omitted term r^(K+1)/(K+1)! is at
    most 2^-53. Truncation then moves each exp(s_i v_j) by at most
    e^(2r) 2^-53 of its value, and the terms' absolute sum is at most
    e^(2r) times it, which bounds their rounding; r <= 1 caps both factors
    at e^2 and K at 18. The model attends unit vectors at c = 1/sqrt(d), so
    r <= 1/sqrt(d) and K is about 5-7. A finite r above 1 raises
    ``DegenerateInputError`` naming r.
    """
    plain = isinstance(u, _PLAIN)
    u_data, v_data = (u, v) if plain else (u.data, v.data)
    if u_data.ndim != 2 or v_data.shape != u_data.shape:
        raise ShapeError(f"rank1_attention needs two (B, d) operands of one shape: {u_data.shape} vs {v_data.shape}")
    # the pair's radius, not that of the stacked operands: c max(max|u|, max|v|)^2
    # is larger and could raise K, which would change the bits
    k = _series_order(u_data, v_data, c)
    sums, s_pow, v_pow = _series_moments(c * np.array([u_data, v_data]), np.array([v_data, u_data]), k)
    outs = []
    for p, (query, keys) in enumerate(((u, v), (v, u))):
        total = sums[p][..., 0]
        y = sums[p][..., 1] / total
        if plain:
            outs.append(y)
            continue
        second = sums[p][..., 2] / total
        out = Tensor(y, (query, keys))

        def _backward(
            out=out, u=query, v=keys, u_data=query.data, v_data=keys.data,
            c=c, y=y, second=second, total=total, s_pow=s_pow[p], v_pow=v_pow[p],
        ):
            g = out.grad
            u.grad += c * g * (second - y * y)
            a = g / total
            b = c * u_data * a
            rows = _times_exp(np.stack([a - b * y, b], axis=-2), s_pow, v_pow)
            v.grad += rows[..., 0, :] + v_data * rows[..., 1, :]

        out._backward = _backward
        outs.append(out)
    return tuple(outs)


def l2_normalize(v: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Each vector along the last axis scaled to unit Euclidean norm."""
    plain = isinstance(v, _PLAIN)
    v_data = v if plain else v.data
    n = np.sqrt(np.add.reduce(v_data * v_data, axis=-1, keepdims=True))
    if np.logical_or.reduce(n == 0.0, axis=None):
        rows = tuple(np.flatnonzero(n == 0.0).tolist())
        raise DegenerateInputError(f"l2_normalize of a zero vector at rows {list(rows)}", rows)
    y = v_data / n
    if plain:
        return y
    out = Tensor(y, (v,))

    def _backward(out=out, v=v, y=y, n=n):
        # d v = (g - y (y.g)) / ||v||
        v.grad += (out.grad - y * np.sum(y * out.grad, axis=-1, keepdims=True)) / n

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def mean_parts(parts: list) -> Tensor | np.ndarray:
    """Elementwise mean of equal-shape parts, as one node; each part gets
    the output gradient divided by the number of parts."""
    plain = isinstance(parts[0], _PLAIN)
    arrays = parts if plain else [p.data for p in parts]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ShapeError(f"mean_parts needs equal shapes, got {sorted(shapes)}")
    k = len(arrays)
    # np.stack's result at a third of its call cost; .mean()'s sum and division without its frames
    y = np.add.reduce(np.array(arrays), axis=0) / k
    if plain:
        return y
    out = Tensor(y, tuple(parts))

    def _backward(out=out, parts=parts, k=k):
        g = out.grad / k
        for p in parts:
            p.grad += g

    out._backward = _backward
    return out


def rank1_max_pool(u: Tensor | np.ndarray, v: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """out[..., j] = max_i u[..., i] * v[..., j], the column max of the rank-1
    matrix u v^T, in O(n + m): v_j * max(u) where v_j >= 0, else v_j * min(u).

    Ties route the gradient to the first maximum (or minimum) of u.
    """
    plain = isinstance(u, _PLAIN)
    u_data, v_data = (u, v) if plain else (u.data, v.data)
    if u_data.shape[:-1] != v_data.shape[:-1]:
        raise ShapeError(f"rank1_max_pool batch dims disagree: {u_data.shape} vs {v_data.shape}")
    pos = v_data >= 0.0
    hi = np.maximum.reduce(u_data, axis=-1, keepdims=True)
    picked = np.where(pos, hi, np.minimum.reduce(u_data, axis=-1, keepdims=True))
    y = picked * v_data
    if plain:
        return y
    out = Tensor(y, (u, v))

    def _backward(out=out, u=u, v=v, u_data=u_data, v_data=v_data, pos=pos, picked=picked):
        gv = out.grad * v_data
        v.grad += out.grad * picked
        idx = np.arange(u_data.shape[-1])
        u.grad += (idx == np.argmax(u_data, axis=-1)[..., None]) * np.sum(gv * pos, axis=-1, keepdims=True)
        u.grad += (idx == np.argmin(u_data, axis=-1)[..., None]) * np.sum(gv * ~pos, axis=-1, keepdims=True)

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

    def _backward(out=out, probs=probs, col=col, positive=positive, eps=eps, raw=raw, n=n, p_true=p_true):
        sign = np.where(positive, 1.0, -1.0)
        inside = (raw >= eps) & (raw <= 1.0 - eps)
        probs.grad[:, col] += sign * ((-out.grad / n) / p_true) * inside

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def gated_concat(parts: list, gates: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Concatenation of equal-shape parts (all tensors or all plain arrays),
    part i scaled by gates[..., i], as one node; ``gates`` has one entry per
    part for each leading index. Plain gates are a constant, no parent and
    no gradient, and unit gates give the plain concatenation to the bit."""
    plain = isinstance(parts[0], _PLAIN)
    const_g = plain or isinstance(gates, _PLAIN)
    arrays = parts if plain else [p.data for p in parts]
    g_data = gates if const_g else gates.data
    shapes = {a.shape for a in arrays}
    lead = arrays[0].shape[:-1]
    if len(shapes) != 1 or arrays[0].ndim < 1 or g_data.shape != lead + (len(arrays),):
        raise ShapeError(
            f"gated_concat needs equal parts and one gate each, "
            f"got {[a.shape for a in arrays]} and {g_data.shape}"
        )
    x = np.concatenate(arrays, axis=-1).reshape(lead + (len(arrays), -1))  # (..., k, d)
    y = (x * g_data[..., None]).reshape(lead + (-1,))
    if plain:
        return y
    out = Tensor(y, tuple(parts) if const_g else (*parts, gates))

    def _backward(out=out, parts=parts, gates=gates, x=x, g_data=g_data, const_g=const_g):
        g = out.grad.reshape(x.shape)
        if not const_g:
            gates.grad += np.sum(g * x, axis=-1)
        g = g * g_data[..., None]
        for i, p in enumerate(parts):
            p.grad += g[..., i, :]

    out._backward = _backward
    return out
