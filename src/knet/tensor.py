"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation that takes a gradient returns
a Tensor linked to a graph record, which remembers its parents' records
and a closure computing their gradients.  Calling ``backward()`` on a
scalar walks the records in reverse topological order.  Graphs are
rebuilt on every forward pass, so the iterative refinement head can vary
in depth without any bookkeeping.

A Tensor holds its value (``data``); its record holds no value, only the
value's shape, the gradient while it is summed, the parent records and
the closure.  So a value lives in the graph only as long as some closure
keeps it, and each closure keeps only what its gradient reads: a
product keeps an input's value only when the other input takes a
gradient, a reshape or a sum keeps shapes, softmax, sigmoid and relu
keep their outputs, and attention recomputes its probabilities rather
than keep them.  An op output that no closure reads is freed as soon
as the forward code drops its Tensor, though the graph still runs
through its record.  Only tensors that take a gradient have a record:
the parameters, and every op output that depends on one while gradients
are recorded.

Only leaves (records without a closure, the parameters') keep their
``grad`` after a walk; an interior record's gradient is dropped as soon
as its closure has used it.  The closures and parent links stay, so a
graph can be walked again, and the second walk adds the same gradients
onto the leaves once more.

A global precision mode (f32 or f64) fixes the dtype of the arrays a
Tensor is built from.  Training runs in f32; gradient checking needs f64
because central differences are unreliable in single precision.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError, FormatError, NumericError

_DTYPES = {"f32": np.float32, "f64": np.float64}
_state = {"dtype": np.float32, "grad_enabled": True}


def set_precision(mode: str) -> None:
    """Set the global precision mode, one of ``"f32"`` or ``"f64"``."""
    if mode not in _DTYPES:
        raise ContractError(f"unknown precision mode {mode!r}")
    _state["dtype"] = _DTYPES[mode]


def get_precision() -> str:
    return "f32" if _state["dtype"] is np.float32 else "f64"


@contextmanager
def precision(mode: str):
    """Temporarily switch the global precision mode."""
    old = get_precision()
    set_precision(mode)
    try:
        yield
    finally:
        set_precision(old)


@contextmanager
def no_grad():
    """Disable graph recording; forward values only."""
    old = _state["grad_enabled"]
    _state["grad_enabled"] = False
    try:
        yield
    finally:
        _state["grad_enabled"] = old


class _Record:
    """A tensor's place in the graph, holding no value: the value's shape,
    the gradient summed into it, its parents' records and the closure that
    sends its gradient on to them (None on a leaf)."""

    __slots__ = ("shape", "grad", "_parents", "_backward")

    def __init__(self, shape: tuple[int, ...], parents: tuple = (), backward=None):
        self.shape = shape
        self.grad = None
        self._parents = parents
        self._backward = backward

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g``, which must have the value's shape, into ``grad``."""
        if g.shape != self.shape:
            raise DimensionError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        if self.grad is None:
            # no copy: gradients are never updated in place
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g


class Tensor:
    """N-dimensional array of reals, linked to a graph record when it takes
    a gradient."""

    __slots__ = ("data", "_record")

    def __init__(self, data, requires_grad: bool = False):
        dtype = _state["dtype"]
        arr = np.asarray(data)
        if arr.dtype != dtype:
            arr = arr.astype(dtype)
        self.data = arr
        self._record = _Record(arr.shape) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._record is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._record is None else self._record.grad

    @grad.setter
    def grad(self, g) -> None:
        if self._record is None:
            if g is not None:
                raise ContractError(f"{self!r} takes no gradient")
            return
        self._record.grad = g

    @property
    def _parents(self) -> tuple:
        return () if self._record is None else self._record._parents

    @property
    def _backward(self):
        return None if self._record is None else self._record._backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``; on a leaf it stays there until cleared.

        An interior node holds its gradient only during ``backward()``.
        """
        self._record.accumulate_grad(g)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be a scalar (size 1).  Each interior record's
        ``grad``, ``self``'s included, is released once its closure has
        run, so only leaves keep one and a repeated walk adds onto the
        leaves alone.  A tensor that takes no gradient reaches no leaf.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        root = self._record
        if root is None:
            return
        topo: list[_Record] = []
        seen: set[int] = set()
        stack: list[tuple[_Record, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # Operator sugar; scalars are wrapped as constant tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Assemble an op output; link its record only to the records of the
    parents that take grads, never to the parent tensors.

    ``backward_fn`` must hold parent records, not parent tensors, so the
    graph keeps no value its closures do not read.  The output must be in
    the working precision: a float64 scalar inside an f32 op would
    otherwise turn it, and every gradient upstream, into f64 without a
    trace.
    """
    if data.dtype != _state["dtype"]:
        op = backward_fn.__qualname__.split(".")[0]
        raise NumericError(
            f"{op}: output dtype {data.dtype} is not the working precision {get_precision()}"
        )
    out = Tensor.__new__(Tensor)
    out.data = data
    out._record = None
    if _state["grad_enabled"]:
        records = tuple(p._record for p in parents if p._record is not None)
        if records:
            out._record = _Record(data.shape, records, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were expanded by broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: np.ndarray, b: np.ndarray, op: str) -> None:
    for da, db in zip(a.shape[::-1], b.shape[::-1]):
        if da != db and da != 1 and db != 1:
            raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data, b.data, "add")
    ra, rb = a._record, b._record

    def bw(g):
        if ra is not None:
            ra.accumulate_grad(_unbroadcast(g, ra.shape))
        if rb is not None:
            rb.accumulate_grad(_unbroadcast(g, rb.shape))

    return _node(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data, b.data, "mul")
    ra, rb = a._record, b._record
    # an input's value is kept only for the other input's gradient
    a_data = a.data if rb is not None else None
    b_data = b.data if ra is not None else None

    def bw(g):
        if ra is not None:
            ra.accumulate_grad(_unbroadcast(g * b_data, ra.shape))
        if rb is not None:
            rb.accumulate_grad(_unbroadcast(g * a_data, rb.shape))

    return _node(a.data * b.data, (a, b), bw)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)
    ra = a._record

    def bw(g):
        # out > 0 is x > 0, NaN included, so the output stands in for x
        ra.accumulate_grad(g * (data > 0))

    return _node(data, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # one exp serves both branches: exp(-x) for x >= 0, exp(x) below.
    # min(x, -x) rather than -|x|: it passes a NaN through with its sign
    e = np.exp(np.minimum(x, -x))
    data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    ra = a._record

    def bw(g):
        ra.accumulate_grad(g * data * (1.0 - data))

    return _node(data, (a,), bw)


def sigmoid_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function on a plain array (decoding and matching costs).

    Runs the steps of ``1 / (1 + exp(-x))`` in place on one buffer: a fresh
    one, which leaves ``x`` unmodified, or ``out`` (``x`` itself included).
    The bytes are the same either way.
    """
    out = np.negative(x, out=out, dtype=np.result_type(x, 1.0))
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


# ---------------------------------------------------------------------------
# reductions and normalizers

def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(ax % ndim for ax in axes)


def reduce_sum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes_t = _norm_axes(axes, a.data.ndim)
    data = a.data.sum(axis=axes_t, keepdims=keepdims)
    ra = a._record

    def bw(g):
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axes_t)
        ra.accumulate_grad(np.broadcast_to(gg, ra.shape))

    return _node(data, (a,), bw)


def reduce_mean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes_t = _norm_axes(axes, a.data.ndim)
    scale = np.asarray(1.0 / math.prod(a.data.shape[ax] for ax in axes_t)).astype(_state["dtype"])
    data = a.data.sum(axis=axes_t, keepdims=keepdims) * scale
    ra = a._record

    def bw(g):
        gg = g * scale if keepdims else np.expand_dims(g * scale, axes_t)
        ra.accumulate_grad(np.broadcast_to(gg, ra.shape))

    return _node(data, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along ``axis``."""
    if not np.isfinite(a.data).all():
        raise NumericError("softmax: non-finite input")
    axis = axis % a.data.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    ra = a._record

    def bw(g):
        # d/dx softmax = y * (g - sum(g * y))
        dot = (g * data).sum(axis=axis, keepdims=True)
        ra.accumulate_grad(data * (g - dot))

    return _node(data, (a,), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.isfinite(a.data).all():
        raise NumericError("log_softmax: non-finite input")
    axis = axis % a.data.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    ra = a._record

    def bw(g):
        sm = np.exp(data)
        ra.accumulate_grad(g - sm * g.sum(axis=axis, keepdims=True))

    return _node(data, (a,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` over the last axis.

    One node that runs the numpy ops of the composite built from
    ``reduce_mean``, ``sub``, ``mul``, ``add``, ``sqrt`` and ``div`` (the
    reference in ``tests/test_fused.py``), in the order its forward and
    its backward walk would, so the bytes are the same.  ``x`` takes its
    two gradient terms (the centering's, then the mean's) as two
    accumulations, as the composite's ``sub`` and ``reduce_mean`` nodes do.
    The node keeps only the per-row ``sd``: its backward rebuilds the
    centered and normalized rows from ``x`` with the forward's ops rather
    than holding two copies of ``x`` until the walk.  It keeps ``x``'s
    value only when ``x`` or ``gamma`` takes a gradient, and ``gamma``'s
    only when ``x`` does.
    """
    c = x.data.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(
            f"layer_norm: gamma {gamma.data.shape} and beta {beta.data.shape} "
            f"do not match {c} channels"
        )
    axes = (x.data.ndim - 1,)
    dtype = _state["dtype"]
    scale = np.asarray(1.0 / c).astype(dtype)

    def center(v):
        return v - v.sum(axis=axes, keepdims=True) * scale

    centered = center(x.data)
    sd = np.sqrt((centered * centered).sum(axis=axes, keepdims=True) * scale
                 + np.asarray(eps).astype(dtype))
    data = centered / sd * gamma.data + beta.data
    rx, rg, rb = x._record, gamma._record, beta._record
    x_data = x.data if rx is not None or rg is not None else None
    gamma_data = gamma.data if rx is not None else None

    def bw(g):
        if rb is not None:
            rb.accumulate_grad(_unbroadcast(g, rb.shape))
        if x_data is None:
            return
        centered = center(x_data)
        if rg is not None:
            rg.accumulate_grad(_unbroadcast(g * (centered / sd), rg.shape))
        if rx is None:
            return
        g_normed = g * gamma_data
        g_sd = _unbroadcast(-g_normed * centered / (sd * sd), sd.shape)
        g_sq = np.broadcast_to(g_sd * 0.5 / sd * scale, rx.shape)
        gcc = g_sq * centered
        g_centered = g_normed / sd + gcc + gcc
        rx.accumulate_grad(g_centered)
        g_mean = _unbroadcast(-g_centered, sd.shape)
        rx.accumulate_grad(np.broadcast_to(g_mean * scale, rx.shape))

    return _node(data, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# linear algebra and shape ops

def matmul(a: Tensor, b: Tensor, high_precision: bool = False) -> Tensor:
    """Matrix product; leading batch axes follow numpy broadcasting.

    ``high_precision`` accumulates in f64 and rounds once to the working
    dtype, bounding the forward error at half an ulp of the result.
    """
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul: shapes {a.data.shape} and {b.data.shape} do not align")
    try:
        if high_precision and a.data.dtype != np.float64:
            data = (a.data.astype(np.float64) @ b.data.astype(np.float64)).astype(a.data.dtype)
        else:
            data = a.data @ b.data
    except ValueError as err:
        raise DimensionError(f"matmul: shapes {a.data.shape} and {b.data.shape}: {err}") from None

    ra, rb = a._record, b._record
    # an input's value is kept only for the other input's gradient
    a_data = a.data if rb is not None else None
    b_data = b.data if ra is not None else None

    def bw(g):
        if ra is not None:
            ga = g @ np.swapaxes(b_data, -1, -2)
            ra.accumulate_grad(_unbroadcast(ga, ra.shape))
        if rb is not None:
            gb = np.swapaxes(a_data, -1, -2) @ g
            rb.accumulate_grad(_unbroadcast(gb, rb.shape))

    return _node(data, (a, b), bw)


def attention(q: Tensor, k_t: Tensor, v: Tensor, scale: float) -> Tensor:
    """Scaled dot-product attention ``softmax(q * scale @ k_t) @ v``, with
    the softmax over the last axis.

    One node that runs the numpy ops of the composite built from ``mul``,
    ``matmul``, ``softmax`` and ``matmul`` (the reference in
    ``tests/test_fused.py``), in the order its forward and its backward
    walk would, so the bytes are the same; non-finite scores are a
    ``NumericError`` as in ``softmax``.  The node keeps no (..., N, M)
    probability table, only ``q * scale``, ``k_t``, ``v`` and each row's
    max and exp-sum: its backward recomputes the probabilities from them
    with the forward's ops, then runs the gradients of the second matmul,
    the softmax, the first matmul and the scaling in turn.  ``v`` is kept
    only when ``q`` or ``k_t`` takes a gradient.
    """
    sq, sk, sv = q.data.shape, k_t.data.shape, v.data.shape
    try:
        np.broadcast_shapes(sq[:-2], sk[:-2], sv[:-2])
        aligned = min(len(sq), len(sk), len(sv)) >= 2 and sq[-1] == sk[-2] and sk[-1] == sv[-2]
    except ValueError:
        aligned = False
    if not aligned:
        raise DimensionError(f"attention: shapes {sq}, {sk} and {sv} do not align")
    scale = np.asarray(scale).astype(_state["dtype"])
    qs = q.data * scale
    scores = qs @ k_t.data
    if not np.isfinite(scores).all():
        raise NumericError("attention: non-finite scores")
    row_max = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - row_max)
    del scores
    row_sum = e.sum(axis=-1, keepdims=True)
    data = (e / row_sum) @ v.data
    rq, rk, rv = q._record, k_t._record, v._record
    k_data = k_t.data
    v_data = v.data if rq is not None or rk is not None else None

    def bw(g):
        probs = np.exp(qs @ k_data - row_max) / row_sum
        if rv is not None:
            rv.accumulate_grad(_unbroadcast(np.swapaxes(probs, -1, -2) @ g, rv.shape))
        if v_data is None:
            return
        g_probs = g @ np.swapaxes(v_data, -1, -2)
        # d/dx softmax = y * (g - sum(g * y))
        g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True))
        if rk is not None:
            rk.accumulate_grad(_unbroadcast(np.swapaxes(qs, -1, -2) @ g_scores, rk.shape))
        if rq is not None:
            rq.accumulate_grad(_unbroadcast(g_scores @ np.swapaxes(k_data, -1, -2), rq.shape) * scale)

    return _node(data, (q, k_t, v), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused affine map (..., C_in) x (C_out, C_in) + (C_out,) -> (..., C_out).

    One graph node for ``x @ w.T + b``.  The forward is a stacked matmul:
    one GEMM per leading index, so each image's rows round the same
    whatever the batch size.  The backward runs on the flattened
    (M, C) view, one GEMM per gradient.
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[1] \
            or b.data.shape != w.data.shape[:1]:
        raise DimensionError(
            f"linear: shapes {x.data.shape}, {w.data.shape} and {b.data.shape} do not align"
        )
    data = x.data @ w.data.T + b.data
    rx, rw, rb = x._record, w._record, b._record
    # x's value is kept only for w's gradient, w's only for x's
    x_data = x.data if rw is not None else None
    w_data = w.data if rx is not None else None

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if rx is not None:
            rx.accumulate_grad((g2 @ w_data).reshape(rx.shape))
        if rw is not None:
            rw.accumulate_grad(g2.T @ x_data.reshape(-1, x_data.shape[-1]))
        if rb is not None:
            rb.accumulate_grad(g2.sum(axis=0))

    return _node(data, (x, w, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    ra = a._record

    def bw(g):
        ra.accumulate_grad(g.reshape(ra.shape))

    return _node(data, (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inv = np.argsort(axes)
    ra = a._record

    def bw(g):
        ra.accumulate_grad(g.transpose(inv))

    return _node(data, (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [(_wrap(t)) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    records = [t._record for t in tensors]

    def bw(g):
        for r, lo, hi in zip(records, offsets[:-1], offsets[1:]):
            if r is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                r.accumulate_grad(g[tuple(idx)])

    return _node(data, tuple(tensors), bw)


def index_select(a: Tensor, axis: int, indices) -> Tensor:
    indices = np.asarray(indices, dtype=np.int64)
    data = np.take(a.data, indices, axis=axis)
    axis %= a.data.ndim
    ra, dtype = a._record, a.data.dtype

    def bw(g):
        buf = np.zeros(ra.shape, dtype=dtype)
        idx = (slice(None),) * axis + (indices,)
        if np.unique(indices % ra.shape[axis]).size == indices.size:
            buf[idx] += g       # same bytes as np.add.at into zeros, -0.0 -> +0.0 included
        else:
            np.add.at(buf, idx, g)
        ra.accumulate_grad(buf)

    return _node(data, (a,), bw)


def permute_rows(a: Tensor, perm: np.ndarray, inverse: np.ndarray,
                 source: np.ndarray | None = None) -> Tensor:
    """Reorder axis 1 per image: ``out[b, i] = a[b, perm[b, i]]``.

    ``perm`` holds one permutation per leading index and ``inverse`` its
    inverse, which the backward gathers with.  ``source``, when given, is
    gathered from in place of ``perm`` in the forward pass only; the
    backward is still that of the permutation.
    """
    batch = np.arange(a.data.shape[0])[:, None]
    data = a.data[batch, perm if source is None else source]
    ra = a._record

    def bw(g):
        ra.accumulate_grad(g[batch, inverse])

    return _node(data, (a,), bw)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        data = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise DimensionError(f"broadcast_to: cannot expand {a.data.shape} to {shape}") from None
    ra = a._record

    def bw(g):
        ra.accumulate_grad(_unbroadcast(g, ra.shape))

    return _node(data, (a,), bw)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with (C_out, C_in, k, k) kernels.

    An im2col GEMM: the input is zero-padded and its k*k strided windows are
    written into (C_in*k*k, H_out*W_out) columns.  The forward fills one
    image's padded copy and columns at a time and runs that image's GEMM,
    the same GEMM a stacked matmul over the batch runs, so it never holds
    more than one image's columns.  The node keeps no columns: only the
    weight gradient reads them, and the backward gathers them again for
    the whole batch from ``x`` with the same fill, so the graph holds the
    input rather than a k*k-fold copy of it, and that only when ``w``
    takes a gradient.  ``w`` is kept only for ``x``'s gradient.
    """
    B, C_in, H, W = x.data.shape
    C_out, C_in2, kh, kw = w.data.shape
    if C_in != C_in2:
        raise DimensionError(f"conv2d: input channels {C_in} != kernel channels {C_in2}")
    Hp, Wp = H + 2 * padding, W + 2 * padding
    if Hp < kh or Wp < kw:
        raise DimensionError(f"conv2d: spatial size {(H, W)} too small for kernel {(kh, kw)} with padding {padding}")
    H_out = (Hp - kh) // stride + 1
    W_out = (Wp - kw) // stride + 1
    K, L = C_in * kh * kw, H_out * W_out
    dtype = x.data.dtype

    def buffers(*lead):
        """A zeroed padded buffer (None without padding) and a columns buffer."""
        xp = np.zeros((*lead, C_in, Hp, Wp), dtype=dtype) if padding else None
        return xp, np.empty((*lead, C_in, kh * kw, H_out, W_out), dtype=dtype)

    def columns(xs, xp, cols):
        """Fill ``cols`` (..., C_in, k*k, H_out, W_out) with the strided windows
        of ``xs`` (..., C_in, H, W) padded into ``xp``, whose border stays zero:
        the bytes of np.pad, then np.stack of the views on axis -3.  Returns
        the (..., K, L) view."""
        if padding:
            xp[..., padding : padding + H, padding : padding + W] = xs
            xs = xp
        for i in range(kh):
            for j in range(kw):
                cols[..., i * kw + j, :, :] = xs[..., i : i + stride * H_out : stride, j : j + stride * W_out : stride]
        return cols.reshape(*cols.shape[:-4], K, L)

    w_mat = w.data.reshape(C_out, K)
    out = np.empty((B, C_out, L), dtype=np.result_type(w_mat, x.data))
    image_buffers = buffers()
    for n in range(B):
        np.matmul(w_mat, columns(x.data[n], *image_buffers), out=out[n])
    if b is not None:
        out += b.data[:, None]
    out = out.reshape(B, C_out, H_out, W_out)

    parents = (x, w) if b is None else (x, w, b)
    rx, rw, rb = x._record, w._record, None if b is None else b._record
    x_data = x.data if rw is not None else None
    w_kept = w_mat if rx is not None else None

    def bw(g):
        g2 = g.reshape(B, C_out, H_out * W_out)
        if rw is not None:
            gw = np.einsum("bol,bkl->ok", g2, columns(x_data, *buffers(B)), optimize=True)
            rw.accumulate_grad(gw.reshape(rw.shape))
        if rb is not None:
            rb.accumulate_grad(g2.sum(axis=(0, 2)))
        if rx is not None:
            dcols = (w_kept.T @ g2).reshape(B, C_in, kh, kw, H_out, W_out)
            dxp = np.zeros((B, C_in, Hp, Wp), dtype=dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * H_out : stride, j : j + stride * W_out : stride] += dcols[:, :, i, j]
            rx.accumulate_grad(dxp[:, :, padding : padding + H, padding : padding + W] if padding else dxp)

    return _node(out, parents, bw)


_interp_cache: dict[tuple, np.ndarray] = {}


def _interp_matrix(n_out: int, n_in: int, dtype) -> np.ndarray:
    """Bilinear interpolation weights (align_corners=False convention)."""
    key = (n_out, n_in, np.dtype(dtype).str)
    m = _interp_cache.get(key)
    if m is None:
        m = np.zeros((n_out, n_in), dtype=dtype)
        scale = n_in / n_out
        for o in range(n_out):
            src = (o + 0.5) * scale - 0.5
            lo = int(np.floor(src))
            frac = src - lo
            lo_c = min(max(lo, 0), n_in - 1)
            hi_c = min(max(lo + 1, 0), n_in - 1)
            m[o, lo_c] += 1.0 - frac
            m[o, hi_c] += frac
        _interp_cache[key] = m
    return m


def bilinear_upsample(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinearly resize the trailing two axes: ``A @ x @ M_w.T`` per map."""
    a = _interp_matrix(out_h, x.data.shape[-2], x.data.dtype)
    m_w = _interp_matrix(out_w, x.data.shape[-1], x.data.dtype)
    rx = x._record

    def bw(g):
        rx.accumulate_grad((a.T @ (g.reshape(-1, out_h, out_w) @ m_w)).reshape(rx.shape))

    return _node(bilinear_resize_array(x.data, out_h, out_w), (x,), bw)


def bilinear_resize_array(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of the trailing two axes of a plain array."""
    *lead, h, w = x.shape
    a = _interp_matrix(out_h, h, x.dtype)
    bmat = _interp_matrix(out_w, w, x.dtype).T
    return (a @ x.reshape(-1, h, w) @ bmat).reshape(*lead, out_h, out_w)


# ---------------------------------------------------------------------------
# verification oracle

def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare backward() against central differences, coordinate by coordinate.

    ``f`` must be a deterministic scalar-valued function of ``x``; run in
    f64 mode.  Returns the max relative error with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if x.data.dtype != np.float64:
        raise ContractError("grad_check requires f64 mode")
    if not x.data.flags["C_CONTIGUOUS"]:
        x.data = np.ascontiguousarray(x.data)
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise ContractError(f"grad_check: f must be scalar-valued, got shape {out.data.shape}")
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(x).data)
            flat[i] = orig - eps
            lo = float(f(x).data)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# serialization: one JSON header line, then a flat little-endian buffer

_WIRE = {"f32": "<f4", "f64": "<f8"}


def write_tensor(fp, array: np.ndarray | Tensor) -> None:
    arr = array.data if isinstance(array, Tensor) else np.asarray(array)
    dtype = "f64" if arr.dtype == np.float64 else "f32"
    header = json.dumps({"dtype": dtype, "shape": list(arr.shape)})
    fp.write(header.encode("ascii") + b"\n")
    fp.write(np.ascontiguousarray(arr, dtype=_WIRE[dtype]).tobytes())


def read_tensor(fp) -> np.ndarray:
    line = fp.readline()
    if not line:
        raise FormatError("tensor stream: missing header line")
    try:
        header = json.loads(line.decode("ascii"))
    except ValueError as err:
        raise FormatError(f"tensor stream: bad header: {err}") from None
    if not isinstance(header, dict):
        raise FormatError(f"tensor stream: header is not an object: {header!r}")
    dtype, shape = header.get("dtype"), header.get("shape")
    if not isinstance(dtype, str) or dtype not in _WIRE:
        raise FormatError(f"tensor stream: unknown dtype {dtype!r}")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise FormatError(f"tensor stream: shape {shape!r} is not a list of non-negative ints")
    nbytes = math.prod(shape) * np.dtype(_WIRE[dtype]).itemsize
    # check the length first: read() would allocate the claimed size
    start = fp.tell()
    available = fp.seek(0, os.SEEK_END) - start
    fp.seek(start)
    if nbytes > available:
        raise FormatError("tensor stream: truncated buffer")
    buf = fp.read(nbytes)
    try:
        arr = np.frombuffer(buf, dtype=_WIRE[dtype]).reshape(shape)
    except ValueError as err:               # too many axes or too large for numpy
        raise FormatError(f"tensor stream: shape {shape}: {err}") from None
    return arr.astype(np.float64 if dtype == "f64" else np.float32)


def save_tensor(path, array) -> None:
    with open(path, "wb") as fp:
        write_tensor(fp, array)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fp:
        return read_tensor(fp)
