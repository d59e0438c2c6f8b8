"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation returns a new Tensor that
remembers its parents and a closure computing their gradients.  Calling
``backward()`` on a scalar walks the recorded operations in reverse
topological order.  Graphs are rebuilt on every forward pass, so the
iterative refinement head can vary in depth without any bookkeeping.

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


class Tensor:
    """N-dimensional array of reals with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        dtype = _state["dtype"]
        arr = np.asarray(data)
        if arr.dtype != dtype:
            arr = arr.astype(dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

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

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a single element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # no copy: gradients are never updated in place
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be a scalar (size 1).
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar; scalars are wrapped as constant tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axes=None, keepdims=False):
        return reduce_sum(self, axes, keepdims)

    def mean(self, axes=None, keepdims=False):
        return reduce_mean(self, axes, keepdims)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Assemble an op output; record the edge only when grads can flow.

    The output must be in the working precision: a float64 scalar inside
    an f32 op would otherwise turn it, and every gradient upstream, into
    f64 without a trace.
    """
    if data.dtype != _state["dtype"]:
        op = backward_fn.__qualname__.split(".")[0]
        raise NumericError(
            f"{op}: output dtype {data.dtype} is not the working precision {get_precision()}"
        )
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward = None
    out._parents = ()
    out.requires_grad = False
    if _state["grad_enabled"] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
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
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data, b.data, "sub")
    data = a.data - b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data, b.data, "mul")
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data, b.data, "div")
    data = a.data / b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        a.accumulate_grad(-g)

    return _node(-a.data, (a,), bw)


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data ** p

    def bw(g):
        a.accumulate_grad(g * p * a.data ** (p - 1.0))

    return _node(data, (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def bw(g):
        a.accumulate_grad(g * 0.5 / np.sqrt(a.data))

    return _node(data, (a,), bw)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def bw(g):
        a.accumulate_grad(g * data)

    return _node(data, (a,), bw)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def bw(g):
        a.accumulate_grad(g / a.data)

    return _node(data, (a,), bw)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def bw(g):
        a.accumulate_grad(g * (a.data > 0))

    return _node(data, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # one exp serves both branches: exp(-x) for x >= 0, exp(x) below.
    # min(x, -x) rather than -|x|: it passes a NaN through with its sign
    e = np.exp(np.minimum(x, -x))
    data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        a.accumulate_grad(g * data * (1.0 - data))

    return _node(data, (a,), bw)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array (decoding and matching costs)."""
    return 1.0 / (1.0 + np.exp(-x))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with a straight-through mask: gradient is zero where clipped."""
    data = np.clip(a.data, lo, hi)

    def bw(g):
        a.accumulate_grad(g * ((a.data >= lo) & (a.data <= hi)))

    return _node(data, (a,), bw)


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

    def bw(g):
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axes_t)
        a.accumulate_grad(np.broadcast_to(gg, a.data.shape))

    return _node(data, (a,), bw)


def reduce_mean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes_t = _norm_axes(axes, a.data.ndim)
    n = 1
    for ax in axes_t:
        n *= a.data.shape[ax]
    return mul(reduce_sum(a, axes_t, keepdims), Tensor(1.0 / n))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along ``axis``."""
    if not np.isfinite(a.data).all():
        raise NumericError("softmax: non-finite input")
    axis = axis % a.data.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        # d/dx softmax = y * (g - sum(g * y))
        dot = (g * data).sum(axis=axis, keepdims=True)
        a.accumulate_grad(data * (g - dot))

    return _node(data, (a,), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.isfinite(a.data).all():
        raise NumericError("log_softmax: non-finite input")
    axis = axis % a.data.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def bw(g):
        sm = np.exp(data)
        a.accumulate_grad(g - sm * g.sum(axis=axis, keepdims=True))

    return _node(data, (a,), bw)


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

    def bw(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.data.shape))

    return _node(data, (a, b), bw)


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

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x.accumulate_grad((g2 @ w.data).reshape(x.data.shape))
        if w.requires_grad:
            w.accumulate_grad(g2.T @ x.data.reshape(-1, x.data.shape[-1]))
        if b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0))

    return _node(data, (x, w, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def bw(g):
        a.accumulate_grad(g.reshape(a.data.shape))

    return _node(data, (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inv = np.argsort(axes)

    def bw(g):
        a.accumulate_grad(g.transpose(inv))

    return _node(data, (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [(_wrap(t)) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])

    return _node(data, tuple(tensors), bw)


def index_select(a: Tensor, axis: int, indices) -> Tensor:
    indices = np.asarray(indices, dtype=np.int64)
    data = np.take(a.data, indices, axis=axis)
    axis %= a.data.ndim

    def bw(g):
        buf = np.zeros_like(a.data)
        idx = (slice(None),) * axis + (indices,)
        if np.unique(indices % a.data.shape[axis]).size == indices.size:
            buf[idx] += g       # same bytes as np.add.at into zeros, -0.0 -> +0.0 included
        else:
            np.add.at(buf, idx, g)
        a.accumulate_grad(buf)

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

    def bw(g):
        a.accumulate_grad(g[batch, inverse])

    return _node(data, (a,), bw)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        data = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise DimensionError(f"broadcast_to: cannot expand {a.data.shape} to {shape}") from None

    def bw(g):
        a.accumulate_grad(_unbroadcast(g, a.data.shape))

    return _node(data, (a,), bw)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with (C_out, C_in, k, k) kernels."""
    B, C_in, H, W = x.data.shape
    C_out, C_in2, kh, kw = w.data.shape
    if C_in != C_in2:
        raise DimensionError(f"conv2d: input channels {C_in} != kernel channels {C_in2}")
    Hp, Wp = H + 2 * padding, W + 2 * padding
    if Hp < kh or Wp < kw:
        raise DimensionError(f"conv2d: spatial size {(H, W)} too small for kernel {(kh, kw)} with padding {padding}")
    H_out = (Hp - kh) // stride + 1
    W_out = (Wp - kw) // stride + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    # gather k*k strided views into columns: (B, C_in*k*k, L)
    views = [
        xp[:, :, i : i + stride * H_out : stride, j : j + stride * W_out : stride]
        for i in range(kh)
        for j in range(kw)
    ]
    cols = np.stack(views, axis=2).reshape(B, C_in * kh * kw, H_out * W_out)
    w_mat = w.data.reshape(C_out, C_in * kh * kw)
    out = w_mat @ cols
    if b is not None:
        out = out + b.data[:, None]
    out = out.reshape(B, C_out, H_out, W_out)

    parents = (x, w) if b is None else (x, w, b)

    def bw(g):
        g2 = g.reshape(B, C_out, H_out * W_out)
        if w.requires_grad:
            gw = np.einsum("bol,bkl->ok", g2, cols, optimize=True)
            w.accumulate_grad(gw.reshape(w.data.shape))
        if b is not None and b.requires_grad:
            b.accumulate_grad(g2.sum(axis=(0, 2)))
        if x.requires_grad:
            dcols = (w_mat.T @ g2).reshape(B, C_in, kh, kw, H_out, W_out)
            dxp = np.zeros((B, C_in, Hp, Wp), dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * H_out : stride, j : j + stride * W_out : stride] += dcols[:, :, i, j]
            x.accumulate_grad(dxp[:, :, padding : padding + H, padding : padding + W] if padding else dxp)

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
    """Bilinearly resize the trailing two axes; built from two matmuls."""
    *lead, h, w = x.data.shape
    a = Tensor(_interp_matrix(out_h, h, x.data.dtype))
    bmat = Tensor(_interp_matrix(out_w, w, x.data.dtype).T)
    flat = reshape(x, (-1, h, w))
    out = matmul(matmul(a, flat), bmat)
    return reshape(out, (*lead, out_h, out_w))


def bilinear_resize_array(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pure-array counterpart of :func:`bilinear_upsample` for inference paths."""
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
