"""Parameterized layers: linear, layer norm, multi-head attention,
feed-forward block, 3x3 convolution, and 2-D sinusoidal position codes.

Layers expose their parameters as a flat ``{name: Tensor}`` dict so the
optimizer and checkpoints can address them by hierarchical string keys.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

LN_EPS = 1e-6


class Layer:
    def params(self) -> dict[str, Tensor]:
        """Trainable tensors keyed by attribute path, in assignment order.

        Keys are the checkpoint format: renaming an attribute renames its
        tensors on disk.
        """
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out[name] = value
            elif isinstance(value, Layer):
                for k, v in value.params().items():
                    out[f"{name}.{k}"] = v
        return out


class Linear(Layer):
    """Affine map over the last axis: (..., C_in) -> (..., C_out)."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator,
                 bias_init: float = 0.0):
        limit = float(np.sqrt(6.0 / (c_in + c_out)))
        self.weight = Tensor(rng.uniform(-limit, limit, size=(c_out, c_in)), requires_grad=True)
        self.bias = Tensor(np.full(c_out, bias_init), requires_grad=True)
        self.c_in, self.c_out = c_in, c_out

    def __call__(self, x: Tensor) -> Tensor:
        # T.linear, not T.matmul: the kernel update, feed-forward and branch
        # layers run outside any canonical frame, so each row (token) must
        # be reduced in the same order wherever it sits.  OpenBLAS GEMM
        # rounds rows differently by position (x[p] @ W.T != (x @ W.T)[p]
        # for some widths), so BLAS is kept out of the forward pass.
        lead = x.shape[:-1]
        out = T.linear(T.reshape(x, (-1, self.c_in)), self.weight, self.bias)
        return T.reshape(out, (*lead, self.c_out))


class LayerNorm(Layer):
    """Normalize the last axis to zero mean / unit variance, then affine."""

    def __init__(self, c: int):
        if c < 2:
            raise ContractError("LayerNorm over a single channel is degenerate; use a bias instead")
        self.gamma = Tensor(np.ones(c), requires_grad=True)
        self.beta = Tensor(np.zeros(c), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        mu = T.reduce_mean(x, axes=-1, keepdims=True)
        centered = x - mu
        var = T.reduce_mean(centered * centered, axes=-1, keepdims=True)
        normed = centered / T.sqrt(var + LN_EPS)
        return normed * self.gamma + self.beta


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """(B, N, ...) array -> (B, N) opaque byte strings, one per row."""
    flat = np.ascontiguousarray(rows).reshape(*rows.shape[:2], -1)
    return flat.view(np.dtype((np.void, flat.shape[-1] * flat.itemsize)))[..., 0]


def _canonical_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-image stable sort of (B, N) row bytes, and its inverse."""
    order = np.argsort(keys, axis=1, kind="stable")
    return order, np.argsort(order, axis=1)


class MultiHeadAttention(Layer):
    """Scaled dot-product attention over (B, N, C) token sequences.

    The block runs in a canonical frame: each image's query rows are sorted
    by their bytes (key and value rows by their joint bytes), the GEMMs run
    there, and the result is gathered back to the input order.  Whatever
    order the tokens arrive in, the frame holds the same bytes, so the
    output is exactly permutation-equivariant however BLAS rounds.
    """

    def __init__(self, c: int, heads: int, rng: np.random.Generator):
        if c % heads != 0:
            raise ConfigError(f"model width {c} not divisible by {heads} heads")
        self.c = c
        self.heads = heads
        self.head_dim = c // heads
        self.q = Linear(c, c, rng)
        self.k = Linear(c, c, rng)
        self.v = Linear(c, c, rng)
        self.out = Linear(c, c, rng)

    def _split(self, x: Tensor, b: int, n: int) -> Tensor:
        return T.transpose(T.reshape(x, (b, n, self.heads, self.head_dim)), (0, 2, 1, 3))

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        b, n, _ = q.shape
        nk = k.shape[1]
        q_bytes = _row_bytes(q.data)
        order, rank = _canonical_order(q_bytes)
        q_in = T.permute_rows(q, order, rank)
        if k is q and v is q:
            k_in = v_in = q_in
        else:
            kv_order, kv_rank = _canonical_order(_row_bytes(np.concatenate([k.data, v.data], -1)))
            k_in, v_in = T.permute_rows(k, kv_order, kv_rank), T.permute_rows(v, kv_order, kv_rank)
        qh = self._split(self.q(q_in), b, n)
        kt = T.transpose(T.reshape(self.k(k_in), (b, nk, self.heads, self.head_dim)), (0, 2, 3, 1))
        vh = self._split(self.v(v_in), b, nk)
        scores = T.matmul(qh * (1.0 / math.sqrt(self.head_dim)), kt)
        ctx = T.matmul(T.softmax(scores, axis=-1), vh)
        out = self.out(T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, n, self.c)))
        # a GEMM may round bitwise-equal rows differently by their position
        # in the frame, so each equal run of query rows takes the value of
        # its first row (forward only: the gradient is the permutation's)
        sorted_bytes = np.take_along_axis(q_bytes, order, axis=1)
        starts = np.ones((b, n), dtype=bool)
        starts[:, 1:] = sorted_bytes[:, 1:] != sorted_bytes[:, :-1]
        first = np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=1)
        return T.permute_rows(out, rank, order, source=np.take_along_axis(first, rank, axis=1))


class FeedForward(Layer):
    """Two-layer MLP (hidden width 4C) with ReLU, wrapped in residual add +
    LayerNorm."""

    def __init__(self, c: int, rng: np.random.Generator):
        self.lin1 = Linear(c, 4 * c, rng)
        self.lin2 = Linear(4 * c, c, rng)
        self.norm = LayerNorm(c)

    def __call__(self, x: Tensor) -> Tensor:
        return self.norm(x + self.lin2(T.relu(self.lin1(x))))


class Conv2d(Layer):
    """k x k convolution (cross-correlation) with stride and zero padding."""

    def __init__(self, c_in: int, c_out: int, k: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0):
        fan_in = c_in * k * k
        std = float(np.sqrt(2.0 / fan_in))
        self.weight = Tensor(rng.standard_normal((c_out, c_in, k, k)) * std, requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


def positional_encoding_2d(h: int, w: int, c: int) -> Tensor:
    """Sinusoidal position code of shape (C, H, W); constant, no gradient.

    The first C/2 channels encode the normalized row coordinate, the rest
    the column coordinate, each as interleaved sin/cos with temperature
    10000.  Coordinates start at 0, so every sin channel is 0 and every
    cos channel is 1 at the top-left pixel.
    """
    if c % 4 != 0:
        raise ConfigError(f"positional encoding needs width divisible by 4, got {c}")
    half = c // 2
    dtype = np.float32 if T.get_precision() == "f32" else np.float64
    ys = (np.arange(h, dtype=dtype) / h) * (2.0 * np.pi)
    xs = (np.arange(w, dtype=dtype) / w) * (2.0 * np.pi)
    dim_t = 10000.0 ** (2 * (np.arange(half, dtype=dtype) // 2) / half)
    enc = np.zeros((c, h, w), dtype=dtype)
    ang_y = ys[None, :] / dim_t[:, None]          # (half, H)
    ang_x = xs[None, :] / dim_t[:, None]          # (half, W)
    enc[0:half:2] = np.sin(ang_y[0::2])[:, :, None]
    enc[1:half:2] = np.cos(ang_y[1::2])[:, :, None]
    enc[half::2] = np.sin(ang_x[0::2])[:, None, :]
    enc[half + 1 :: 2] = np.cos(ang_x[1::2])[:, None, :]
    return Tensor(enc)
