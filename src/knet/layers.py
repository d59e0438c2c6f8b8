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
        return T.linear(x, self.weight, self.bias)


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


def canonical_frame(fn, *rows: Tensor) -> tuple[Tensor | None, ...]:
    """Run ``fn`` on (B, N, ...) rows sorted into a canonical order.

    This is where exact permutation equivariance comes from.  Each image's
    rows are sorted stably by the joint bytes of all of ``rows``, so ``fn``
    sees the same bytes whatever order they arrive in, and its ops may
    round as BLAS likes.  Every tensor ``fn`` returns is gathered back to
    the input order (``None`` passes through).  A GEMM may still round
    bitwise-equal rows differently by their position, so each run of equal
    rows takes its first row's outputs.  That fix-up is forward only, the
    backward being the permutation's: a copy inside the graph would send
    the equal rows' gradients to the first one, unlike finite differences.
    """
    b, n = rows[0].shape[:2]
    flat = np.concatenate([r.data.reshape(b, n, -1) for r in rows], axis=-1)
    keys = flat.view(np.dtype((np.void, flat.shape[-1] * flat.itemsize)))[..., 0]
    order = np.argsort(keys, axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    starts = np.ones((b, n), dtype=bool)
    starts[:, 1:] = sorted_keys[:, 1:] != sorted_keys[:, :-1]
    first = np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=1)
    source = np.take_along_axis(first, rank, axis=1)
    outs = fn(*(T.permute_rows(r, order, rank) for r in rows))
    return tuple(None if o is None else T.permute_rows(o, rank, order, source=source)
                 for o in outs)


class MultiHeadAttention(Layer):
    """Scaled dot-product attention over (B, N, C) token sequences, as plain
    GEMMs; exactly permutation-equivariant only inside :func:`canonical_frame`.
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
        qh = self._split(self.q(q), b, n)
        kt = T.transpose(T.reshape(self.k(k), (b, nk, self.heads, self.head_dim)), (0, 2, 3, 1))
        vh = self._split(self.v(v), b, nk)
        scores = T.matmul(qh * (1.0 / math.sqrt(self.head_dim)), kt)
        ctx = T.matmul(T.softmax(scores, axis=-1), vh)
        return self.out(T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, n, self.c)))


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
