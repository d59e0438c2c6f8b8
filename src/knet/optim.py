"""AdamW with decoupled weight decay, plus the stepped LR schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, TrainingError
from .tensor import Tensor


def adamw_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               t: int, lr: float, weight_decay: float,
               betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
    """One update; returns (theta, m, v).  ``t`` is the 1-based step count."""
    b1, b2 = betas
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * theta)
    return theta, m, v


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 weight_decay: float = 0.05, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        """One AdamW update of every parameter, as one ``adamw_step`` call.

        Parameters, gradients and moments are concatenated, updated once
        and handed back as per-key views.  The update is elementwise with
        correctly rounded ops, so each element gets the bytes a
        per-parameter update would give it.
        """
        lr = self.lr if lr is None else lr
        self.t += 1
        params = self.params
        theta = np.concatenate([p.data for p in params.values()], axis=None)
        try:
            # decoupled decay still applies to idle parameters
            grad = np.concatenate(
                [np.zeros_like(p.data) if p.grad is None else p.grad for p in params.values()],
                axis=None, dtype=theta.dtype, casting="no",
            )
        except TypeError:                    # a gradient of another dtype
            raise self._bad_gradient() from None
        if not np.isfinite(grad).all():
            raise self._bad_gradient()
        theta, m, v = adamw_step(
            theta, grad, np.concatenate([self.m[k] for k in params], axis=None),
            np.concatenate([self.v[k] for k in params], axis=None), self.t,
            lr, self.weight_decay, self.betas, self.eps,
        )
        end = 0
        for key, p in params.items():
            start, end = end, end + p.data.size
            shape = p.data.shape
            p.data = theta[start:end].reshape(shape)
            self.m[key] = m[start:end].reshape(shape)
            self.v[key] = v[start:end].reshape(shape)

    def _bad_gradient(self) -> TrainingError:
        """The error naming the first parameter, in key order, whose gradient
        has another dtype or a non-finite value."""
        for key, p in self.params.items():
            grad = p.grad
            if grad is None:
                continue
            if grad.dtype != p.data.dtype:
                # AdamW would silently promote the parameter and its moments
                return TrainingError(
                    f"gradient of parameter {key!r} is {grad.dtype}, the parameter {p.data.dtype}"
                )
            if not np.isfinite(grad).all():
                return TrainingError(f"non-finite gradient in parameter {key!r}")
        dtypes = sorted({str(p.data.dtype) for p in self.params.values()})
        return TrainingError(f"parameters must share one dtype, got {', '.join(dtypes)}")

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for key in self.params:
            out[f"m:{key}"] = self.m[key]
            out[f"v:{key}"] = self.v[key]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        self.t = t
        for key in self.params:
            self.m[key] = arrays[f"m:{key}"].astype(self.m[key].dtype)
            self.v[key] = arrays[f"v:{key}"].astype(self.v[key].dtype)


def milestone_iterations(total_iters: int, fractions: tuple[float, ...]) -> list[int]:
    prev = 0.0
    for f in fractions:
        if not (0.0 < f < 1.0) or f <= prev:
            raise ConfigError(f"milestones must be strictly increasing within (0, 1): {fractions}")
        prev = f
    return [math.floor(f * total_iters) for f in fractions]


def lr_at(base_lr: float, iteration: int, milestones: list[int], factor: float = 0.1) -> float:
    drops = sum(iteration >= m for m in milestones)
    return base_lr * factor ** drops
