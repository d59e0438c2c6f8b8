"""AdamW with decoupled weight decay, plus the stepped LR schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import TrainingError
from .tensor import Tensor

# AdamW's moment decay rates and denominator guard
BETAS = (0.9, 0.999)
EPS = 1e-8
# the learning rate drops by LR_DROP at each of these fractions of the run
LR_MILESTONES = (2.0 / 3.0, 11.0 / 12.0)
LR_DROP = 0.1


def adamw_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               t: int, lr: float, weight_decay: float):
    """One update; returns (theta, m, v).  ``t`` is the 1-based step count."""
    b1, b2 = BETAS
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    theta = theta - lr * (m_hat / (np.sqrt(v_hat) + EPS) + weight_decay * theta)
    return theta, m, v


class AdamW:
    """AdamW over a dict of parameters, with first and second moments per key.

    ``t`` counts the steps taken; the rate comes with each ``step``, so the
    schedule lives with the caller (``lr_at``).
    """

    def __init__(self, params: dict[str, Tensor], weight_decay: float):
        self.params = params
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        """One AdamW update of every parameter, as one ``adamw_step`` call.

        Parameters, gradients and moments are concatenated, updated once
        and handed back as per-key views.  The update is elementwise with
        correctly rounded ops, so each element gets the bytes a
        per-parameter update would give it.
        """
        params = self.params
        theta = np.concatenate([p.data for p in params.values()], axis=None)
        # decoupled decay still applies to idle parameters
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params.values()]
        if any(g.shape != p.data.shape for g, p in zip(grads, params.values())):
            # the flat concatenation would reshape a same-size gradient
            raise self._bad_gradient()
        try:
            grad = np.concatenate(grads, axis=None, dtype=theta.dtype, casting="no")
        except TypeError:                    # a gradient of another dtype
            raise self._bad_gradient() from None
        if not np.isfinite(grad).all():
            raise self._bad_gradient()
        # a rejected step leaves the step count, and so the bias correction, as it was
        self.t += 1
        theta, m, v = adamw_step(
            theta, grad, np.concatenate([self.m[k] for k in params], axis=None),
            np.concatenate([self.v[k] for k in params], axis=None), self.t, lr, self.weight_decay,
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
        has another shape or dtype, or a non-finite value."""
        for key, p in self.params.items():
            grad = p.grad
            if grad is None:
                continue
            if grad.shape != p.data.shape:
                return TrainingError(
                    f"gradient of parameter {key!r} has shape {grad.shape}, "
                    f"the parameter {p.data.shape}"
                )
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


def lr_at(base_lr: float, iteration: int, total_iters: int) -> float:
    """The rate of 0-based ``iteration`` in a run of ``total_iters``.

    It drops by ``LR_DROP`` at each iteration ``floor(f * total_iters)``,
    ``f`` in ``LR_MILESTONES``.
    """
    drops = sum(iteration >= math.floor(f * total_iters) for f in LR_MILESTONES)
    return base_lr * LR_DROP ** drops
