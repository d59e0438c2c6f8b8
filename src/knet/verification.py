"""Finite-difference verification of every trainable block and loss term.

Each check builds a small randomly-initialized layer in f64 mode, wires a
scalar readout with fixed random coefficients, and compares backward()
against central differences.  The full-stage check composes group-feature
assembly, the adaptive update, kernel interaction, and both prediction
branches end to end.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .head import (
    AdaptiveKernelUpdate, KernelMlp, KernelInteraction, KernelUpdateStage, PlainKernelUpdate,
)
from .layers import Conv2d, FeedForward, LayerNorm, Linear, MultiHeadAttention
from .matching import dice_loss, focal_loss, mask_ce_loss
from .model import BackboneLite, ModelConfig
from .tensor import Tensor

FULL_STAGE_TOLERANCE = 1e-4
LAYER_TOLERANCE = 1e-5


def _readout(rng, shape):
    coef = Tensor(rng.standard_normal(shape))
    return lambda out: T.reduce_sum(T.mul(out, coef))


def _input_check(build, in_shape, out_shape):
    """Check the gradient of a readout of ``build(rng)(x)`` with respect to x."""
    def check(rng):
        layer = build(rng)
        read = _readout(rng, out_shape)
        x = Tensor(rng.standard_normal(in_shape), requires_grad=True)
        return T.grad_check(lambda t: read(layer(t)), x)
    return check


def _linear_param_check(name):
    def check(rng):
        layer = Linear(5, 4, rng)
        read = _readout(rng, (2, 3, 4))
        x = Tensor(rng.standard_normal((2, 3, 5)))
        return T.grad_check(lambda _: read(layer(x)), getattr(layer, name))
    return check


def _layer_norm_param_check(name):
    def check(rng):
        layer = LayerNorm(6)
        layer.gamma.data = rng.standard_normal(6)
        layer.beta.data = rng.standard_normal(6)
        read = _readout(rng, (2, 3, 6))
        x = Tensor(rng.standard_normal((2, 3, 6)))
        return T.grad_check(lambda _: read(layer(x)), getattr(layer, name))
    return check


def _loss_check(loss, logits_to_input, out_shape):
    """Check a loss term's gradient with respect to (4, 9) logits against
    soft targets; ``logits_to_input`` maps the logits to its input."""
    def check(rng):
        targets = rng.uniform(size=(4, 9))
        read = _readout(rng, out_shape)
        x = Tensor(rng.standard_normal((4, 9)), requires_grad=True)
        return T.grad_check(lambda t: read(loss(logits_to_input(t), targets)), x)
    return check


def _check_adaptive_update(rng):
    layer = AdaptiveKernelUpdate(6, rng)
    read = _readout(rng, (1, 2, 6))
    gf = Tensor(rng.standard_normal((1, 2, 6)), requires_grad=True)
    kk = Tensor(rng.standard_normal((1, 2, 6)))
    err = T.grad_check(lambda t: read(layer(t, kk)), gf)
    kk2 = Tensor(rng.standard_normal((1, 2, 6)), requires_grad=True)
    gf2 = Tensor(rng.standard_normal((1, 2, 6)))
    return max(err, T.grad_check(lambda t: read(layer(gf2, t)), kk2))


def _check_plain_update(rng):
    layer = PlainKernelUpdate(6, rng)
    read = _readout(rng, (1, 2, 6))
    gf = Tensor(rng.standard_normal((1, 2, 6)), requires_grad=True)
    kk = Tensor(rng.standard_normal((1, 2, 6)))
    return T.grad_check(lambda t: read(layer(t, kk)), gf)


def _check_backbone(rng):
    cfg = ModelConfig(mode="instance", image_size=8, channels=8,
                      num_instance_kernels=2, stages=1, heads=2)
    bb = BackboneLite(cfg, rng)
    ra = _readout(rng, (1, 8, 2, 2))
    rb = _readout(rng, (1, 8, 2, 2))
    x = Tensor(rng.standard_normal((1, 3, 8, 8)), requires_grad=True)

    def loss(t):
        fa, fb = bb(t)
        return ra(fa) + rb(fb)

    return T.grad_check(loss, x)


def _stage_readout(rng, n):
    read_m, read_k, read_c = (_readout(rng, s) for s in ((1, n, 3, 3), (1, n, 8), (1, n, 2)))
    return lambda out: read_m(out.mask_logits) + read_k(out.kernels) + read_c(out.class_logits)


def _check_full_stage(rng):
    stage = KernelUpdateStage(8, 2, rng, heads=2)
    read = _stage_readout(rng, 2)
    m_prev = Tensor(rng.standard_normal((1, 2, 3, 3)))
    k_prev = Tensor(rng.standard_normal((1, 2, 8)))
    feats = Tensor(rng.standard_normal((1, 8, 3, 3)), requires_grad=True)
    err = T.grad_check(lambda t: read(stage(m_prev, k_prev, t)), feats)
    k_prev2 = Tensor(rng.standard_normal((1, 2, 8)), requires_grad=True)
    feats2 = Tensor(rng.standard_normal((1, 8, 3, 3)))
    return max(err, T.grad_check(lambda t: read(stage(m_prev, t, feats2)), k_prev2))


def _check_full_stage_duplicate_row(rng):
    # kernel 2 repeats kernel 0 with its mask, so the canonical frame's
    # forward-only equal-row fix-up is active at the point of the check
    stage = KernelUpdateStage(8, 2, rng, heads=2)
    read = _stage_readout(rng, 3)
    m = rng.standard_normal((1, 3, 3, 3))
    k = rng.standard_normal((1, 3, 8))
    m[0, 2], k[0, 2] = m[0, 0], k[0, 0]
    feats = Tensor(rng.standard_normal((1, 8, 3, 3)))
    return T.grad_check(lambda t: read(stage(Tensor(m), t, feats)),
                        Tensor(k, requires_grad=True))


CHECKS = {
    "linear": (_input_check(lambda rng: Linear(5, 4, rng), (2, 3, 5), (2, 3, 4)), LAYER_TOLERANCE),
    "linear_weight": (_linear_param_check("weight"), LAYER_TOLERANCE),
    "linear_bias": (_linear_param_check("bias"), LAYER_TOLERANCE),
    "layer_norm": (_input_check(lambda _: LayerNorm(6), (3, 6), (3, 6)), LAYER_TOLERANCE),
    "layer_norm_gamma": (_layer_norm_param_check("gamma"), LAYER_TOLERANCE),
    "layer_norm_beta": (_layer_norm_param_check("beta"), LAYER_TOLERANCE),
    "multi_head_attention": (_input_check(lambda rng: MultiHeadAttention(8, 2, rng),
                                          (1, 3, 8), (1, 3, 8)), LAYER_TOLERANCE),
    "feed_forward": (_input_check(lambda rng: FeedForward(6, rng), (2, 6), (2, 6)),
                     LAYER_TOLERANCE),
    "conv2d": (_input_check(lambda rng: Conv2d(2, 3, 3, rng, stride=2, padding=1),
                            (1, 2, 5, 5), (1, 3, 3, 3)), LAYER_TOLERANCE),
    "backbone": (_check_backbone, LAYER_TOLERANCE),
    "adaptive_kernel_update": (_check_adaptive_update, LAYER_TOLERANCE),
    "plain_kernel_update": (_check_plain_update, LAYER_TOLERANCE),
    "kernel_interaction": (_input_check(lambda rng: KernelInteraction(8, 2, rng),
                                        (1, 3, 8), (1, 3, 8)), LAYER_TOLERANCE),
    "mask_branch": (_input_check(lambda rng: KernelMlp(8, 8, rng), (1, 2, 8), (1, 2, 8)),
                    LAYER_TOLERANCE),
    "class_branch": (_input_check(lambda rng: KernelMlp(8, 3, rng), (1, 2, 8), (1, 2, 3)),
                     LAYER_TOLERANCE),
    "focal_loss": (_loss_check(focal_loss, T.sigmoid, ()), LAYER_TOLERANCE),
    "dice_loss": (_loss_check(dice_loss, T.sigmoid, (4,)), LAYER_TOLERANCE),
    "mask_ce_loss": (_loss_check(mask_ce_loss, lambda t: t, (4,)), LAYER_TOLERANCE),
    "full_stage": (_check_full_stage, FULL_STAGE_TOLERANCE),
    "full_stage_duplicate_row": (_check_full_stage_duplicate_row, FULL_STAGE_TOLERANCE),
}


def gradient_suite(seeds: int = 10) -> dict[str, tuple[float, float]]:
    """Run every check over ``seeds`` seeds; returns name -> (max err, tol)."""
    if seeds < 1:
        raise ConfigError(f"gradient checks need at least one seed, got {seeds}")
    results = {}
    with T.precision("f64"):
        for name, (fn, tol) in CHECKS.items():
            worst = 0.0
            for seed in range(seeds):
                rng = np.random.default_rng(seed)
                worst = max(worst, fn(rng))
            results[name] = (worst, tol)
    return results
