"""Fused single-node ops against the composites they replace, bit for bit.

``T.layer_norm`` and the loss terms ``focal_loss``, ``dice_loss`` and
``mask_ce_loss`` are each one graph node.  The references below build the
same functions from primitives, one node per primitive: the engine's own
and, for the ops no model path runs (``sub``, ``div``, ``neg``,
``pow_const``, ``sqrt``, ``exp``, ``log`` and ``clip``), those of
``composite_ops``.  The ops are called by name; ``Tensor`` keeps only the
``+`` and ``*`` operators that the model uses.  Each fused op must give
the same forward bytes and the same gradient bytes for every input and
parameter, in f32 and f64, also when its input feeds other nodes too.
The last test swaps the references into a full model loss and checks that
every parameter gradient keeps its bytes.
"""

import numpy as np
import pytest

from knet import layers as L
from knet import matching as M
from knet import model as MO
from knet import tensor as T
from knet.data import SceneSpec, generate_sample
from knet.errors import DimensionError
from knet.tensor import Tensor

from composite_ops import clip, div, exp, log, neg, pow_const, sqrt, sub


# ---------------------------------------------------------------------------
# reference composites

def layer_norm_ref(x, gamma, beta, eps=L.LN_EPS):
    mu = T.reduce_mean(x, axes=-1, keepdims=True)
    centered = sub(x, mu)
    var = T.reduce_mean(centered * centered, axes=-1, keepdims=True)
    normed = div(centered, sqrt(var + eps))
    return normed * gamma + beta


def focal_loss_ref(probs, targets, alpha=0.25, gamma=2.0):
    p = clip(probs, M.PROB_CLAMP, 1.0 - M.PROB_CLAMP)
    t = np.asarray(targets, dtype=p.data.dtype)
    pos = pow_const(sub(Tensor(1.0), p), gamma) * log(p) * (-alpha)
    negative = pow_const(p, gamma) * log(sub(Tensor(1.0), p)) * (alpha - 1.0)
    per = pos * t + negative * (1.0 - t)
    summed = T.reduce_sum(per, axes=-1)
    return T.reduce_mean(summed) if summed.ndim > 0 else summed


def dice_loss_ref(pred_probs, gt):
    g = np.asarray(gt, dtype=pred_probs.data.dtype)
    inter = T.reduce_sum(pred_probs * g, axes=-1)
    denom = T.reduce_sum(pred_probs, axes=-1) + Tensor(g.sum(axis=-1))
    return sub(Tensor(1.0), div(2.0 * inter + M.DICE_EPS, denom + M.DICE_EPS))


def mask_ce_loss_ref(pred_logits, gt):
    g = np.asarray(gt, dtype=pred_logits.data.dtype)
    z = pred_logits
    absz = T.relu(z) + T.relu(neg(z))
    per_pixel = sub(T.relu(z), z * g) + log(T.add(Tensor(1.0), exp(neg(absz))))
    return T.reduce_mean(per_pixel, axes=-1)


# ---------------------------------------------------------------------------
# op-level comparisons

def _bytes(a):
    return None if a is None else (np.asarray(a).dtype, np.asarray(a).shape,
                                   np.asarray(a).tobytes())


def _run(op, x_data, params, rng_seed, shared):
    """Forward and backward through ``op``; returns the bytes of the output
    and of every leaf gradient.  With ``shared`` set, the op's input is an
    interior node that a sigmoid readout also consumes, added to the loss
    before or after the op's term."""
    rng = np.random.default_rng(rng_seed)
    leaf = Tensor(x_data, requires_grad=True)
    z = leaf * 1.5 if shared else leaf
    out = op(z, *params)
    term = T.reduce_sum(T.mul(out, Tensor(rng.standard_normal(out.shape))))
    if shared:
        other = T.reduce_sum(T.mul(T.sigmoid(z), Tensor(rng.standard_normal(z.shape))))
        term = term + other if shared == "after" else other + term
    term.backward()
    return [_bytes(out.data)] + [_bytes(t.grad) for t in (leaf, *params)]


def _compare(fused, ref, x_data, params_data, shared):
    def build(data):
        return [Tensor(d, requires_grad=True) for d in data]
    got = _run(fused, x_data, build(params_data), 3, shared)
    want = _run(ref, x_data, build(params_data), 3, shared)
    assert got == want


PRECISIONS = ["f32", "f64"]
SHARED = [None, "before", "after"]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("shared", SHARED)
@pytest.mark.parametrize("shape", [(3, 6), (2, 5, 8)])
def test_layer_norm_bitwise(precision, shared, shape):
    rng = np.random.default_rng(len(shape))
    c = shape[-1]
    with T.precision(precision):
        _compare(lambda x, g, b: T.layer_norm(x, g, b, L.LN_EPS), layer_norm_ref,
                 rng.standard_normal(shape) * 3.0 + 1.0,
                 [rng.standard_normal(c), rng.standard_normal(c)], shared)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("shared", SHARED)
@pytest.mark.parametrize("shape", [(7,), (2, 4, 3)])
def test_focal_loss_bitwise(precision, shared, shape):
    rng = np.random.default_rng(10 + len(shape))
    # soft targets: with {0, 1} ones, two of the four gradient terms of
    # each element are zero, and the order of the sum would not show
    targets = rng.uniform(size=shape).astype(np.float32)
    targets.reshape(-1)[:2] = [0.0, 1.0]
    with T.precision(precision):
        if shared:
            # logits as in training; the large ones saturate the sigmoid
            _compare(lambda z: M.focal_loss(T.sigmoid(z), targets),
                     lambda z: focal_loss_ref(T.sigmoid(z), targets),
                     rng.standard_normal(shape) * 8.0, [], shared)
        else:
            # probabilities, two of them beyond the clamp
            probs = rng.uniform(0.01, 0.99, size=shape)
            probs.reshape(-1)[:2] = [0.0, 1.0]
            _compare(lambda p: M.focal_loss(p, targets, 0.3, 1.5),
                     lambda p: focal_loss_ref(p, targets, 0.3, 1.5), probs, [], shared)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("shared", SHARED)
@pytest.mark.parametrize("shape", [(9,), (2, 3, 16)])
def test_dice_loss_bitwise(precision, shared, shape):
    rng = np.random.default_rng(20 + len(shape))
    gt = rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.5)
    with T.precision(precision):
        _compare(lambda z: M.dice_loss(T.sigmoid(z), gt), lambda z: dice_loss_ref(T.sigmoid(z), gt),
                 rng.standard_normal(shape) * 2.0, [], shared)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("shared", SHARED)
@pytest.mark.parametrize("shape", [(9,), (5, 16), (2, 3, 16)])
def test_mask_ce_loss_bitwise(precision, shared, shape):
    rng = np.random.default_rng(30 + len(shape))
    gt = rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.5)
    logits = rng.standard_normal(shape) * 3.0
    logits.reshape(-1)[:2] = [0.0, -0.0]
    with T.precision(precision):
        _compare(lambda z: M.mask_ce_loss(z, gt), lambda z: mask_ce_loss_ref(z, gt),
                 logits, [], shared)


def test_layer_norm_parameter_gradients_for_a_constant_input():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 5)))
    gamma, beta = rng.standard_normal(5), rng.standard_normal(5)
    got = _run(lambda _, g, b: T.layer_norm(x, g, b, L.LN_EPS), x.data,
               [Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)], 5, None)
    want = _run(lambda _, g, b: layer_norm_ref(x, g, b), x.data,
                [Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)], 5, None)
    assert got[1] is None and got == want


@pytest.mark.parametrize("op", [M.focal_loss, M.dice_loss, M.mask_ce_loss])
def test_loss_targets_must_match_shape(op):
    with pytest.raises(DimensionError):
        op(Tensor(np.full((2, 3), 0.5)), np.ones((3,)))


def test_layer_norm_affine_shape_checked():
    with pytest.raises(DimensionError):
        T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)), 1e-6)


# ---------------------------------------------------------------------------
# the whole training graph

def _param_grads(mode):
    spec = SceneSpec(seed=21, size=16, n_max=2, size_range=(5.0, 8.0))
    gts = [generate_sample(spec, i) for i in range(2)]
    cfg = MO.ModelConfig(mode=mode, image_size=16, channels=8, num_instance_kernels=3,
                         stages=2, heads=2, min_area=1, keep_fraction=0.0)
    model = MO.SegmentationModel(cfg, seed=8)
    _, loss, _ = model.forward(np.stack([g.image for g in gts]), gts)
    loss.backward()
    return _bytes(loss.data), {k: _bytes(p.grad) for k, p in model.params().items()}


@pytest.mark.parametrize("mode", MO.MODES)
def test_model_gradients_match_composites(mode, monkeypatch):
    fused = _param_grads(mode)
    monkeypatch.setattr(L.LayerNorm, "__call__",
                        lambda self, x: layer_norm_ref(x, self.gamma, self.beta))
    monkeypatch.setattr(M, "focal_loss", focal_loss_ref)
    monkeypatch.setattr(M, "dice_loss", dice_loss_ref)
    monkeypatch.setattr(M, "mask_ce_loss", mask_ce_loss_ref)
    assert fused == _param_grads(mode)
