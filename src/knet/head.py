"""Kernel update head: assemble per-group features under the current
masks, fuse them into the kernels through learned gates, let kernels
exchange context via self-attention, then re-predict masks and classes.
Stacking the head S times progressively refines the partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import ConfigError, DimensionError
from .layers import FeedForward, Layer, LayerNorm, Linear, MultiHeadAttention, canonical_frame
from .tensor import Tensor

# output bias of every class branch: class probabilities start below chance,
# as focal negatives dominate early on and the short desk schedule cannot
# climb far
CLASS_BIAS_INIT = -1.0


@dataclass
class StageOutput:
    """Predictions of one refinement stage (stage 0 = static kernels)."""

    kernels: Tensor            # (B, N, C)
    mask_logits: Tensor        # (B, N, h, w), stride-4 resolution
    class_logits: Tensor | None  # (B, N, num_thing_classes); None in semantic mode


def assemble_group_features(mask_probs: Tensor, feats: Tensor) -> Tensor:
    """Mask-weighted sums of feature vectors, one per kernel.

    out[b, n, c] = sum_uv mask_probs[b, n, u, v] * feats[b, c, u, v]
    The sum is deliberately unnormalized; the LayerNorms downstream absorb
    the group-size scale.
    """
    b, n, h, w = mask_probs.shape
    b2, c, h2, w2 = feats.shape
    if (h, w) != (h2, w2) or b != b2:
        raise DimensionError(
            f"group features: masks {mask_probs.shape} vs features {feats.shape}"
        )
    m = T.reshape(mask_probs, (b, n, h * w))
    f = T.transpose(T.reshape(feats, (b, c, h * w)), (0, 2, 1))
    return T.matmul(m, f, high_precision=True)


class FcLnRelu(Layer):
    """The FC-LN-ReLU unit used by mask/class branches and the plain update."""

    def __init__(self, c_in: int, c_out: int, rng):
        self.fc = Linear(c_in, c_out, rng)
        self.norm = LayerNorm(c_out)

    def __call__(self, x: Tensor) -> Tensor:
        return T.relu(self.norm(self.fc(x)))


class AdaptiveKernelUpdate(Layer):
    """Gated fusion of group features with the previous kernels.

    mixed   = lin_feat(F) * lin_kernel(K)
    gate_k  = sigmoid(LN(FC(mixed)))     gate_f = sigmoid(LN(FC(mixed)))
    fused   = gate_f * LN(FC(F)) + gate_k * LN(FC(K))
    """

    def __init__(self, c: int, rng):
        self.lin_feat = Linear(c, c, rng)
        self.lin_kernel = Linear(c, c, rng)
        self.gate_k_fc = Linear(c, c, rng)
        self.gate_k_norm = LayerNorm(c)
        self.gate_f_fc = Linear(c, c, rng)
        self.gate_f_norm = LayerNorm(c)
        self.feat_fc = Linear(c, c, rng)
        self.feat_norm = LayerNorm(c)
        self.kernel_fc = Linear(c, c, rng)
        self.kernel_norm = LayerNorm(c)

    def gates(self, group_feats: Tensor, kernels: Tensor) -> tuple[Tensor, Tensor]:
        mixed = self.lin_feat(group_feats) * self.lin_kernel(kernels)
        gate_k = T.sigmoid(self.gate_k_norm(self.gate_k_fc(mixed)))
        gate_f = T.sigmoid(self.gate_f_norm(self.gate_f_fc(mixed)))
        return gate_k, gate_f

    def __call__(self, group_feats: Tensor, kernels: Tensor) -> Tensor:
        gate_k, gate_f = self.gates(group_feats, kernels)
        feat_term = self.feat_norm(self.feat_fc(group_feats))
        kernel_term = self.kernel_norm(self.kernel_fc(kernels))
        return gate_f * feat_term + gate_k * kernel_term


class PlainKernelUpdate(Layer):
    """Ablation variant: fused = FcLnRelu(group_feats + kernels)."""

    def __init__(self, c: int, rng):
        self.proj = FcLnRelu(c, c, rng)

    def __call__(self, group_feats: Tensor, kernels: Tensor) -> Tensor:
        return self.proj(group_feats + kernels)


class KernelInteraction(Layer):
    """Self-attention across the kernel tokens, then a feed-forward block."""

    def __init__(self, c: int, heads: int, rng):
        self.attn = MultiHeadAttention(c, heads, rng)
        self.norm = LayerNorm(c)
        self.ffn = FeedForward(c, rng)

    def __call__(self, kernels: Tensor) -> Tensor:
        attended = self.norm(kernels + self.attn(kernels))
        return self.ffn(attended)


class KernelMlp(Layer):
    """FC-LN-ReLU followed by an FC layer; used for masks and classes."""

    def __init__(self, c: int, c_out: int, rng, out_bias_init: float = 0.0):
        self.hidden = FcLnRelu(c, c, rng)
        self.out = Linear(c, c_out, rng, bias_init=out_bias_init)

    def __call__(self, x: Tensor) -> Tensor:
        return self.out(self.hidden(x))


def class_branch(c: int, num_classes: int | None, rng) -> KernelMlp | None:
    """The class branch of a stage; ``None`` without classes (semantic mode)."""
    return KernelMlp(c, num_classes, rng, out_bias_init=CLASS_BIAS_INIT) if num_classes else None


def predict_masks(kernels: Tensor, feats: Tensor) -> Tensor:
    """1x1-convolve each kernel vector with the feature map.

    logits[b, n, u, v] = sum_c kernels[b, n, c] * feats[b, c, u, v]
    """
    b, n, c = kernels.shape
    b2, c2, h, w = feats.shape
    if c != c2 or b != b2:
        raise DimensionError(f"mask prediction: kernels {kernels.shape} vs features {feats.shape}")
    flat = T.reshape(feats, (b, c, h * w))
    return T.reshape(T.matmul(kernels, flat), (b, n, h, w))


class KernelUpdateStage(Layer):
    """One refinement step f_s: masks + kernels + features -> new predictions.

    The previous masks are read through a softmax over the N axis in a
    stage without a class branch (semantic mode: the masks compete per
    pixel), else through a per-kernel sigmoid.  The step runs in one
    canonical frame keyed on each kernel together with its previous mask,
    so it is exactly equivariant in the kernel order.
    """

    def __init__(self, c: int, num_classes: int | None, rng,
                 heads: int = 4, adaptive_update: bool = True,
                 interaction: bool = True):
        self.update: Layer = (
            AdaptiveKernelUpdate(c, rng) if adaptive_update else PlainKernelUpdate(c, rng)
        )
        # built before the mask branch (random draw order), assigned after
        # it (parameter key order)
        interaction_block = KernelInteraction(c, heads, rng) if interaction else None
        self.mask = KernelMlp(c, c, rng)
        self.interaction = interaction_block
        self.cls = class_branch(c, num_classes, rng)

    def __call__(self, mask_logits_prev: Tensor, kernels_prev: Tensor,
                 feats: Tensor) -> StageOutput:
        # the parameters shadow the arguments: the body sees only sorted rows
        def step(mask_logits_prev, kernels_prev):
            probs = (T.softmax(mask_logits_prev, axis=1) if self.cls is None
                     else T.sigmoid(mask_logits_prev))
            fused = self.update(assemble_group_features(probs, feats), kernels_prev)
            kernels = self.interaction(fused) if self.interaction is not None else fused
            mask_logits = predict_masks(self.mask(kernels), feats)
            return kernels, mask_logits, self.cls(kernels) if self.cls is not None else None

        kernels, mask_logits, class_logits = canonical_frame(step, mask_logits_prev, kernels_prev)
        return StageOutput(kernels, mask_logits, class_logits)


class IterativeKernelHead(Layer):
    """The stage-0 (static kernel) class branch plus S >= 0 update stages."""

    def __init__(self, c: int, stages: int, num_classes: int | None, rng,
                 heads: int = 4, adaptive_update: bool = True,
                 interaction: bool = True):
        if stages < 0:
            raise ConfigError(f"refinement stage count must be >= 0, got {stages}")
        # class branch built first (random draw order): heads with different S
        # then share a parameter prefix, which the stage-composability tests
        # compare bitwise; assigned after the stages (parameter key order)
        stage0_cls = class_branch(c, num_classes, rng)
        for i in range(1, stages + 1):
            setattr(self, f"stage{i}", KernelUpdateStage(
                c, num_classes, rng, heads=heads, adaptive_update=adaptive_update,
                interaction=interaction))
        self.stage0_cls = stage0_cls

    @property
    def stages(self) -> list[KernelUpdateStage]:
        """``stage1`` .. ``stageS``, in order."""
        return [v for v in vars(self).values() if isinstance(v, KernelUpdateStage)]

    def run_iterative(self, kernels0: Tensor, mask_logits0: Tensor,
                      feats: Tensor) -> list[StageOutput]:
        """Run every stage; element 0 of the result is the static prediction."""
        class0 = self.stage0_cls(kernels0) if self.stage0_cls is not None else None
        outputs = [StageOutput(kernels0, mask_logits0, class0)]
        for stage in self.stages:
            prev = outputs[-1]
            outputs.append(stage(prev.mask_logits, prev.kernels, feats))
        return outputs
