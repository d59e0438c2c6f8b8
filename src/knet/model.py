"""Task assembly: a small two-branch convolutional backbone, static mask
kernels, the iterative refinement head, and the inference-side decoding
(instance binarization and panoptic pasting).

One model class covers the three modes:

* semantic: one kernel per class, masks compete through a softmax.
* instance: matched instance kernels; a semantic branch provides
  auxiliary supervision built from the instance masks themselves.
* panoptic: instance kernels concatenated with the stuff rows of the
  semantic kernels; merged to a segment raster by score-weighted pasting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .data import GroundTruthSample, STUFF_CLASS_IDS, THING_CLASS_IDS, dataclass_from_dict
from .errors import ConfigError, ContractError, DimensionError
from .head import SIGMOID, SOFTMAX, IterativeKernelHead, StageOutput, predict_masks
from .layers import Conv2d, Layer, positional_encoding_2d
from .matching import LossWeights, semantic_loss, set_prediction_loss
from .metrics import PanopticMap, SegmentInfo
from .tensor import Tensor

MODES = ("semantic", "instance", "panoptic")
BACKGROUND_ID = 0


@dataclass
class ModelConfig:
    mode: str = "panoptic"
    image_size: int = 64
    channels: int = 32
    num_instance_kernels: int = 10
    stages: int = 3
    heads: int = 4
    thing_class_ids: list[int] = field(default_factory=lambda: list(THING_CLASS_IDS))
    stuff_class_ids: list[int] = field(default_factory=lambda: list(STUFF_CLASS_IDS))
    aku: bool = True
    ki: bool = True
    positional_encoding: bool = True
    score_floor: float = 0.3
    mask_threshold: float = 0.5
    min_area: int = 16
    keep_fraction: float = 0.5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.stages < 0:
            raise ConfigError(f"refinement stage count must be >= 0, got {self.stages}")
        if self.num_instance_kernels < 0:
            raise ConfigError(
                f"instance kernel count must be >= 0, got {self.num_instance_kernels}"
            )
        if self.mode == "instance" and self.num_instance_kernels == 0:
            raise ConfigError("instance mode needs at least one instance kernel")
        if self.mode != "semantic" and not self.thing_class_ids:
            raise ConfigError(f"{self.mode} mode needs at least one thing class")
        ids = [*self.thing_class_ids, *self.stuff_class_ids]
        if not ids:
            raise ConfigError("the model needs at least one class")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"thing and stuff class ids must be distinct, got {ids}")
        if self.image_size <= 0 or self.image_size % 4 != 0:
            raise ConfigError(f"image size {self.image_size} must be positive and divisible by 4")
        if self.heads < 1:
            raise ConfigError(f"head count must be >= 1, got {self.heads}")
        if self.channels <= 0 or self.channels % 4 != 0 or self.channels % self.heads != 0:
            raise ConfigError(
                f"channel width {self.channels} must be positive and divisible by 4 "
                f"and by {self.heads} heads"
            )

    @property
    def semantic_class_ids(self) -> list[int]:
        if self.mode == "instance":
            # auxiliary branch: background + thing classes, targets derived
            # from the instance masks
            return [BACKGROUND_ID] + list(self.thing_class_ids)
        return list(self.thing_class_ids) + list(self.stuff_class_ids)

    @property
    def num_semantic_kernels(self) -> int:
        return len(self.semantic_class_ids)

    @property
    def stuff_rows(self) -> list[int]:
        ids = self.semantic_class_ids
        return [ids.index(c) for c in self.stuff_class_ids]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return dataclass_from_dict(cls, d)


class BackboneLite(Layer):
    """Two stride-2 stem convs, then two small branches at stride 4."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        c = cfg.channels
        self.stem1 = Conv2d(3, c, 3, rng, stride=2, padding=1)
        self.stem2 = Conv2d(c, c, 3, rng, stride=2, padding=1)
        self.ins1 = Conv2d(c, c, 3, rng, stride=1, padding=1)
        self.ins2 = Conv2d(c, c, 3, rng, stride=1, padding=1)
        self.sem1 = Conv2d(c, c, 3, rng, stride=1, padding=1)
        self.sem2 = Conv2d(c, c, 3, rng, stride=1, padding=1)
        self.use_pe = cfg.positional_encoding
        self._pe_cache: dict[tuple, Tensor] = {}

    def __call__(self, images: Tensor) -> tuple[Tensor, Tensor]:
        if images.ndim != 4 or images.shape[1] != 3:
            raise DimensionError(f"model input must be (B, 3, H, W), got {images.shape}")
        _, _, h, w = images.shape
        if h % 4 or w % 4:
            raise ConfigError(f"input size {(h, w)} must be divisible by 4")
        x = T.relu(self.stem1(images))
        x = T.relu(self.stem2(x))
        if self.use_pe:
            key = (x.shape[1], x.shape[2], x.shape[3], T.get_precision())
            pe = self._pe_cache.get(key)
            if pe is None:
                pe = positional_encoding_2d(x.shape[2], x.shape[3], x.shape[1])
                self._pe_cache[key] = pe
            x = x + pe
        f_ins = T.relu(self.ins2(T.relu(self.ins1(x))))
        f_sem = T.relu(self.sem2(T.relu(self.sem1(x))))
        return f_ins, f_sem


def build_panoptic_inputs(m0_ins: Tensor, m0_sem: Tensor, k0_ins: Tensor,
                          k0_sem: Tensor, f_ins: Tensor, f_sem: Tensor,
                          stuff_rows: list[int]) -> tuple[Tensor, Tensor, Tensor]:
    """Concatenate instance rows with the stuff rows of the semantic set.

    Thing rows of the semantic prediction are dropped: instances already
    cover them.  The two feature branches are summed into the single map
    the update head refines against.
    """
    rows = np.asarray(stuff_rows, dtype=np.int64)
    m0 = T.concat([m0_ins, T.index_select(m0_sem, 1, rows)], axis=1)
    k0 = T.concat([k0_ins, T.index_select(k0_sem, 1, rows)], axis=1)
    return m0, k0, f_ins + f_sem


class SegmentationModel(Layer):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.backbone = BackboneLite(cfg, rng)
        c = cfg.channels
        kscale = 1.0 / np.sqrt(c)
        self.instance_kernels = Tensor(
            rng.standard_normal((cfg.num_instance_kernels, c)) * kscale, requires_grad=True,
        )
        self.semantic_kernels = Tensor(
            rng.standard_normal((cfg.num_semantic_kernels, c)) * kscale, requires_grad=True,
        )
        num_classes = len(cfg.thing_class_ids) if cfg.mode != "semantic" else None
        # start class probabilities below chance: focal negatives dominate
        # early on, and the short desk schedule cannot climb far
        self.head = IterativeKernelHead(
            c, cfg.stages, num_classes, rng, heads=cfg.heads,
            adaptive_update=cfg.aku, interaction=cfg.ki, class_bias_init=-1.0,
        )

    def params(self):
        out = super().params()
        # the static kernels are stored as kernels.{instance,semantic}
        rename = {"instance_kernels": "kernels.instance", "semantic_kernels": "kernels.semantic"}
        return {rename.get(k, k): v for k, v in out.items()}

    def forward(self, images: np.ndarray | Tensor,
                gts: list[GroundTruthSample] | None = None,
                weights: LossWeights | None = None):
        """Run the pipeline; with ground truth also return the loss.

        Returns ``stages`` (length S+1) or ``(stages, loss, breakdown)``
        in training mode.
        """
        x = images if isinstance(images, Tensor) else Tensor(images)
        b = x.shape[0]
        cfg = self.cfg
        f_ins, f_sem = self.backbone(x)

        k_ins = T.broadcast_to(
            T.reshape(self.instance_kernels, (1, *self.instance_kernels.shape)),
            (b, *self.instance_kernels.shape),
        )
        k_sem = T.broadcast_to(
            T.reshape(self.semantic_kernels, (1, *self.semantic_kernels.shape)),
            (b, *self.semantic_kernels.shape),
        )

        m0_sem = None
        if cfg.mode == "semantic":
            m0 = predict_masks(k_sem, f_sem)
            k0, feats, activation = k_sem, f_sem, SOFTMAX
        elif cfg.mode == "instance":
            m0 = predict_masks(k_ins, f_ins)
            k0, feats, activation = k_ins, f_ins + f_sem, SIGMOID
            if gts is not None:
                m0_sem = predict_masks(k_sem, f_sem)
        else:
            m0_ins = predict_masks(k_ins, f_ins)
            m0_sem = predict_masks(k_sem, f_sem)
            m0, k0, feats = build_panoptic_inputs(
                m0_ins, m0_sem, k_ins, k_sem, f_ins, f_sem, cfg.stuff_rows,
            )
            activation = SIGMOID

        stages = self.head.run_iterative(k0, m0, feats, activation)

        if gts is None:
            return stages
        return self._training_loss(stages, m0_sem, gts, weights or LossWeights())

    def _training_loss(self, stages, m0_sem, gts, weights):
        cfg = self.cfg
        size = cfg.image_size
        loss, breakdown = set_prediction_loss(stages, gts, cfg, weights)
        if cfg.mode == "instance" and m0_sem is not None:
            aux_maps = np.stack([aux_semantic_map(gt) for gt in gts]).reshape(len(gts), -1)
            up = T.bilinear_upsample(m0_sem, size, size)
            up = T.reshape(up, (up.shape[0], up.shape[1], size * size))
            aux = semantic_loss(up, aux_maps, cfg.semantic_class_ids)
            loss = loss + weights.lam_seg * aux
            breakdown.seg += float(aux.data)
            breakdown.total = float(loss.data)
        return stages, loss, breakdown


def aux_semantic_map(gt: GroundTruthSample) -> np.ndarray:
    """Semantic targets from instance masks alone: things on background."""
    out = np.zeros_like(gt.semantic)
    for class_id, mask in gt.instances:
        out[mask] = class_id
    return out


# ---------------------------------------------------------------------------
# inference decoding

def _upsampled_probs(stage: StageOutput, index: int,
                     rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    # mask logits live at stride 4; decode at full resolution.  Each row is
    # resized on its own, so a subset of rows gives the same bytes.
    maps = stage.mask_logits.data[index][rows]
    _, h, w = maps.shape
    logits = T.bilinear_resize_array(maps, 4 * h, 4 * w)
    return logits, T.sigmoid_array(logits)


def binarize_instances(stage: StageOutput, cfg: ModelConfig,
                       index: int = 0) -> list[tuple[int, float, np.ndarray]]:
    """Threshold per-kernel masks into scored instances; no suppression.

    Every kernel yields at most one instance: class = argmax class
    probability, score = that probability, mask = activated probability
    >= cfg.mask_threshold (inclusive).  Kernels scoring below
    cfg.score_floor are dropped.
    """
    if stage.class_logits is None:
        raise ContractError("instance decoding needs class predictions")
    _, probs = _upsampled_probs(stage, index)
    cls_probs = T.sigmoid_array(stage.class_logits.data[index])
    out = []
    for n in range(cfg.num_instance_kernels):
        score = float(cls_probs[n].max())
        if score < cfg.score_floor:
            continue
        class_id = cfg.thing_class_ids[int(cls_probs[n].argmax())]
        out.append((class_id, score, probs[n] >= cfg.mask_threshold))
    return out


def merge_panoptic(stage: StageOutput, cfg: ModelConfig, index: int = 0) -> PanopticMap:
    """Paste thing and stuff masks in one mixed, score-sorted pass.

    Pixels go to the candidate maximizing score * mask probability.
    Segments that keep too little of their thresholded mask (or too few
    pixels) are deleted; their pixels fall to the next-best surviving
    candidate that still claims them at mask-threshold confidence, else
    become void.  A single cleanup pass, no cascade.
    """
    if cfg.mode != "panoptic":
        raise ContractError(f"panoptic merge called in {cfg.mode!r} mode")
    n_ins = cfg.num_instance_kernels
    n_total = stage.mask_logits.shape[1]
    cls_probs = T.sigmoid_array(stage.class_logits.data[index])
    thing_score = cls_probs.max(axis=1)
    things = np.flatnonzero(thing_score >= cfg.score_floor)
    stuff = np.arange(n_ins, n_total)
    # only candidate things and the stuff rows are decoded at full size
    logits, probs = _upsampled_probs(stage, index, np.concatenate([things, stuff]))
    thing_probs = probs[: things.size]
    stuff_logits, stuff_probs = logits[things.size :], probs[things.size :]

    cand_class = [cfg.thing_class_ids[int(c)] for c in cls_probs[things].argmax(axis=1)]
    cand_thing = [True] * things.size
    cand_score = [float(s) for s in thing_score[things]]
    cand_probs = [thing_probs]

    # stuff confidence: mean per-pixel softmax share over the thresholded
    # region, competing among the stuff channels (the distribution the
    # stuff supervision trains)
    exp = np.exp(stuff_logits - stuff_logits.max(axis=0, keepdims=True))
    share = exp / exp.sum(axis=0, keepdims=True)
    for j, class_id in enumerate(cfg.stuff_class_ids[: stuff.size]):
        region = stuff_probs[j] >= cfg.mask_threshold
        score = float(share[j][region].mean()) if region.any() else 0.0
        if score < cfg.score_floor:
            continue
        cand_class.append(class_id)
        cand_thing.append(False)
        cand_score.append(score)
        cand_probs.append(stuff_probs[j : j + 1])

    k = len(cand_score)
    if not k:
        return PanopticMap(np.zeros(probs.shape[1:], dtype=np.int32), [])
    cand_probs = np.concatenate(cand_probs)
    weighted = np.asarray(cand_score)[:, None, None] * cand_probs
    assign = weighted.argmax(axis=0)

    thresholded = cand_probs >= cfg.mask_threshold
    won_thresholded = np.take_along_axis(thresholded, assign[None], axis=0)[0]
    surviving = np.bincount(assign[won_thresholded], minlength=k)
    thresh_area = thresholded.sum(axis=(1, 2))
    frac = np.divide(surviving, thresh_area, out=np.zeros(k), where=thresh_area > 0)
    deleted = (surviving < cfg.min_area) | (frac < cfg.keep_fraction)

    if deleted.any():
        survivors = np.flatnonzero(~deleted)
        orphan = deleted[assign]
        if survivors.size:
            w_surv = weighted[survivors] * thresholded[survivors]
            best = w_surv.argmax(axis=0)
            has_claim = thresholded[survivors].any(axis=0)
            new_assign = np.where(has_claim, survivors[best], -1)
            assign = np.where(orphan, new_assign, assign)
        else:
            assign = np.where(orphan, -1, assign)

    # area per candidate; slot 0 counts the void pixels (assign == -1)
    areas = np.bincount(assign.ravel() + 1, minlength=k + 1)[1:]
    lut = np.zeros(k + 1, dtype=np.int32)
    segments: list[SegmentInfo] = []
    for c in np.flatnonzero(~deleted & (areas > 0)):
        lut[c + 1] = len(segments) + 1
        segments.append(SegmentInfo(len(segments) + 1, cand_class[c], cand_thing[c],
                                    cand_score[c], int(areas[c])))
    return PanopticMap(lut[assign + 1], segments)


def semantic_raster(stage: StageOutput, cfg: ModelConfig, index: int = 0) -> np.ndarray:
    """Per-pixel argmax class over the upsampled mask channels."""
    logits, _ = _upsampled_probs(stage, index)
    ids = np.asarray(cfg.semantic_class_ids, dtype=np.int32)
    return ids[logits.argmax(axis=0)]
