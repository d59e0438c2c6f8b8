"""Task assembly: a small two-branch convolutional backbone, static mask
kernels, the iterative refinement head, and the inference-side decoding
(instance binarization and panoptic pasting).

One model class covers the three modes:

* semantic: one kernel per class, masks compete through a softmax; no
  instance branch or instance kernels are built.
* instance: matched instance kernels; a semantic branch provides
  auxiliary supervision built from the instance masks themselves, so
  only a training forward runs the semantic kernels.
* panoptic: instance kernels concatenated with one semantic kernel per
  stuff class; merged to a segment raster by score-weighted pasting.

Each mode builds and runs only what it trains, and
:func:`set_prediction_loss` owns all of the supervision.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .data import GroundTruthSample, STUFF_CLASS_IDS, THING_CLASS_IDS, dataclass_from_dict
from .errors import ConfigError, ContractError, DimensionError, NumericError
from .head import SIGMOID, SOFTMAX, IterativeKernelHead, StageOutput, predict_masks
from .layers import Conv2d, Layer, positional_encoding_2d
from .matching import LossWeights, set_prediction_loss
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
        if self.mode == "panoptic":
            # instance kernels cover the things
            return list(self.stuff_class_ids)
        return list(self.thing_class_ids) + list(self.stuff_class_ids)

    @property
    def num_semantic_kernels(self) -> int:
        return len(self.semantic_class_ids)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return dataclass_from_dict(cls, d)


class BackboneLite(Layer):
    """Two stride-2 stem convs and a sinusoidal position code, then two
    small branches at stride 4; the instance branch only where there are
    instance kernels, else ``None``."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        c = cfg.channels
        self.stem1 = Conv2d(3, c, 3, rng, stride=2, padding=1)
        self.stem2 = Conv2d(c, c, 3, rng, stride=2, padding=1)
        self.has_instance_branch = cfg.mode != "semantic"
        if self.has_instance_branch:
            self.ins1 = Conv2d(c, c, 3, rng, stride=1, padding=1)
            self.ins2 = Conv2d(c, c, 3, rng, stride=1, padding=1)
        self.sem1 = Conv2d(c, c, 3, rng, stride=1, padding=1)
        self.sem2 = Conv2d(c, c, 3, rng, stride=1, padding=1)
        self._pe_cache: dict[tuple, Tensor] = {}

    def __call__(self, images: Tensor) -> tuple[Tensor | None, Tensor]:
        if images.ndim != 4 or images.shape[1] != 3:
            raise DimensionError(f"model input must be (B, 3, H, W), got {images.shape}")
        _, _, h, w = images.shape
        if h % 4 or w % 4:
            raise ConfigError(f"input size {(h, w)} must be divisible by 4")
        x = T.relu(self.stem1(images))
        x = T.relu(self.stem2(x))
        key = (x.shape[1], x.shape[2], x.shape[3], T.get_precision())
        pe = self._pe_cache.get(key)
        if pe is None:
            pe = positional_encoding_2d(x.shape[2], x.shape[3], x.shape[1])
            self._pe_cache[key] = pe
        x = x + pe
        f_ins = T.relu(self.ins2(T.relu(self.ins1(x)))) if self.has_instance_branch else None
        f_sem = T.relu(self.sem2(T.relu(self.sem1(x))))
        return f_ins, f_sem


def build_panoptic_inputs(m0_ins: Tensor, m0_sem: Tensor, k0_ins: Tensor,
                          k0_sem: Tensor, f_ins: Tensor,
                          f_sem: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Concatenate the instance rows with the stuff rows, masks and kernels.

    The panoptic semantic set holds one kernel per stuff class: instances
    cover the things.  The two feature branches are summed into the single
    map the update head refines against.
    """
    m0 = T.concat([m0_ins, m0_sem], axis=1)
    k0 = T.concat([k0_ins, k0_sem], axis=1)
    return m0, k0, f_ins + f_sem


class SegmentationModel(Layer):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.backbone = BackboneLite(cfg, rng)
        c = cfg.channels
        kscale = 1.0 / np.sqrt(c)
        self.kernels = Layer()      # the static kernels: kernels.{instance,semantic}
        if cfg.mode != "semantic":
            self.kernels.instance = Tensor(
                rng.standard_normal((cfg.num_instance_kernels, c)) * kscale, requires_grad=True,
            )
        n_sem = cfg.num_semantic_kernels
        n_drawn = n_sem + (len(cfg.thing_class_ids) if cfg.mode == "panoptic" else 0)
        # panoptic draws the thing rows too, then drops them: every later init keeps its bytes
        self.kernels.semantic = Tensor(
            (rng.standard_normal((n_drawn, c)) * kscale)[n_drawn - n_sem:], requires_grad=True,
        )
        num_classes = len(cfg.thing_class_ids) if cfg.mode != "semantic" else None
        # start class probabilities below chance: focal negatives dominate
        # early on, and the short desk schedule cannot climb far
        self.head = IterativeKernelHead(
            c, cfg.stages, num_classes, rng, heads=cfg.heads,
            adaptive_update=cfg.aku, interaction=cfg.ki, class_bias_init=-1.0,
        )

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

        m_sem = k_sem = None
        if cfg.mode != "instance" or gts is not None:
            k_sem = T.broadcast_to(self.kernels.semantic, (b, *self.kernels.semantic.shape))
            m_sem = predict_masks(k_sem, f_sem)
        if cfg.mode == "semantic":
            m0, k0, feats, activation = m_sem, k_sem, f_sem, SOFTMAX
        else:
            k0 = T.broadcast_to(self.kernels.instance, (b, *self.kernels.instance.shape))
            m0, activation = predict_masks(k0, f_ins), SIGMOID
            if cfg.mode == "instance":
                feats = f_ins + f_sem
            else:
                m0, k0, feats = build_panoptic_inputs(m0, m_sem, k0, k_sem, f_ins, f_sem)

        stages = self.head.run_iterative(k0, m0, feats, activation)

        if gts is None:
            return stages
        return (stages, *set_prediction_loss(stages, gts, cfg, weights, m_sem))


# ---------------------------------------------------------------------------
# inference decoding

def _finite_logits(stage: StageOutput, index: int,
                   decoder: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Mask and class logits of image ``index``; NumericError unless all finite."""
    maps = stage.mask_logits.data[index]
    cls = None if stage.class_logits is None else stage.class_logits.data[index]
    if not (np.isfinite(maps).all() and (cls is None or np.isfinite(cls).all())):
        raise NumericError(f"{decoder}: non-finite mask or class logits")
    return maps, cls


def _full_size(maps: np.ndarray) -> np.ndarray:
    # mask logits live at stride 4; decode at full resolution.  Each row is
    # resized on its own, so a subset of rows gives the same bytes.
    _, h, w = maps.shape
    return T.bilinear_resize_array(maps, 4 * h, 4 * w)


def binarize_instances(stage: StageOutput, cfg: ModelConfig,
                       index: int = 0) -> list[tuple[int, float, np.ndarray]]:
    """Threshold per-kernel masks into scored instances; no suppression.

    Every kernel yields at most one instance: class = argmax class
    probability, score = that probability, mask = activated probability
    >= cfg.mask_threshold (inclusive).  Kernels scoring below
    cfg.score_floor are dropped.  Non-finite logits raise NumericError.
    """
    if stage.class_logits is None:
        raise ContractError("instance decoding needs class predictions")
    maps, cls_logits = _finite_logits(stage, index, "instance decoding")
    probs = T.sigmoid_array(_full_size(maps))
    cls_probs = T.sigmoid_array(cls_logits)
    out = []
    for n in range(cfg.num_instance_kernels):
        score = float(cls_probs[n].max())
        if score < cfg.score_floor:
            continue
        class_id = cfg.thing_class_ids[int(cls_probs[n].argmax())]
        out.append((class_id, score, probs[n] >= cfg.mask_threshold))
    return out


def _first_max(scores: np.ndarray, rows: np.ndarray, picks=None) -> np.ndarray:
    """Index of the largest ``scores[c] * rows[picks[c]]`` in each column.

    ``picks`` defaults to ``range(len(scores))``.  The same bytes as
    ``argmax(axis=0)`` over the float64 products: strict ``>`` keeps the
    first maximum.  One pass per row, no gathered or transposed copy.
    """
    picks = range(len(scores)) if picks is None else picks
    best = np.multiply(rows[picks[0]], scores[0], dtype=np.float64)
    index = np.zeros(rows.shape[1], dtype=np.intp)
    w = np.empty_like(best)
    better = np.empty(best.shape, dtype=bool)
    for c in range(1, len(scores)):
        np.multiply(rows[picks[c]], scores[c], out=w, dtype=np.float64)
        np.greater(w, best, out=better)
        np.putmask(index, better, c)
        np.maximum(best, w, out=best)
    return index


def merge_panoptic(stage: StageOutput, cfg: ModelConfig, index: int = 0) -> PanopticMap:
    """Paste thing and stuff masks in one mixed, score-sorted pass.

    Pixels go to the candidate maximizing score * mask probability.
    Segments that keep too little of their thresholded mask (or too few
    pixels) are deleted; their pixels fall to the next-best surviving
    candidate that still claims them at mask-threshold confidence, else
    become void.  A single cleanup pass, no cascade.  Non-finite logits
    raise NumericError.
    """
    if cfg.mode != "panoptic":
        raise ContractError(f"panoptic merge called in {cfg.mode!r} mode")
    maps, cls_logits = _finite_logits(stage, index, "panoptic merge")
    n_ins = cfg.num_instance_kernels
    n_total = maps.shape[0]
    # only the instance rows are thing candidates; stuff rows' classes are unsupervised
    cls_probs = T.sigmoid_array(cls_logits[:n_ins])
    thing_score = cls_probs.max(axis=1)
    things = np.flatnonzero(thing_score >= cfg.score_floor)
    n_things = things.size
    stuff = np.arange(n_ins, n_total)
    # only candidate things and the stuff rows are decoded at full size
    logits = _full_size(maps[np.concatenate([things, stuff])])
    stuff_logits = logits[n_things:]

    cand_class = [cfg.thing_class_ids[int(c)] for c in cls_probs[things].argmax(axis=1)]
    cand_thing = [True] * n_things
    cand_score = [float(s) for s in thing_score[things]]
    cand_rows = list(range(n_things))

    # stuff confidence: mean per-pixel softmax share over the thresholded
    # region, competing among the stuff channels (the distribution the
    # stuff supervision trains)
    exp = np.exp(stuff_logits - stuff_logits.max(axis=0, keepdims=True))
    share = exp / exp.sum(axis=0, keepdims=True)
    # the softmax has read the logits: turn them into probabilities in place
    probs = T.sigmoid_array(logits, out=logits)
    for j, class_id in enumerate(cfg.stuff_class_ids[: stuff.size]):
        region = probs[n_things + j] >= cfg.mask_threshold
        score = float(share[j][region].mean()) if region.any() else 0.0
        if score < cfg.score_floor:
            continue
        cand_class.append(class_id)
        cand_thing.append(False)
        cand_score.append(score)
        cand_rows.append(n_things + j)

    k = len(cand_score)
    if not k:
        return PanopticMap(np.zeros(probs.shape[1:], dtype=np.int32), [])
    # candidates are read from ``flat`` by row index, never gathered
    flat = probs.reshape(probs.shape[0], -1)
    rows = np.asarray(cand_rows)
    scores = np.asarray(cand_score)
    assign = _first_max(scores, flat, rows)

    hw = flat.shape[1]
    won_thresholded = flat[rows[assign], np.arange(hw)] >= cfg.mask_threshold
    surviving = np.bincount(assign[won_thresholded], minlength=k)
    # one count per row: faster than count_nonzero(axis=1), which casts and sums
    thresh_area = np.array([np.count_nonzero(flat[r] >= cfg.mask_threshold) for r in rows])
    frac = np.divide(surviving, thresh_area, out=np.zeros(k), where=thresh_area > 0)
    deleted = (surviving < cfg.min_area) | (frac < cfg.keep_fraction)

    orphans = np.flatnonzero(deleted[assign])
    if orphans.size:
        survivors = np.flatnonzero(~deleted)
        new_assign = np.full(orphans.size, -1, dtype=np.intp)
        if survivors.size:
            sub = flat[np.ix_(rows[survivors], orphans)]
            claims = sub >= cfg.mask_threshold
            best = _first_max(scores[survivors], sub * claims)
            has_claim = claims.any(axis=0)
            new_assign[has_claim] = survivors[best[has_claim]]
        assign[orphans] = new_assign

    # area per candidate; slot 0 counts the void pixels (assign == -1)
    slot = assign + 1
    areas = np.bincount(slot, minlength=k + 1)[1:]
    lut = np.zeros(k + 1, dtype=np.int32)
    segments: list[SegmentInfo] = []
    for c in np.flatnonzero(~deleted & (areas > 0)):
        lut[c + 1] = len(segments) + 1
        segments.append(SegmentInfo(len(segments) + 1, cand_class[c], cand_thing[c],
                                    cand_score[c], int(areas[c])))
    return PanopticMap(lut[slot].reshape(probs.shape[1:]), segments)


def semantic_raster(stage: StageOutput, cfg: ModelConfig, index: int = 0) -> np.ndarray:
    """Per-pixel argmax class over the upsampled mask channels.

    Non-finite logits raise NumericError.
    """
    maps, _ = _finite_logits(stage, index, "semantic decoding")
    logits = _full_size(maps)
    ids = np.asarray(cfg.semantic_class_ids, dtype=np.int32)
    return ids[logits.argmax(axis=0)]
