"""Evaluation metrics: panoptic quality, mean IoU, and mask AP.

Also home of :class:`PanopticMap`, the segment-id raster plus segment
table that panoptic predictions, ground truth, and the PQ computation all
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError

VOID_ID = 0


@dataclass
class SegmentInfo:
    id: int
    class_id: int
    is_thing: bool
    score: float
    area: int


@dataclass
class PanopticMap:
    """H x W raster of segment ids (0 = void) plus a segment table."""

    segment_ids: np.ndarray
    segments: list[SegmentInfo]

    def validate(self) -> None:
        ids, counts = np.unique(self.segment_ids, return_counts=True)
        raster = dict(zip(ids.tolist(), counts.tolist()))
        raster.pop(VOID_ID, None)
        table_ids = [s.id for s in self.segments]
        if len(set(table_ids)) != len(table_ids):
            raise DataError("duplicate segment id in table")
        stuff_classes = [s.class_id for s in self.segments if not s.is_thing]
        if len(set(stuff_classes)) != len(stuff_classes):
            raise DataError("stuff class appears in more than one segment")
        for seg in self.segments:
            if seg.id == VOID_ID:
                raise DataError("segment id 0 is reserved for void")
            if seg.area <= 0:
                raise DataError(f"segment {seg.id}: area {seg.area} is not positive")
            area = raster.pop(seg.id, 0)
            if area != seg.area:
                raise DataError(f"segment {seg.id}: table area {seg.area} != raster area {area}")
        if raster:
            raise DataError(f"raster ids missing from table: {sorted(raster)}")

    def class_raster(self) -> np.ndarray:
        out = np.zeros_like(self.segment_ids)
        for seg in self.segments:
            out[self.segment_ids == seg.id] = seg.class_id
        return out


@dataclass
class PqClassStats:
    iou_sum: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def pq(self) -> float:
        denom = self.tp + 0.5 * self.fp + 0.5 * self.fn
        return self.iou_sum / denom if denom else 0.0

    def sq(self) -> float:
        return self.iou_sum / self.tp if self.tp else 0.0

    def rq(self) -> float:
        denom = self.tp + 0.5 * self.fp + 0.5 * self.fn
        return self.tp / denom if denom else 0.0


@dataclass
class PqResult:
    pq: float
    sq: float
    rq: float
    pq_things: float
    pq_stuff: float
    tp: int
    fp: int
    fn: int


class PqStats:
    """Accumulates per-class TP/FP/FN and matched IoU across images.

    Matching follows the panoptic-quality definition: segments of the
    same class match iff IoU > 0.5, with ground-truth void excluded from
    the union and predictions mostly covered by void not counted as
    false positives.
    """

    def __init__(self):
        self.per_class: dict[int, PqClassStats] = {}
        self.class_is_thing: dict[int, bool] = {}

    def _stats(self, class_id: int) -> PqClassStats:
        return self.per_class.setdefault(class_id, PqClassStats())

    def _note_kind(self, class_id: int, is_thing: bool) -> None:
        prev = self.class_is_thing.setdefault(class_id, is_thing)
        if prev != is_thing:
            raise DataError(f"class {class_id} flagged both thing and stuff")

    def update(self, pred: PanopticMap, gt: PanopticMap) -> None:
        if pred.segment_ids.shape != gt.segment_ids.shape:
            raise DimensionError(
                f"PQ: raster shapes {pred.segment_ids.shape} vs {gt.segment_ids.shape}"
            )
        pred.validate()
        gt.validate()
        for seg in pred.segments:
            self._note_kind(seg.class_id, seg.is_thing)
        for seg in gt.segments:
            self._note_kind(seg.class_id, seg.is_thing)

        pred_ids = pred.segment_ids.astype(np.int64)
        gt_ids = gt.segment_ids.astype(np.int64)
        offset = int(gt_ids.max()) + 1
        combined = pred_ids * offset + gt_ids
        keys, counts = np.unique(combined, return_counts=True)
        inter: dict[tuple[int, int], int] = {}
        for key, count in zip(keys.tolist(), counts.tolist()):
            inter[(key // offset, key % offset)] = count

        pred_area = {s.id: s.area for s in pred.segments}
        gt_area = {s.id: s.area for s in gt.segments}
        pred_class = {s.id: s.class_id for s in pred.segments}
        gt_class = {s.id: s.class_id for s in gt.segments}

        matched_pred: set[int] = set()
        matched_gt: set[int] = set()
        for (pid, gid), overlap in inter.items():
            if pid == VOID_ID or gid == VOID_ID:
                continue
            if pred_class[pid] != gt_class[gid]:
                continue
            union = pred_area[pid] + gt_area[gid] - overlap - inter.get((pid, VOID_ID), 0)
            iou = overlap / union if union else 0.0
            if iou > 0.5:
                stats = self._stats(pred_class[pid])
                stats.tp += 1
                stats.iou_sum += iou
                matched_pred.add(pid)
                matched_gt.add(gid)

        for seg in gt.segments:
            if seg.id not in matched_gt:
                self._stats(seg.class_id).fn += 1
        for seg in pred.segments:
            if seg.id in matched_pred:
                continue
            void_overlap = inter.get((seg.id, VOID_ID), 0)
            if void_overlap / seg.area > 0.5:
                continue
            self._stats(seg.class_id).fp += 1

    def result(self) -> PqResult:
        # sorted class order fixes the float summation order, so results
        # are reproducible and comparable against reference implementations
        active = {c: self.per_class[c] for c in sorted(self.per_class)
                  if self.per_class[c].tp + self.per_class[c].fp + self.per_class[c].fn > 0}

        def mean(vals):
            vals = list(vals)
            return float(np.mean(vals)) if vals else 0.0

        pq = mean(s.pq() for s in active.values())
        sq = mean(s.sq() for s in active.values())
        rq = mean(s.rq() for s in active.values())
        things = [s.pq() for c, s in active.items() if self.class_is_thing[c]]
        stuff = [s.pq() for c, s in active.items() if not self.class_is_thing[c]]
        return PqResult(
            pq=pq, sq=sq, rq=rq, pq_things=mean(things), pq_stuff=mean(stuff),
            tp=sum(s.tp for s in active.values()),
            fp=sum(s.fp for s in active.values()),
            fn=sum(s.fn for s in active.values()),
        )


def compute_pq(pred: PanopticMap, gt: PanopticMap) -> PqResult:
    stats = PqStats()
    stats.update(pred, gt)
    return stats.result()


# ---------------------------------------------------------------------------
# semantic segmentation

class MiouStats:
    def __init__(self):
        self.inter: dict[int, int] = {}
        self.union: dict[int, int] = {}
        self.gt_classes: set[int] = set()

    def update(self, pred_sem: np.ndarray, gt_sem: np.ndarray) -> None:
        if pred_sem.shape != gt_sem.shape:
            raise DimensionError(f"mIoU: raster shapes {pred_sem.shape} vs {gt_sem.shape}")
        classes = np.union1d(np.unique(pred_sem), np.unique(gt_sem))
        for c in classes.tolist():
            p = pred_sem == c
            g = gt_sem == c
            self.inter[c] = self.inter.get(c, 0) + int(np.logical_and(p, g).sum())
            self.union[c] = self.union.get(c, 0) + int(np.logical_or(p, g).sum())
        self.gt_classes.update(np.unique(gt_sem).tolist())

    def result(self) -> float:
        ious = [self.inter[c] / self.union[c] for c in sorted(self.gt_classes) if self.union.get(c)]
        return float(np.mean(ious)) if ious else 0.0


def compute_miou(pred_sem: np.ndarray, gt_sem: np.ndarray) -> float:
    stats = MiouStats()
    stats.update(pred_sem, gt_sem)
    return stats.result()


# ---------------------------------------------------------------------------
# instance segmentation

IOU_THRESHOLDS = np.round(np.arange(0.50, 0.96, 0.05), 2)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass
class ApResult:
    ap: float
    ap50: float
    ap75: float


def mask_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(k, g) IoU table of stacks of k and g binary masks; an empty union yields 0.0.

    A float64 GEMM of the flattened masks counts each intersection exactly,
    so every entry is the quotient of two integer pixel counts.
    """
    if a.shape[1:] != b.shape[1:]:
        raise DimensionError(f"mask_ious: mask shapes {a.shape[1:]} and {b.shape[1:]} differ")
    a, b = (m.reshape(len(m), math.prod(m.shape[1:])).astype(bool).astype(np.float64)
            for m in (a, b))
    inter = a @ b.T
    union = a.sum(axis=1)[:, None] + b.sum(axis=1) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _greedy_hits(ious: np.ndarray) -> np.ndarray:
    """(thresholds, k) bool: at each threshold, row by row, a prediction takes the
    first untaken ground truth of highest IoU at or above it.  Rows below every
    threshold take nothing, so they are skipped."""
    hits = np.zeros((len(IOU_THRESHOLDS), len(ious)), dtype=bool)
    taken = np.zeros((len(IOU_THRESHOLDS), ious.shape[1]), dtype=bool)
    every = np.arange(len(IOU_THRESHOLDS))
    for i in np.flatnonzero((ious >= IOU_THRESHOLDS[0]).any(axis=1)):
        free = np.where(~taken & (ious[i] >= IOU_THRESHOLDS[:, None]), ious[i], -1.0)
        best = free.argmax(axis=1)
        hit = free[every, best] >= 0.0
        hits[hit, i] = True
        taken[every[hit], best[hit]] = True
    return hits


def _average_precision(hits: list[bool], n_gt: int) -> float:
    """101-point interpolated AP of predictions, hit or not, in descending score
    order, against n_gt > 0 ground truths."""
    tp = np.cumsum(hits, dtype=np.int64)
    # interpolated precision: the running max from the right
    precisions = np.maximum.accumulate((tp / np.arange(1, len(tp) + 1))[::-1])[::-1]
    idx = np.searchsorted(tp / n_gt, RECALL_POINTS, side="left")
    # Python's left-to-right sum, not np.sum's pairwise one: the float bits follow recall order
    return sum(np.append(precisions, 0.0)[idx].tolist()) / len(RECALL_POINTS)


class ApStats:
    """COCO-style mask AP averaged over IoU thresholds 0.50:0.05:0.95.

    ``update`` scores one image's (class_id, score, mask) predictions against
    its (class_id, mask) ground truths, all masks of one shape.  Per class,
    the predictions go in descending score order (a stable sort) and are
    matched greedily (:func:`_greedy_hits`) at each threshold.  Only each
    prediction's score and whether it matched are kept; AP ranks them over
    the whole dataset.
    """

    def __init__(self):
        self.scores: dict[int, list[float]] = {}
        self.hits: dict[int, list[list[bool]]] = {}   # per class, one list per threshold
        self.n_gt: dict[int, int] = {}

    def update(self, preds: list[tuple[int, float, np.ndarray]],
               gts: list[tuple[int, np.ndarray]]) -> None:
        shapes = {np.shape(mask) for *_, mask in [*preds, *gts]}
        if len(shapes) > 1:
            raise DimensionError(f"AP: one image's masks have shapes {sorted(shapes)}")
        shape = shapes.pop() if shapes else ()

        def stack(masks):
            return np.array(masks, dtype=bool).reshape(len(masks), *shape)

        for cls in {c for c, *_ in [*preds, *gts]}:
            cand = sorted([(s, m) for c, s, m in preds if c == cls], key=lambda x: -x[0])
            gt_masks = [m for c, m in gts if c == cls]
            hits = _greedy_hits(mask_ious(stack([m for _, m in cand]), stack(gt_masks)))
            self.scores.setdefault(cls, []).extend(float(s) for s, _ in cand)
            for kept, new in zip(self.hits.setdefault(cls, [[] for _ in IOU_THRESHOLDS]), hits):
                kept.extend(new.tolist())
            self.n_gt[cls] = self.n_gt.get(cls, 0) + len(gt_masks)

    def result(self) -> ApResult:
        # sorted class order fixes the float summation order
        classes = [c for c in sorted(self.n_gt) if self.n_gt[c]]
        # a stable sort: equal scores keep the order they arrived in
        ranks = {c: sorted(range(len(self.scores[c])), key=lambda i: -self.scores[c][i])
                 for c in classes}
        per_threshold = [
            float(np.mean([_average_precision([self.hits[c][t][i] for i in ranks[c]], self.n_gt[c])
                           for c in classes])) if classes else 0.0
            for t in range(len(IOU_THRESHOLDS))
        ]
        # IOU_THRESHOLDS[0] is 0.50 and IOU_THRESHOLDS[5] is 0.75
        return ApResult(float(np.mean(per_threshold)), per_threshold[0], per_threshold[5])


def compute_mask_ap(preds_per_image: list[list[tuple[int, float, np.ndarray]]],
                    gts_per_image: list[list[tuple[int, np.ndarray]]]) -> ApResult:
    """Mask AP (see :class:`ApStats`) of each image's predictions against its ground truth."""
    if len(preds_per_image) != len(gts_per_image):
        raise DimensionError(f"AP: {len(preds_per_image)} prediction lists for "
                             f"{len(gts_per_image)} ground-truth lists")
    stats = ApStats()
    for preds, gts in zip(preds_per_image, gts_per_image):
        stats.update(preds, gts)
    return stats.result()
