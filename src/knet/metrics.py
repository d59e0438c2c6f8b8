"""Evaluation metrics: panoptic quality, mean IoU, and mask AP.

Also home of :class:`PanopticMap`, the segment-id raster plus segment
table that panoptic predictions, ground truth, and the PQ computation all
share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary masks.

    An empty union yields 0.0; the PQ path never reaches that case
    because empty segments are dropped before matching.
    """
    if a.shape != b.shape:
        raise DimensionError(f"mask_iou: shapes {a.shape} and {b.shape} differ")
    a = a.astype(bool)
    b = b.astype(bool)
    inter = np.logical_and(a, b).sum()
    union = np.logical_or(a, b).sum()
    return float(inter) / float(union) if union else 0.0


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
    per_class: dict[int, PqClassStats]
    tp: int
    fp: int
    fn: int

    def to_dict(self) -> dict:
        return {
            "pq": self.pq, "sq": self.sq, "rq": self.rq,
            "pq_things": self.pq_things, "pq_stuff": self.pq_stuff,
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
        }


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
            per_class=dict(self.per_class),
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
    per_threshold: dict[float, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"ap": self.ap, "ap50": self.ap50, "ap75": self.ap75}


def _average_precision(matches: list[tuple[float, bool]], n_gt: int) -> float:
    """101-point interpolated AP from (score, is_tp) pairs."""
    if n_gt == 0:
        return 0.0
    if not matches:
        return 0.0
    order = sorted(range(len(matches)), key=lambda i: (-matches[i][0], i))
    tp = fp = 0
    precisions, recalls = [], []
    for i in order:
        if matches[i][1]:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_gt)
    precisions = np.array(precisions)
    recalls = np.array(recalls)
    # running max from the right: interpolated precision
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    for r in RECALL_POINTS:
        idx = np.searchsorted(recalls, r, side="left")
        ap += precisions[idx] if idx < len(precisions) else 0.0
    return ap / len(RECALL_POINTS)


def compute_mask_ap(preds_per_image: list[list[tuple[int, float, np.ndarray]]],
                    gts_per_image: list[list[tuple[int, np.ndarray]]]) -> ApResult:
    """COCO-style mask AP averaged over IoU thresholds 0.50:0.05:0.95.

    ``preds_per_image[i]`` holds (class_id, score, bool mask) triples;
    ``gts_per_image[i]`` holds (class_id, bool mask) pairs.  Matching is
    greedy by descending score; each ground truth matches at most once per
    threshold; a prediction matches the available GT of its class with
    the highest IoU when that IoU meets the threshold.
    """
    classes = sorted(
        {c for gts in gts_per_image for c, _ in gts}
    )
    per_threshold: dict[float, float] = {}
    ap_by_class_thr: dict[tuple[int, float], float] = {}
    for thr in IOU_THRESHOLDS.tolist():
        for cls in classes:
            matches: list[tuple[float, bool]] = []
            n_gt = 0
            for preds, gts in zip(preds_per_image, gts_per_image):
                gt_masks = [m for c, m in gts if c == cls]
                n_gt += len(gt_masks)
                cand = sorted(
                    [(s, m) for c, s, m in preds if c == cls],
                    key=lambda x: -x[0],
                )
                taken = [False] * len(gt_masks)
                for score, mask in cand:
                    best_iou, best_j = 0.0, -1
                    for j, gmask in enumerate(gt_masks):
                        if taken[j]:
                            continue
                        iou = mask_iou(mask, gmask)
                        if iou >= thr and iou > best_iou:
                            best_iou, best_j = iou, j
                    if best_j >= 0:
                        taken[best_j] = True
                        matches.append((score, True))
                    else:
                        matches.append((score, False))
            ap_by_class_thr[(cls, thr)] = _average_precision(matches, n_gt)
        vals = [ap_by_class_thr[(c, thr)] for c in classes]
        per_threshold[thr] = float(np.mean(vals)) if vals else 0.0
    ap = float(np.mean(list(per_threshold.values()))) if per_threshold else 0.0
    return ApResult(
        ap=ap,
        ap50=per_threshold.get(0.5, 0.0),
        ap75=per_threshold.get(0.75, 0.0),
        per_threshold=per_threshold,
    )


class ApStats:
    """Collects every image's instances: AP ranks them over the whole dataset."""

    def __init__(self):
        self.preds, self.gts = [], []

    def update(self, preds: list, gts: list) -> None:
        self.preds.append(preds)
        self.gts.append(gts)

    def result(self) -> ApResult:
        return compute_mask_ap(self.preds, self.gts)
