"""The per-threshold mask AP loop ``knet.metrics.ApStats`` replaced, kept as a reference.

``loop_mask_ap`` keeps every image's masks and recomputes each
prediction–ground-truth IoU once per threshold with ``mask_iou``;
``ApStats`` computes each IoU once and keeps no mask.  ``random_ap_case``
generates the inputs the two are compared on.
"""

import numpy as np

from knet.errors import DimensionError
from knet.metrics import IOU_THRESHOLDS, RECALL_POINTS, ApResult


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


def loop_mask_ap(preds_per_image: list[list[tuple[int, float, np.ndarray]]],
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
    )


def random_ap_case(rng: np.random.Generator):
    """One random (preds_per_image, gts_per_image) input for mask AP.

    Ground truth uses classes 1-3; predictions also use class 4, which no
    ground truth has.  Most predictions are a ground-truth mask with a few
    pixels flipped, so many IoUs fall between the thresholds; some are the
    overlap of two ground truths, often a mask and its one-row shift, so
    two ground truths tie on IoU.  Scores come
    from a five-value grid half of the time, so ties are frequent.  Masks
    are bool or uint8 0/255, and an image may have no ground truth or no
    predictions.
    """
    h, w = (int(v) for v in rng.integers(3, 9, size=2))
    as_uint8 = rng.uniform() < 0.5
    tied = rng.uniform() < 0.5

    def emit(mask):
        return mask.astype(np.uint8) * 255 if as_uint8 else mask

    preds_per_image, gts_per_image = [], []
    for _ in range(int(rng.integers(1, 4))):
        gts = []
        for _ in range(int(rng.integers(0, 4))):
            r0, c0 = int(rng.integers(0, h - 1)), int(rng.integers(0, w - 1))
            r1, c1 = int(rng.integers(r0 + 1, h + 1)), int(rng.integers(c0 + 1, w + 1))
            mask = np.zeros((h, w), dtype=bool)
            mask[r0:r1, c0:c1] = True
            gts.append((int(rng.integers(1, 4)), mask))
            if rng.uniform() < 0.3:
                # the same class shifted one row down: a prediction of the
                # overlap ties on IoU between the two
                gts.append((gts[-1][0], np.roll(mask, 1, axis=0)))
        preds = []
        for _ in range(int(rng.integers(0, 6))):
            if len(gts) >= 2 and rng.uniform() < 0.2:
                (cls, a), (_, b) = gts[-2:]
                mask = a & b
            elif gts and rng.uniform() < 0.7:
                cls, mask = gts[int(rng.integers(len(gts)))]
                mask = mask ^ (rng.uniform(size=(h, w)) < rng.uniform(0.0, 0.3))
                if rng.uniform() < 0.15:
                    cls = int(rng.integers(1, 5))
            else:
                cls, mask = int(rng.integers(1, 5)), rng.uniform(size=(h, w)) < 0.4
            score = float(rng.integers(1, 6)) / 5 if tied else float(rng.uniform())
            preds.append((cls, score, emit(mask)))
        preds_per_image.append(preds)
        gts_per_image.append([(c, emit(m)) for c, m in gts])
    return preds_per_image, gts_per_image
