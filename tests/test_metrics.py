import numpy as np
import pytest

from knet import metrics as ME
from knet.errors import DataError, DimensionError
from knet.metrics import PanopticMap, SegmentInfo
from loop_ap import loop_mask_ap, random_ap_case

STUFF_POOL = [101, 102, 103, 104, 105, 106]


def make_map(raster, class_of, thing_of, scores=None):
    segs = []
    for sid in sorted(set(np.unique(raster).tolist()) - {0}):
        segs.append(SegmentInfo(
            sid, class_of[sid], thing_of[sid],
            (scores or {}).get(sid, 1.0), int((raster == sid).sum()),
        ))
    return PanopticMap(np.asarray(raster, dtype=np.int32), segs)


def random_panoptic(rng, h=16, w=16, max_segments=6, void_prob=0.3):
    n = int(rng.integers(1, max_segments + 1))
    raster = rng.integers(1, n + 1, size=(h, w)).astype(np.int32)
    if rng.uniform() < void_prob:
        u0, v0 = rng.integers(0, h - 3), rng.integers(0, w - 3)
        raster[u0 : u0 + 3, v0 : v0 + 3] = 0
    class_of, thing_of = {}, {}
    stuff_left = list(STUFF_POOL)
    for sid in sorted(set(np.unique(raster).tolist()) - {0}):
        if rng.uniform() < 0.7 or not stuff_left:
            class_of[sid] = int(rng.integers(1, 4))
            thing_of[sid] = True
        else:
            class_of[sid] = stuff_left.pop(int(rng.integers(0, len(stuff_left))))
            thing_of[sid] = False
    return make_map(raster, class_of, thing_of)


def brute_force_pq(pred: PanopticMap, gt: PanopticMap):
    """Explicit all-pairs IoU with set-based TP/FP/FN accounting."""
    gt_void = gt.segment_ids == 0
    classes = sorted(
        {s.class_id for s in pred.segments} | {s.class_id for s in gt.segments}
    )
    per_class = {}
    kind = {}
    for s in list(pred.segments) + list(gt.segments):
        kind[s.class_id] = s.is_thing
    for cls in classes:
        preds = [s for s in pred.segments if s.class_id == cls]
        gts = [s for s in gt.segments if s.class_id == cls]
        matched_p, matched_g = set(), set()
        iou_sum, tp = 0.0, 0
        for ps in sorted(preds, key=lambda s: s.id):
            pm = pred.segment_ids == ps.id
            for gs in sorted(gts, key=lambda s: s.id):
                gm = gt.segment_ids == gs.id
                inter = int(np.logical_and(pm, gm).sum())
                union = int(pm.sum()) + int(gm.sum()) - inter - int(np.logical_and(pm, gt_void).sum())
                iou = inter / union if union else 0.0
                if iou > 0.5:
                    tp += 1
                    iou_sum += iou
                    matched_p.add(ps.id)
                    matched_g.add(gs.id)
        fn = len([g for g in gts if g.id not in matched_g])
        fp = 0
        for ps in preds:
            if ps.id in matched_p:
                continue
            pm = pred.segment_ids == ps.id
            if int(np.logical_and(pm, gt_void).sum()) / int(pm.sum()) > 0.5:
                continue
            fp += 1
        if tp + fp + fn:
            denom = tp + 0.5 * fp + 0.5 * fn
            per_class[cls] = (iou_sum / denom, tp, fp, fn)
    if not per_class:
        return 0.0, 0.0, 0.0
    pqs = [v[0] for _, v in sorted(per_class.items())]
    things = [v[0] for c, v in sorted(per_class.items()) if kind[c]]
    stuff = [v[0] for c, v in sorted(per_class.items()) if not kind[c]]
    mean = lambda xs: float(np.mean(xs)) if xs else 0.0
    return mean(pqs), mean(things), mean(stuff)


class TestMaskIou:
    def test_identical(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1:3, 1:3] = True
        assert ME.mask_ious(m[None], m[None]).tolist() == [[1.0]]

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert ME.mask_ious(a[None], b[None]).tolist() == [[0.0]]

    def test_hand_count(self):
        a = np.zeros(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        a[:4] = True
        b[2:6] = True
        assert ME.mask_ious(np.stack([a, b]), b[None]).tolist() == [[2.0 / 6.0], [1.0]]

    def test_both_empty_is_zero(self):
        empty = np.zeros((1, 4), dtype=bool)
        assert ME.mask_ious(empty, empty).tolist() == [[0.0]]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ME.mask_ious(np.zeros((1, 2, 2), dtype=bool), np.zeros((1, 3, 3), dtype=bool))

    @pytest.mark.parametrize("k,g", [(3, 0), (0, 2), (0, 0)])
    def test_empty_tables(self, k, g):
        table = ME.mask_ious(np.ones((k, 4, 4), dtype=bool), np.ones((g, 4, 4), dtype=bool))
        assert table.shape == (k, g) and table.dtype == np.float64


class TestComputePq:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        gt = random_panoptic(rng, void_prob=0.0)
        res = ME.compute_pq(gt, gt)
        assert res.pq == 1.0 and res.sq == 1.0 and res.rq == 1.0

    def test_empty_prediction_all_fn(self):
        rng = np.random.default_rng(1)
        gt = random_panoptic(rng, void_prob=0.0)
        empty = PanopticMap(np.zeros_like(gt.segment_ids), [])
        res = ME.compute_pq(empty, gt)
        assert res.pq == 0.0 and res.fn == len(gt.segments)

    def test_hand_case_tp_plus_fp(self):
        # one TP with IoU 0.8 + one FP of the same class, nothing else
        raster_gt = np.ones((10, 10), dtype=np.int32)
        gt = PanopticMap(raster_gt, [SegmentInfo(1, 7, True, 1.0, 100)])
        raster_pred = np.ones((10, 10), dtype=np.int32)
        raster_pred[8:, :] = 2
        pred = PanopticMap(raster_pred, [
            SegmentInfo(1, 7, True, 0.9, 80),   # IoU 80/100 = 0.8 -> TP
            SegmentInfo(2, 7, True, 0.8, 20),   # IoU 0.2 -> FP
        ])
        res = ME.compute_pq(pred, gt)
        assert res.pq == pytest.approx(0.8 / 1.5)
        assert abs(res.pq - 0.53333) < 1e-4
        assert res.tp == 1 and res.fp == 1 and res.fn == 0

    def test_matches_brute_force_on_random_rasters(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred = random_panoptic(rng)
            gt = random_panoptic(rng)
            res = ME.compute_pq(pred, gt)
            pq, pq_th, pq_st = brute_force_pq(pred, gt)
            assert res.pq == pq
            assert res.pq_things == pq_th
            assert res.pq_stuff == pq_st

    def test_relabel_invariance(self):
        rng = np.random.default_rng(3)
        pred = random_panoptic(rng)
        gt = random_panoptic(rng)
        base = ME.compute_pq(pred, gt)

        def relabel(pm, offset):
            mapping = {s.id: s.id + offset for s in pm.segments}
            raster = np.zeros_like(pm.segment_ids)
            for old, new in mapping.items():
                raster[pm.segment_ids == old] = new
            segs = [SegmentInfo(mapping[s.id], s.class_id, s.is_thing, s.score, s.area)
                    for s in pm.segments]
            return PanopticMap(raster, segs)

        shuffled = ME.compute_pq(relabel(pred, 40), relabel(gt, 17))
        assert shuffled.pq == base.pq

    def test_inconsistent_table_raises(self):
        raster = np.ones((4, 4), dtype=np.int32)
        bad = PanopticMap(raster, [SegmentInfo(1, 5, True, 1.0, 3)])  # wrong area
        with pytest.raises(DataError):
            ME.compute_pq(bad, bad)

    def test_zero_area_segment_raises(self):
        # an unmatched zero-area prediction used to divide by its area
        raster = np.ones((4, 4), dtype=np.int32)
        gt = PanopticMap(raster, [SegmentInfo(1, 5, True, 1.0, 16)])
        pred = PanopticMap(raster, [SegmentInfo(1, 5, True, 1.0, 16),
                                    SegmentInfo(2, 6, True, 0.9, 0)])
        with pytest.raises(DataError, match="area"):
            ME.compute_pq(pred, gt)

    def test_class_thing_stuff_conflict_raises(self):
        raster = np.ones((2, 2), dtype=np.int32)
        a = PanopticMap(raster, [SegmentInfo(1, 5, True, 1.0, 4)])
        b = PanopticMap(raster, [SegmentInfo(1, 5, False, 1.0, 4)])
        with pytest.raises(DataError):
            ME.compute_pq(a, b)


class TestMiou:
    def test_perfect(self):
        sem = np.random.default_rng(4).integers(1, 4, size=(8, 8))
        assert ME.compute_miou(sem, sem) == 1.0

    def test_total_disagreement_single_class(self):
        pred = np.full((4, 4), 1)
        gt = np.full((4, 4), 2)
        assert ME.compute_miou(pred, gt) == 0.0

    def test_two_class_hand_raster(self):
        gt = np.array([[1, 1], [2, 2]])
        pred = np.array([[1, 2], [2, 2]])
        # class 1: inter 1, union 2 -> 0.5 ; class 2: inter 2, union 3
        expected = 0.5 * (0.5 + 2.0 / 3.0)
        assert ME.compute_miou(pred, gt) == pytest.approx(expected)

    def test_dataset_accumulation(self):
        stats = ME.MiouStats()
        stats.update(np.array([[1]]), np.array([[1]]))
        stats.update(np.array([[1]]), np.array([[2]]))
        # class 1: inter 1 / union 2; class 2: 0/1
        assert stats.result() == pytest.approx(0.25)


def square_mask(h, w, r0, c0, size):
    m = np.zeros((h, w), dtype=bool)
    m[r0 : r0 + size, c0 : c0 + size] = True
    return m


class TestMaskAp:
    def test_perfect_single_instance(self):
        gt_mask = square_mask(8, 8, 1, 1, 4)
        res = ME.compute_mask_ap([[(1, 0.9, gt_mask)]], [[(1, gt_mask)]])
        assert res.ap == 1.0 and res.ap50 == 1.0 and res.ap75 == 1.0

    def test_no_predictions(self):
        gt_mask = square_mask(8, 8, 1, 1, 4)
        res = ME.compute_mask_ap([[]], [[(1, gt_mask)]])
        assert res.ap == 0.0

    def test_iou_06_tp_plus_fp(self):
        gt_mask = square_mask(12, 12, 0, 0, 5)   # 25 px
        pred = square_mask(12, 12, 0, 0, 5)
        pred[4, :5] = False                       # 20 px, inter 20, union 25
        assert ME.mask_ious(pred[None], gt_mask[None])[0, 0] == pytest.approx(0.8)
        pred2 = np.zeros((12, 12), dtype=bool)
        pred2[9:11, 9:11] = True
        # adjust to exactly IoU 0.6: inter 15 / union 25 -> drop 10 px
        pred_06 = square_mask(12, 12, 0, 0, 5)
        pred_06[3:5, :5] = False                  # 15 px
        assert ME.mask_ious(pred_06[None], gt_mask[None])[0, 0] == pytest.approx(15 / 25)
        res = ME.compute_mask_ap(
            [[(1, 0.9, pred_06), (1, 0.3, pred2)]], [[(1, gt_mask)]]
        )
        assert res.ap50 == 1.0
        assert res.ap75 == 0.0

    def test_adding_correct_prediction_never_lowers_ap(self):
        rng = np.random.default_rng(5)
        gt1 = square_mask(16, 16, 2, 2, 5)
        gt2 = square_mask(16, 16, 9, 9, 5)
        preds = [[(1, 0.8, gt1)]]
        gts = [[(1, gt1), (1, gt2)]]
        before = ME.compute_mask_ap(preds, gts).ap
        after = ME.compute_mask_ap([[(1, 0.8, gt1), (1, 0.7, gt2)]], gts).ap
        assert after >= before

    def test_low_scored_fp_never_raises_ap(self):
        gt1 = square_mask(16, 16, 2, 2, 5)
        junk = square_mask(16, 16, 10, 10, 3)
        preds = [[(1, 0.8, gt1)]]
        gts = [[(1, gt1)]]
        before = ME.compute_mask_ap(preds, gts).ap
        after = ME.compute_mask_ap([[(1, 0.8, gt1), (1, 0.01, junk)]], gts).ap
        assert after <= before

    def test_ap_leq_ap50(self):
        rng = np.random.default_rng(6)
        preds, gts = [], []
        for _ in range(4):
            gt_m = square_mask(16, 16, int(rng.integers(0, 10)), int(rng.integers(0, 10)), 5)
            noise = square_mask(16, 16, int(rng.integers(0, 10)), int(rng.integers(0, 10)), 4)
            gts.append([(1, gt_m)])
            preds.append([(1, float(rng.uniform(0.3, 0.9)), noise)])
        res = ME.compute_mask_ap(preds, gts)
        assert res.ap <= res.ap50 + 1e-12
        assert 0.0 <= res.ap <= 1.0

    def test_matches_loop_reference(self):
        # bitwise against the per-threshold loop ApStats replaced
        rng = np.random.default_rng(27)
        nonzero = 0
        for _ in range(1000):
            preds, gts = random_ap_case(rng)
            got, ref = ME.compute_mask_ap(preds, gts), loop_mask_ap(preds, gts)
            assert (got.ap, got.ap50, got.ap75) == (ref.ap, ref.ap50, ref.ap75)
            nonzero += ref.ap > 0
        assert nonzero > 500

    def test_image_count_mismatch_raises(self):
        gt_mask = square_mask(8, 8, 1, 1, 4)
        with pytest.raises(DimensionError):
            ME.compute_mask_ap([[(1, 0.9, gt_mask)]], [[(1, gt_mask)], [(1, gt_mask)]])

    def test_mixed_mask_shapes_raise(self):
        # the (3, 3) mask is never compared with another, but its image is (4, 4)
        m = square_mask(4, 4, 0, 0, 2)
        with pytest.raises(DimensionError):
            ME.compute_mask_ap([[(1, 0.9, m), (2, 0.8, square_mask(3, 3, 0, 0, 2))]], [[(1, m)]])

    def test_keeps_no_arrays(self):
        rng = np.random.default_rng(3)
        stats = ME.ApStats()
        for _ in range(3):
            gts = [(1 + j % 3, rng.uniform(size=(64, 64)) < 0.3) for j in range(6)]
            preds = [(1 + j % 4, float(rng.uniform()), rng.uniform(size=(64, 64)) < 0.3)
                     for j in range(100)]
            stats.update(preds, gts)
        seen, todo = set(), [vars(stats)]
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            assert not isinstance(obj, np.ndarray)
            if isinstance(obj, dict):
                todo.extend([*obj.keys(), *obj.values()])
            elif isinstance(obj, (list, tuple, set)):
                todo.extend(obj)
            elif hasattr(obj, "__dict__"):
                todo.append(vars(obj))
