"""Acceptance suite: one test per criterion, each printing a PASS line.

Training-based criteria pin their seeds, datasets, and budgets; the
reference values they assert against were produced by the committed
configurations below and are expected to reproduce exactly on CPU.
"""

import ast
import itertools
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import knet
import knet.training as training
from knet import tensor as T
from knet.data import SceneSpec, write_dataset
from knet.head import assemble_group_features
from knet.matching import hungarian_assign
from knet.metrics import PanopticMap, SegmentInfo, compute_mask_ap, compute_pq
from knet.model import ModelConfig
from knet.training import TrainConfig
from knet.verification import gradient_suite

pytestmark = pytest.mark.acceptance


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name} {detail}")
    assert ok, f"{name}: {detail}"


# -- shared training fixtures (session-scoped; each builds its datasets) ----

CAL = Path("/tmp") / "knet-acceptance"


def _dataset(tag: str, spec: SceneSpec, count: int) -> str:
    path = CAL / tag
    if not (path / "manifest.json").exists():
        write_dataset(spec, count, path)
    return str(path)


# ---------------------------------------------------------------------------
# 1. gradient suite

def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = gradient_suite(seeds=10)
    elapsed = time.time() - t0
    bad = {k: v for k, (v, tol) in results.items() if v >= tol}
    detail = f"worst={max(v for v, _ in results.values()):.2e} runtime={elapsed:.1f}s"
    report("1 gradient suite", not bad and elapsed < 120.0, detail)


# ---------------------------------------------------------------------------
# 2. matching oracle

def brute_force_min_cost(costs: np.ndarray) -> float:
    n_pred, n_gt = costs.shape
    best = math.inf
    for rows in itertools.permutations(range(n_pred), n_gt):
        total = sum(costs[r, j] for j, r in enumerate(rows))
        best = min(best, total)
    return best


def test_criterion_2_matching_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    for _ in range(200):
        n_pred = int(rng.integers(1, 8))
        n_gt = int(rng.integers(1, n_pred + 1))
        costs = rng.standard_normal((n_pred, n_gt)) * rng.uniform(0.5, 3.0)
        out = hungarian_assign(costs)
        got = sum(costs[p, g] for p, g in sorted(out, key=lambda x: x[1]))
        want = brute_force_min_cost(costs)
        assert got == want, f"{got} != {want}"
    elapsed = time.time() - t0
    report("2 matching oracle", elapsed < 10.0, f"200 matrices exact, runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. group-feature assembly oracle

def test_criterion_3_group_feature_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in range(1, 7):
        for c in range(1, 7):
            for h in range(1, 7):
                for w in range(1, 7):
                    probs = rng.uniform(size=(1, n, h, w)).astype(np.float32)
                    feats = rng.standard_normal((1, c, h, w)).astype(np.float32)
                    got = assemble_group_features(T.Tensor(probs), T.Tensor(feats)).data
                    ref = np.zeros((1, n, c), dtype=np.float64)
                    for ni in range(n):
                        for ci in range(c):
                            s = 0.0
                            for u in range(h):
                                for v in range(w):
                                    s += float(probs[0, ni, u, v]) * float(feats[0, ci, u, v])
                            ref[0, ni, ci] = s
                    worst = max(worst, float(np.max(np.abs(got - ref))))
    report("3 group-feature oracle", worst < 1e-6, f"max abs diff={worst:.2e} over all shapes <= 6")


# ---------------------------------------------------------------------------
# 4. metric oracles

def test_criterion_4_metric_oracles():
    from loop_ap import loop_mask_ap, random_ap_case
    from test_metrics import brute_force_pq, random_panoptic, square_mask

    rng = np.random.default_rng(4)
    for _ in range(100):
        pred = random_panoptic(rng)
        gt = random_panoptic(rng)
        res = compute_pq(pred, gt)
        pq, _, _ = brute_force_pq(pred, gt)
        assert res.pq == pq

    raster_gt = np.ones((10, 10), dtype=np.int32)
    gt = PanopticMap(raster_gt, [SegmentInfo(1, 7, True, 1.0, 100)])
    raster_pred = np.ones((10, 10), dtype=np.int32)
    raster_pred[8:, :] = 2
    pred = PanopticMap(raster_pred, [SegmentInfo(1, 7, True, 0.9, 80),
                                     SegmentInfo(2, 7, True, 0.8, 20)])
    hand = compute_pq(pred, gt)
    assert hand.pq == pytest.approx(0.8 / 1.5, abs=1e-12)

    gt_mask = square_mask(12, 12, 0, 0, 5)
    tp_06 = square_mask(12, 12, 0, 0, 5)
    tp_06[3:5, :5] = False  # IoU 15/25 = 0.6
    fp = np.zeros((12, 12), dtype=bool)
    fp[9:11, 9:11] = True
    ap = compute_mask_ap([[(1, 0.9, tp_06), (1, 0.3, fp)]], [[(1, gt_mask)]])
    assert ap.ap50 == 1.0 and ap.ap75 == 0.0

    for _ in range(200):
        preds, gts = random_ap_case(rng)
        got, ref = compute_mask_ap(preds, gts), loop_mask_ap(preds, gts)
        assert (got.ap, got.ap50, got.ap75) == (ref.ap, ref.ap50, ref.ap75)
    report("4 metric oracles", True,
           f"100 rasters exact; PQ hand={hand.pq:.4f}; AP50={ap.ap50} AP75={ap.ap75}; "
           f"200 random AP cases equal the per-threshold loop bitwise")


# ---------------------------------------------------------------------------
# 7. structural NMS-free / box-free check

FORBIDDEN_TOKENS = {"nms", "bbox", "bboxes", "box", "boxes", "suppression"}


def _identifier_tokens(name: str):
    for part in re.split(r"[_0-9]+", name):
        # split camelCase too
        for tok in re.findall(r"[a-z]+|[A-Z][a-z]*", part):
            yield tok.lower()


def test_criterion_7_structural_nms_free():
    src_dir = Path(knet.__file__).parent
    offenders = []
    for py in sorted(src_dir.glob("*.py")):
        tree = ast.parse(py.read_text())
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, ast.arg):
                names.append(node.arg)
            for name in names:
                for tok in _identifier_tokens(name):
                    if tok in FORBIDDEN_TOKENS:
                        offenders.append(f"{py.name}:{name}")
    assert not offenders, offenders

    # one-to-one mapping over 1000 random cost batches
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n_pred = int(rng.integers(1, 12))
        n_gt = int(rng.integers(0, n_pred + 1))
        out = hungarian_assign(rng.standard_normal((n_pred, n_gt)))
        preds = [p for p, _ in out]
        gts = [g for _, g in out]
        assert len(set(preds)) == len(preds), "kernel matched twice"
        assert sorted(gts) == list(range(n_gt)), "ground truth not covered exactly once"

    # per-kernel decoding independence: altering one kernel's mask logits
    # never changes another kernel's decoded instance
    from knet.head import StageOutput
    from knet.model import binarize_instances

    cfg = ModelConfig(mode="instance", image_size=16, channels=8,
                      num_instance_kernels=4, stages=1, heads=2)
    logits = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
    cls = rng.standard_normal((1, 4, 3)).astype(np.float32) + 2.0
    stage_a = StageOutput(T.Tensor(np.zeros((1, 4, 8), dtype=np.float32)),
                          T.Tensor(logits), T.Tensor(cls))
    mutated = logits.copy()
    mutated[0, 2] += 5.0
    stage_b = StageOutput(T.Tensor(np.zeros((1, 4, 8), dtype=np.float32)),
                          T.Tensor(mutated), T.Tensor(cls))
    out_a = binarize_instances(stage_a, cfg)
    out_b = binarize_instances(stage_b, cfg)
    for i in (0, 1, 3):
        assert np.array_equal(out_a[i][2], out_b[i][2])
    report("7 structural NMS-free/box-free", True,
           "no box/suppression identifiers; 1000 assignments one-to-one; decode independent")
