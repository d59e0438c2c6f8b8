"""The float64 matching cost ``knet.matching.matching_cost`` replaced, kept as a reference.

``f64_matching_cost`` casts the (n_pred, G) logits and targets to float64
before the sigmoid, clip, logs and GEMMs; ``matching_cost`` runs those in
the working precision and casts only the (n_pred, n_gt) results.
``scene_case`` builds the inputs the two are compared on.
"""

import numpy as np

from knet import tensor as T
from knet.data import SceneSpec, generate_sample
from knet.matching import DICE_EPS, LOSS_WEIGHTS, PROB_CLAMP, area_pool

GRID = (32, 32)


def f64_matching_cost(class_probs: np.ndarray, mask_logits: np.ndarray,
                      gt_classes: np.ndarray, gt_masks: np.ndarray) -> np.ndarray:
    """Pairwise assignment costs for one image, every step in float64."""
    p = T.sigmoid_array(mask_logits.astype(np.float64))
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    g = gt_masks.astype(np.float64)
    hw = p.shape[1]
    ce = -(np.log(p) @ g.T + np.log1p(-p) @ (1.0 - g).T) / hw
    inter = p @ g.T
    dice = 1.0 - (2.0 * inter + DICE_EPS) / (p.sum(1)[:, None] + g.sum(1)[None, :] + DICE_EPS)
    cls = -class_probs.astype(np.float64)[:, gt_classes]
    return LOSS_WEIGHTS["cls"] * cls + LOSS_WEIGHTS["ce"] * ce + LOSS_WEIGHTS["dice"] * dice


def scene_case(seed: int, n_pred: int, n_cls: int = 3):
    """float32 matching inputs for one 64 x 64 scene (``n_max`` 6).

    The ground truth is the scene's instance masks area-pooled to the
    32 x 32 grid.  Prediction ``n`` is a noisy copy of ground truth
    ``n % n_gt`` at a random confidence, so several predictions compete
    for each ground truth, as kernels do early in training.
    """
    sample = generate_sample(SceneSpec(seed=seed, n_max=6), 0)
    masks = np.array([m for _, m in sample.instances], dtype=bool)
    gt_masks = area_pool(masks, GRID)
    n_gt = gt_masks.shape[0]
    rng = np.random.default_rng(seed)
    target = 2.0 * gt_masks[np.arange(n_pred) % n_gt] - 1.0
    scale = rng.uniform(0.5, 6.0, size=(n_pred, 1))
    logits = (scale * target + rng.normal(0.0, 2.0, size=target.shape)).astype(np.float32)
    class_probs = rng.uniform(0.05, 0.95, size=(n_pred, n_cls)).astype(np.float32)
    gt_classes = rng.integers(0, n_cls, size=n_gt)
    return class_probs, logits, gt_classes, gt_masks
