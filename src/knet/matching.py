"""Mask-driven one-to-one target assignment and the set-prediction loss.

Predicted kernels are matched to ground-truth instances by minimum-cost
bipartite assignment where the cost mirrors the training loss itself:
negative class probability plus mask cross-entropy plus dice.  Matched
kernels learn the instance; unmatched kernels learn "no object" through
focal-loss negatives.  Kernels bound to semantic classes skip matching
and are supervised directly against the semantic map.  The cost is
computed in the working precision, as the loss is, and returned as a
float64 (n_pred, n_gt) array, the precision the solver's tolerances
assume.

Matching and every mask loss run on the supervision grid: the mask-head
grid upsampled x2 (stride 2 of the image), never finer than the image.
Ground truth is area-pooled to that grid once per batch, so targets are
soft: the covered fraction of each cell.  Decoding stays at full
resolution.

Only the rows a loss reads are upsampled inside the autograd graph.  In
instance and panoptic mode the matched instance rows and the stuff rows
are gathered from the stride-4 mask logits first, then both go through
:func:`_mask_terms`, which upsamples them to the grid and scores them, so
no node holds, and no backward scatters into, all N rows on the grid.
Matching reads the instance rows through a plain-array resize, outside
the graph.  Each map is resized on its own, so either order gives the
same bytes.  Semantic losses supervise every row and upsample them all
(:func:`grid_logits`).  Each stage keeps its unweighted terms in one
table, from which its loss and every logged term are derived.

The assignment solver is in this module and needs numpy only: a
shortest-augmenting-path solve (:func:`solve_assignment`) that also
returns its dual variables, from which :func:`dual_certificate` proves
the optimum unique without a second solve.  It runs in Python on each
ground truth's few cheapest predictions, which suits the few ground
truths per image of this data; a solve over tens of ground truths costs
milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import CapacityError, ConfigError, ContractError, DimensionError, NumericError
from .head import StageOutput
from .tensor import Tensor

if TYPE_CHECKING:
    from .model import ModelConfig

PROB_CLAMP = 1e-7
DICE_EPS = 1e-4
# the weight of each loss term, read by the loss and the matching cost alike
LOSS_WEIGHTS = {"cls": 2.0, "ce": 1.0, "dice": 4.0, "seg": 1.0}
LOSS_TERMS = tuple(LOSS_WEIGHTS)   # a stage's unweighted terms, in the order it sums them


@dataclass
class LossBreakdown:
    total: float
    cls: float
    ce: float
    dice: float
    seg: float
    per_stage: list[dict[str, float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the supervision grid

def supervision_grid(mask_hw: tuple[int, int], image_size: int) -> tuple[int, int]:
    """The mask-head grid x2, never finer than the image; it must divide it."""
    grid = tuple(min(2 * n, image_size) for n in mask_hw)
    if any(image_size % g for g in grid):
        raise ContractError(
            f"mask grid {tuple(mask_hw)} gives a supervision grid {grid} that does not "
            f"divide the {image_size}-px image"
        )
    return grid


def area_pool(masks: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Mean of each block of the trailing (H, W) axes on a ``grid`` of cells,
    flattened: (..., H, W) boolean -> (..., gh * gw) float32 in [0, 1].

    The bytes of ``blocks.mean(dtype=float32)``: each block's cells are
    counted as integers, its rows in one reduction and then its columns
    one offset at a time, which spares numpy's slow reduction over two
    short strided axes.  Counts of 0/1 cells are exact in float32, so they
    are mean's sums, and they are divided by the block size as mean does.
    """
    *lead, h, w = masks.shape
    gh, gw = grid
    bh, bw = h // gh, w // gw
    rows = masks.reshape(*lead, gh, bh, w).sum(axis=-2, dtype=np.int32)
    counts = sum((rows[..., j::bw] for j in range(1, bw)), rows[..., ::bw])
    pooled = counts.astype(np.float32)
    np.true_divide(pooled, np.intp(bh * bw), out=pooled, casting="unsafe")
    return pooled.reshape(*lead, gh * gw)


def class_fractions(label_maps: np.ndarray, class_ids: list[int],
                    grid: tuple[int, int]) -> np.ndarray:
    """Per-cell class shares of (B, H, W) label rasters: (B, K, gh * gw)."""
    ids = np.asarray(class_ids, dtype=label_maps.dtype).reshape(1, -1, 1, 1)
    return area_pool(label_maps[:, None] == ids, grid)


def grid_logits(mask_logits: Tensor, grid: tuple[int, int]) -> Tensor:
    """(..., h, w) mask logits upsampled to the supervision ``grid`` that
    :func:`supervision_grid` gave, flattened to (..., gh * gw)."""
    gh, gw = grid
    return T.reshape(T.bilinear_upsample(mask_logits, gh, gw), (*mask_logits.shape[:-2], gh * gw))


# ---------------------------------------------------------------------------
# differentiable loss terms

def focal_loss(probs: Tensor, targets: np.ndarray, alpha: float = 0.25,
               gamma: float = 2.0) -> Tensor:
    """Focal binary classification loss, as one graph node.

    ``probs`` are per-class probabilities in (0, 1); ``targets`` a {0,1}
    array of the same shape.  Sum over the class axis (last), mean over
    everything else.  The numpy ops and their order are those of the
    composite ``clip``, ``pow_const``, ``log``, ``mul``, ``add``,
    ``reduce_sum`` and ``reduce_mean`` graph (the reference in
    ``tests/test_fused.py``), forward and backward, so the bytes are the
    same; ``probs`` gets one accumulation.
    """
    x = probs.data
    dtype = x.dtype
    t = _targets_like(targets, x, "focal_loss")
    one = np.asarray(1.0).astype(dtype)
    neg_alpha = np.asarray(-alpha).astype(dtype)
    alpha_m1 = np.asarray(alpha - 1.0).astype(dtype)
    p = np.clip(x, PROB_CLAMP, 1.0 - PROB_CLAMP)
    q = one - p
    log_p, log_q = np.log(p), np.log(q)
    pow_q, pow_p = q ** gamma, p ** gamma
    not_t = 1.0 - t
    per = pow_q * log_p * neg_alpha * t + pow_p * log_q * alpha_m1 * not_t
    last = (per.ndim - 1,)
    summed = per.sum(axis=last)
    every, summed_shape = tuple(range(summed.ndim)), summed.shape
    scale = np.asarray(1.0 / math.prod(summed_shape)).astype(dtype)
    data = summed.sum(axis=every) * scale if summed.ndim else summed
    rp = probs._record

    def bw(g):
        if summed_shape:
            g = np.broadcast_to(np.expand_dims(g * scale, every), summed_shape)
        g_per = np.broadcast_to(np.expand_dims(g, last), rp.shape)
        g_pos = g_per * t * neg_alpha
        g_neg = g_per * not_t * alpha_m1
        g_p = -(g_pos * log_p * gamma * q ** (gamma - 1.0))
        g_p = g_p + g_pos * pow_q / p
        g_p = g_p + g_neg * log_q * gamma * p ** (gamma - 1.0)
        g_p = g_p + -(g_neg * pow_p / q)
        rp.accumulate_grad(g_p * ((x >= PROB_CLAMP) & (x <= 1.0 - PROB_CLAMP)))

    return T._node(data, (probs,), bw)


def dice_loss(pred_probs: Tensor, gt: np.ndarray) -> Tensor:
    """Per-mask dice loss over the last axis; returns one value per mask.

    One graph node with the numpy ops, in order, of the composite ``mul``,
    ``reduce_sum``, ``add``, ``div`` and ``sub`` graph, forward and
    backward, so the bytes are the same.  ``pred_probs`` takes the
    intersection's gradient term, then the denominator's, as two
    accumulations.
    """
    x = pred_probs.data
    dtype = x.dtype
    g_arr = _targets_like(gt, x, "dice_loss")
    two = np.asarray(2.0).astype(dtype)
    eps = np.asarray(DICE_EPS).astype(dtype)
    last = (x.ndim - 1,)
    num = two * (x * g_arr).sum(axis=last) + eps
    den = x.sum(axis=last) + g_arr.sum(axis=-1) + eps
    data = np.asarray(1.0).astype(dtype) - num / den
    rp = pred_probs._record

    def bw(g):
        g_q = -g
        g_inter = g_q / den * two
        g_den = -g_q * num / (den * den)
        rp.accumulate_grad(np.broadcast_to(np.expand_dims(g_inter, last), rp.shape) * g_arr)
        rp.accumulate_grad(np.broadcast_to(np.expand_dims(g_den, last), rp.shape))

    return T._node(data, (pred_probs,), bw)


def mask_ce_loss(pred_logits: Tensor, gt: np.ndarray) -> Tensor:
    """Binary cross-entropy with logits, mean over the last (pixel) axis.

    Stable form ``max(z, 0) - z * g + log(1 + exp(-|z|))``, with
    ``|z| = relu(z) + relu(-z)``, as one graph node.  It runs the numpy
    ops of that composite graph in order, forward and backward, and the
    logits take the composite's four gradient terms as four accumulations
    in its walk order.  So the bytes are the same even where the logits
    feed other nodes too, as they feed the dice sigmoid in training.
    """
    z = pred_logits.data
    dtype = z.dtype
    g_arr = _targets_like(gt, z, "mask_ce_loss")
    relu_z = np.maximum(z, 0)
    ex = np.exp(-(relu_z + np.maximum(-z, 0)))
    one_ex = np.asarray(1.0).astype(dtype) + ex
    per = relu_z - z * g_arr + np.log(one_ex)
    last = (z.ndim - 1,)
    scale = np.asarray(1.0 / z.shape[-1]).astype(dtype)
    data = per.sum(axis=last) * scale
    rz = pred_logits._record

    def bw(g):
        g_per = np.broadcast_to(np.expand_dims(g * scale, last), rz.shape)
        pos = z > 0
        rz.accumulate_grad(g_per * pos)
        rz.accumulate_grad(-g_per * g_arr)
        g_abs = -(g_per / one_ex * ex)
        rz.accumulate_grad(g_abs * pos)
        # z < 0 is -z > 0, NaN and -0.0 included, and keeps no copy of -z
        rz.accumulate_grad(-(g_abs * (z < 0)))

    return T._node(data, (pred_logits,), bw)


def _targets_like(targets, x: np.ndarray, op: str) -> np.ndarray:
    t = np.asarray(targets, dtype=x.dtype)
    if t.shape != x.shape:
        raise DimensionError(f"{op}: targets {t.shape} do not match predictions {x.shape}")
    return t


# ---------------------------------------------------------------------------
# matching

def matching_cost(class_probs: np.ndarray, mask_logits: np.ndarray,
                  gt_classes: np.ndarray, gt_masks: np.ndarray) -> np.ndarray:
    """Pairwise assignment costs for one image, mirroring the loss terms:
    the (n_pred, n_gt) float64 array of class, mask cross-entropy and dice
    costs weighted by ``LOSS_WEIGHTS``, which :func:`hungarian_assign` takes.

    class_probs: (n_pred, n_cls); mask_logits: (n_pred, G) on the
    supervision grid; gt_classes: (n_gt,) class-column indices; gt_masks:
    (n_gt, G) soft targets in [0, 1], the area-pooled instance masks.

    The (n_pred, G) work runs in the working precision, as the loss does:
    the sigmoid and clip in place on one table, which then takes its log,
    the log1p on a second, and the GEMMs and row sums over G.  Only their
    (n_pred, n_gt) and (n_pred,) results are cast to float64, where the
    terms are combined.  In f64 mode every step is float64.
    """
    dtype = T._DTYPES[T.get_precision()]
    p = T.sigmoid_array(np.asarray(mask_logits, dtype))
    np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP, out=p)
    g = np.asarray(gt_masks, dtype)
    hw = p.shape[1]
    inter = (p @ g.T).astype(np.float64)
    sums = p.sum(1).astype(np.float64)[:, None] + g.sum(1).astype(np.float64)[None, :]
    dice = 1.0 - (2.0 * inter + DICE_EPS) / (sums + DICE_EPS)
    log_q = np.negative(p)
    np.log1p(log_q, out=log_q)
    log_p = np.log(p, out=p)   # p is read for the last time
    ce = -((log_p @ g.T).astype(np.float64) + (log_q @ (1.0 - g).T).astype(np.float64)) / hw
    cls = -class_probs.astype(np.float64)[:, gt_classes]
    return LOSS_WEIGHTS["cls"] * cls + LOSS_WEIGHTS["ce"] * ce + LOSS_WEIGHTS["dice"] * dice


@dataclass
class DualSolution:
    """An optimal assignment on the kept predictions, with its duals.

    ``cost[g][k]`` is ``c[keep[k], g]``; ground truth ``g`` is matched to
    kept column ``cols[g]``.  ``u`` (per ground truth) and ``v`` (per kept
    prediction, every other prediction has v = 0) satisfy
    ``cost[g][k] >= u[g] + v[k]`` with equality on the assignment, ``v <= 0``
    and ``v == 0`` on every unmatched prediction.  ``keep`` holds each
    ground truth's n_gt + 1 cheapest predictions, so ``u`` and ``v`` = 0 are
    feasible on the dropped ones too.
    """
    keep: list[int]
    cost: list[list[float]]
    cols: list[int]
    u: list[float]
    v: list[float]

    @property
    def preds(self) -> list[int]:
        """The prediction matched to each ground truth."""
        return [self.keep[k] for k in self.cols]

    def pairs(self) -> list[tuple[int, int]]:
        """(prediction, ground truth) pairs, sorted by prediction."""
        return sorted(zip(self.preds, range(len(self.cols))))

    def total(self) -> float:
        return math.fsum([row[k] for row, k in zip(self.cost, self.cols)])


def solve_assignment(c: np.ndarray) -> DualSolution:
    """Minimum-cost assignment of every column of ``c`` (n_pred, n_gt), with
    n_pred >= n_gt >= 1 and finite entries, and the duals proving it.

    Each ground truth keeps its n_gt + 1 cheapest predictions.  Their union
    holds an optimum, and each ground truth keeps at least one unmatched
    prediction (v = 0) no dearer than any dropped one, so ``v`` = 0 on the
    dropped predictions keeps the duals feasible on the full matrix.  The
    kept columns are solved as Python lists by the rectangular shortest
    augmenting path algorithm (Crouse, IEEE TAES 2016), started from each
    ground truth's cheapest prediction: when those are distinct, no search
    runs.
    """
    n_pred, n_gt = c.shape
    cheapest = c.argmin(axis=0).tolist()
    if n_pred > n_gt * (n_gt + 1):                  # else pruning could not shrink it much
        nearest = np.argpartition(c, n_gt, axis=0)[:n_gt + 1].tolist()
        keep = sorted(set(cheapest).union(*nearest))
        cost = c[keep].T.tolist()
    else:
        keep = list(range(n_pred))
        cost = c.T.tolist()
    column = {p: k for k, p in enumerate(keep)}
    cols, u, v = _shortest_augmenting_path(cost, [column[p] for p in cheapest])
    return DualSolution(keep, cost, cols, u, v)


def _shortest_augmenting_path(cost: list[list[float]],
                              cheapest: list[int]) -> tuple[list[int], list[float], list[float]]:
    """Crouse's rectangular LSAP on ``cost`` (n_rows <= n_cols, finite),
    given each row's cheapest column.

    Each row whose cheapest column is still free takes it (``u`` its cost,
    ``v`` zero: feasible).  Every other row is joined by a Dijkstra search
    over reduced costs ``cost[i][j] - u[i] - v[j]``, and the duals are
    moved so that the path's reduced costs are zero.  Returns (column of
    each row, u, v)."""
    n_rows, n_cols = len(cost), len(cost[0])
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for i, j in enumerate(cheapest):
        if row4col[j] < 0:
            col4row[i], row4col[j], u[i] = j, i, cost[i][j]
    for cur_row in range(n_rows):
        if col4row[cur_row] >= 0:
            continue
        dist = [math.inf] * n_cols
        path = [-1] * n_cols
        remaining = list(range(n_cols))
        scanned_rows: list[int] = []
        scanned_cols: list[int] = []
        min_val = 0.0
        i, sink = cur_row, -1
        while sink < 0:
            scanned_rows.append(i)
            row = cost[i]
            shift = min_val - u[i]
            lowest, best = math.inf, -1
            for j in remaining:
                r = shift + row[j] - v[j]
                d = dist[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                if d < lowest or (d == lowest and row4col[j] < 0):
                    lowest, best = d, j
            min_val = lowest
            remaining.remove(best)
            scanned_cols.append(best)
            if row4col[best] < 0:
                sink = best
            else:
                i = row4col[best]
        u[cur_row] += min_val
        for i in scanned_rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in scanned_cols:
            if dist[j] < min_val:                 # rounding must not lift v above 0
                v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row, u, v


def dual_certificate(sol: DualSolution, tol: float) -> bool:
    """True when the duals prove every other assignment costs more than
    ``sol``'s cost + ``tol``.

    Another assignment costs its new pairs' reduced costs plus ``-v`` of
    each prediction it drops more, and every term is >= 0.  It differs by
    alternating cycles (ground truths passing their predictions round) and
    alternating paths (a ground truth takes a free prediction, another
    takes its old one, and so on, until one prediction is dropped).  So if
    no chain of cheap edges, reduced cost <= 2 * tol, closes a cycle or
    runs from a free prediction to one with ``-v <= 2 * tol``, the optimum
    is strict.  Float noise below zero only makes more edges cheap.  The
    kept predictions suffice: a cheap dropped one has a kept free one at
    least as cheap.
    """
    tau = 2.0 * tol
    n_gt = len(sol.cols)
    owner = {k: g for g, k in enumerate(sol.cols)}
    v = sol.v
    moves: list[list[int]] = [[] for _ in range(n_gt)]   # whose prediction g can take
    takes_free = [False] * n_gt                          # g can take a free prediction
    for g, row in enumerate(sol.cost):
        limit = sol.u[g] + tau
        for k in [k for k, x in enumerate(row) if x <= limit and x - v[k] <= limit]:
            h = owner.get(k, -1)
            if h < 0:
                takes_free[g] = True
            elif h != g:
                moves[g].append(h)
    for g in range(n_gt):
        seen, stack = set(), list(moves[g])
        while stack:
            h = stack.pop()
            if h not in seen:
                seen.add(h)
                stack.extend(moves[h])
        if g in seen:
            return False
        # g's prediction can go unmatched, and a chain from g ends on a free one
        if (takes_free[g] or any(takes_free[h] for h in seen)) and -v[sol.cols[g]] <= tau:
            return False
    return True


def _lexicographic_pairs(c: np.ndarray, limit: float) -> list[tuple[int, int]]:
    """The lexicographically smallest pair list among assignments costing at
    most ``limit``: fix predictions in order, each to the smallest free GT
    column whose best completion stays within the limit."""
    n_pred, n_gt = c.shape
    pairs: list[tuple[int, int]] = []
    free_gt = list(range(n_gt))
    locked = 0.0
    for p in range(n_pred):
        if not free_gt:
            break
        rest_preds = np.arange(p + 1, n_pred)
        matched_here = None
        for g in free_gt:
            others = [x for x in free_gt if x != g]
            if len(others) > len(rest_preds):
                continue
            sub = c[np.ix_(rest_preds, others)]
            completion = solve_assignment(sub).total() if others else 0.0
            if locked + c[p, g] + completion <= limit:
                matched_here = g
                break
        if matched_here is None:
            # leaving p unmatched must stay optimal and feasible
            continue
        pairs.append((p, matched_here))
        free_gt.remove(matched_here)
        locked += c[p, matched_here]
    return pairs


def hungarian_assign(costs: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of predictions to ground truth:
    the (prediction, ground truth) pairs of the (n_pred, n_gt) ``costs``,
    sorted by prediction.

    Every ground-truth column is matched (requires n_pred >= n_gt).  Among
    equal-cost optima the lexicographically smallest pair list wins, so
    degenerate cost matrices resolve deterministically.  One solve gives an
    optimum and its duals; when :func:`dual_certificate` proves it strict
    it is returned, and only ties pay for the O(n_pred * n_gt)
    lexicographic scan.  When every ground truth's cheapest prediction is
    a different one, the solve runs no search (u the column minima, v = 0)
    and the certificate accepts unless another entry is within 2 * tol of
    its column's minimum.
    """
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 2:
        raise DimensionError(f"cost matrix must be 2-D, got shape {c.shape}")
    n_pred, n_gt = c.shape
    if n_pred < n_gt:
        raise CapacityError(f"{n_pred} kernels cannot cover {n_gt} ground-truth instances")
    if n_gt == 0:
        return []
    if not np.isfinite(c).all():
        raise NumericError("assignment costs must be finite")

    sol = solve_assignment(c)
    best = sol.total()
    tol = 1e-9 * max(1.0, abs(best))
    if dual_certificate(sol, tol):
        return sol.pairs()
    return _lexicographic_pairs(c, best + tol)


# ---------------------------------------------------------------------------
# full set-prediction loss

def semantic_loss(mask_logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy plus per-class softmax dice vs class shares.

    mask_logits: (B, K, G); targets: (B, K, G) per-cell class shares (the
    pooled one-hots of :func:`class_fractions`, summing to 1 per cell).
    """
    t = np.asarray(targets, dtype=mask_logits.data.dtype)
    logp = T.log_softmax(mask_logits, axis=1)
    ce_pix = T.reduce_sum(logp * t, axes=1) * -1.0  # (B, G)
    ce = T.reduce_mean(ce_pix)
    dice = T.reduce_mean(dice_loss(T.softmax(mask_logits, axis=1), t))
    return ce + dice


def _mask_terms(rows: Tensor, targets: np.ndarray,
                grid: tuple[int, int]) -> tuple[Tensor, Tensor]:
    """Mean binary cross-entropy and mean dice of stride-4 mask rows
    (..., h, w), on the supervision ``grid`` (:func:`grid_logits`), against
    (..., gh * gw) soft targets."""
    logits = grid_logits(rows, grid)
    return (T.reduce_mean(mask_ce_loss(logits, targets)),
            T.reduce_mean(dice_loss(T.sigmoid(logits), targets)))


def aux_semantic_map(gt) -> np.ndarray:
    """Semantic targets from instance masks alone: things on background."""
    out = np.zeros_like(gt.semantic)
    for class_id, mask in gt.instances:
        out[mask] = class_id
    return out


def set_prediction_loss(stages: list[StageOutput], gts: list, cfg: ModelConfig,
                        semantic_logits: Tensor | None = None) -> tuple[Tensor, LossBreakdown]:
    """Deep-supervised loss over all stages; matching is redone per stage.

    ``gts`` is one GroundTruthSample-like object per batch item, exposing
    ``instances`` (list of (class_id, bool mask)) and ``semantic``
    (image_size x image_size class raster).  Kernel rows [0, n) are the
    instance kernels, class-logit column c is ``cfg.thing_class_ids[c]``,
    and the rows after the instance kernels are ``cfg.semantic_class_ids``
    (semantic and panoptic mode); any other thing class is a ConfigError.
    Every stage predicts on the same mask grid, so the ground truth is
    area-pooled to its supervision grid (:func:`supervision_grid`) once,
    and each stage is matched and supervised there.  Each stage fills one
    table of unweighted ``LOSS_TERMS``: its sum weighted by ``LOSS_WEIGHTS``
    is the stage loss, its values (0.0 where absent) the stage's
    ``per_stage`` row, and each breakdown term sums its column.  In
    instance mode, ``semantic_logits`` (the static semantic kernels' masks)
    add one auxiliary :func:`semantic_loss` against :func:`aux_semantic_map`,
    at the ``seg`` weight and counted in ``seg`` only; the other modes
    ignore them.
    """
    batch = stages[0].mask_logits.shape[0]
    if len(gts) != batch:
        raise DimensionError(
            f"set_prediction_loss: {len(gts)} ground truths for a batch of {batch} images"
        )
    size = cfg.image_size
    n_ins = cfg.num_instance_kernels
    thing_index = {cid: i for i, cid in enumerate(cfg.thing_class_ids)}
    for i, gt in enumerate(gts):
        for c, _ in gt.instances:
            if c not in thing_index:
                raise ConfigError(f"sample {i}: thing class {c} is not in model.thing_class_ids")

    gt_classes = [np.array([thing_index[c] for c, _ in gt.instances], dtype=np.int64)
                  for gt in gts]
    grid = supervision_grid(stages[0].mask_logits.shape[2:], size)
    gh, gw = grid
    # only matching reads the pooled instance masks: semantic mode has none
    gt_masks = [] if cfg.mode == "semantic" else [
        area_pool(np.array([m for _, m in gt.instances], dtype=bool).reshape(-1, size, size), grid)
        for gt in gts]
    # instance mode's auxiliary targets are built from the instance masks alone
    rasters = [aux_semantic_map(gt) if cfg.mode == "instance" else gt.semantic for gt in gts]
    shares = class_fractions(np.stack(rasters), cfg.semantic_class_ids, grid)

    per_stage: list[dict[str, float]] = []
    stage_losses: list[Tensor] = []
    for stage in stages:
        b, n_total, mh, mw = stage.mask_logits.shape
        terms: dict[str, Tensor] = {}

        if cfg.mode == "semantic":
            terms["seg"] = semantic_loss(grid_logits(stage.mask_logits, grid), shares)
        else:
            # instance kernels: match, then classify + segment
            focal_targets = np.zeros((b, n_ins, len(thing_index)), dtype=np.float32)
            sel_rows: list[int] = []
            sel_masks: list[np.ndarray] = []
            cls_probs = T.sigmoid_array(stage.class_logits.data[:, :n_ins])
            for bi in range(b):
                if gt_masks[bi].shape[0] == 0:
                    continue
                # matching reads one image's instance rows on the grid as a
                # plain array; each row resizes alone, so per image is the
                # batch's bytes without the batch's (b, n_ins, grid) table
                match_logits = T.bilinear_resize_array(
                    stage.mask_logits.data[bi, :n_ins], gh, gw).reshape(n_ins, gh * gw)
                cost = matching_cost(cls_probs[bi], match_logits, gt_classes[bi], gt_masks[bi])
                for p, g in hungarian_assign(cost):
                    focal_targets[bi, p, gt_classes[bi][g]] = 1.0
                    sel_rows.append(bi * n_total + p)
                    sel_masks.append(gt_masks[bi][g])
            terms["cls"] = focal_loss(
                T.sigmoid(T.index_select(stage.class_logits, 1, np.arange(n_ins))), focal_targets)

            if sel_rows:
                # gather the matched rows first, then upsample only those
                rows = T.index_select(T.reshape(stage.mask_logits, (b * n_total, mh, mw)),
                                      0, sel_rows)
                terms["ce"], terms["dice"] = _mask_terms(rows, np.stack(sel_masks), grid)

            if cfg.mode == "panoptic" and cfg.stuff_class_ids:
                # stuff kernels: fixed per-class assignment, same binary mask
                # losses as matched instances; panoptic masks are sigmoid-read
                # at inference, so the supervision must pin that scale and
                # penalize bleed over thing pixels at full weight
                rows = T.index_select(stage.mask_logits, 1, np.arange(n_ins, n_total))
                stuff_ce, stuff_dice = _mask_terms(rows, shares, grid)
                terms["seg"] = stuff_ce + stuff_dice

        # the first term starts the sum: one node fewer, and the additions keep their order
        weighted = [LOSS_WEIGHTS[key] * term for key, term in terms.items()]
        stage_losses.append(sum(weighted[1:], weighted[0]))
        per_stage.append({key: float(terms[key].data) if key in terms else 0.0
                          for key in LOSS_TERMS})

    total = sum(stage_losses[1:], stage_losses[0])
    sums = {key: sum(row[key] for row in per_stage) for key in LOSS_TERMS}
    if cfg.mode == "instance" and semantic_logits is not None:
        aux = semantic_loss(grid_logits(semantic_logits, grid), shares)
        total = total + LOSS_WEIGHTS["seg"] * aux
        sums["seg"] += float(aux.data)
    return total, LossBreakdown(float(total.data), **sums, per_stage=per_stage)
