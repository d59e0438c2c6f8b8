import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from knet import matching as M
from knet import tensor as T
from knet.errors import CapacityError, ContractError, DimensionError, NumericError
from knet.model import ModelConfig
from knet.tensor import Tensor

from f64_cost import f64_matching_cost, scene_case


@pytest.fixture
def f64():
    with T.precision("f64"):
        yield


def brute_force_assign(costs):
    """Minimum-cost injection of GT columns into prediction rows."""
    n_pred, n_gt = costs.shape
    best_cost, best_rows = math.inf, None
    for rows in itertools.permutations(range(n_pred), n_gt):
        c = sum(costs[r, j] for j, r in enumerate(rows))
        if c < best_cost:
            best_cost, best_rows = c, rows
    return best_cost, best_rows


def total_cost(costs, pairs):
    return sum(costs[p, g] for p, g in sorted(pairs, key=lambda x: x[1]))


def unmatched(pairs, n_pred):
    """The predictions a pair list leaves unmatched, in order."""
    matched = {p for p, _ in pairs}
    return [i for i in range(n_pred) if i not in matched]


def lexicographic_scan(c):
    """Reference tie-break: the lexicographically smallest optimal pair list.

    Fixes predictions in order, each to the smallest free GT column whose
    best completion keeps the total optimal.  Returns (pairs, unmatched).
    """
    n_pred, n_gt = c.shape

    def lsap_min(sub):
        if sub.shape[1] == 0:
            return 0.0
        r, k = linear_sum_assignment(sub)
        return float(sub[r, k].sum())

    best = lsap_min(c)
    tol = 1e-9 * max(1.0, abs(best))
    pairs, free_gt, locked = [], list(range(n_gt)), 0.0
    for p in range(n_pred):
        if not free_gt:
            break
        rest_preds = np.arange(p + 1, n_pred)
        for g in free_gt:
            others = [x for x in free_gt if x != g]
            if len(others) > len(rest_preds):
                continue
            if locked + c[p, g] + lsap_min(c[np.ix_(rest_preds, others)]) <= best + tol:
                pairs.append((p, g))
                free_gt.remove(g)
                locked += c[p, g]
                break
    return pairs, unmatched(pairs, n_pred)


@st.composite
def tie_heavy_costs(draw):
    """Cost matrices up to 12 x 11 whose optima are often tied."""
    n_pred = draw(st.integers(1, 12))
    n_gt = draw(st.integers(0, min(n_pred, 11)))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["int0-2", "one-decimal", "half-zero"]))
    rng = np.random.default_rng(seed)
    shape = (n_pred, n_gt)
    if kind == "int0-2":
        return rng.integers(0, 3, size=shape).astype(np.float64)
    if kind == "one-decimal":
        return np.round(rng.uniform(-1.0, 1.0, size=shape), 1)
    return np.where(rng.uniform(size=shape) < 0.5, 0.0, rng.standard_normal(shape))


@st.composite
def paper_kernel_costs(draw):
    """(100, n_gt <= 6) matrices, the shape of the N=100 kernels' costs;
    one-decimal entries tie often."""
    n_gt = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    c = np.random.default_rng(seed).standard_normal((100, n_gt))
    return np.round(c, 1) if draw(st.booleans()) else c


def scipy_min(costs):
    """scipy's optimum, or None when no assignment is finite."""
    try:
        r, k = linear_sum_assignment(costs)
    except ValueError:
        return None
    return float(costs[r, k].sum())


class TestFocalLoss:
    def test_perfect_prediction_vanishes(self, f64):
        loss = M.focal_loss(Tensor([[0.999999]]), np.array([[1.0]]))
        assert float(loss.data) < 1e-4

    def test_closed_form_half(self, f64):
        loss = M.focal_loss(Tensor([[0.5]]), np.array([[1.0]]), alpha=0.25, gamma=2.0)
        expected = 0.25 * 0.25 * math.log(2.0)
        assert abs(float(loss.data) - expected) < 1e-9
        assert abs(float(loss.data) - 0.043322) < 1e-6

    def test_gamma_zero_is_scaled_ce(self, f64):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.1, 0.9, size=(4, 3))
        t = (rng.uniform(size=(4, 3)) > 0.5).astype(float)
        focal = M.focal_loss(Tensor(p), t, alpha=0.5, gamma=0.0)
        ce = -(t * np.log(p) + (1 - t) * np.log(1 - p))
        assert abs(float(focal.data) - 0.5 * ce.sum(-1).mean()) < 1e-9

    def test_grad(self, f64):
        rng = np.random.default_rng(1)
        t = (rng.uniform(size=(3, 4)) > 0.5).astype(float)
        x = Tensor(rng.uniform(0.2, 0.8, size=(3, 4)), requires_grad=True)
        assert T.grad_check(lambda z: M.focal_loss(z, t), x) < 1e-5


class TestDiceLoss:
    def test_perfect_mask(self, f64):
        g = np.array([1.0, 0.0, 1.0, 1.0])
        loss = M.dice_loss(Tensor(g), g)
        assert float(loss.data) < 1e-4

    def test_disjoint_masks(self, f64):
        p = np.zeros(100)
        p[:50] = 1.0
        g = np.zeros(100)
        g[50:] = 1.0
        loss = M.dice_loss(Tensor(p), g)
        assert abs(float(loss.data) - 1.0) < 1e-5

    def test_hand_case_third(self, f64):
        loss = M.dice_loss(Tensor([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        assert abs(float(loss.data) - (1.0 - 2.0 / 3.0)) < 1e-4

    def test_symmetric_for_binary(self, f64):
        rng = np.random.default_rng(2)
        a = (rng.uniform(size=32) > 0.5).astype(float)
        b = (rng.uniform(size=32) > 0.5).astype(float)
        ab = float(M.dice_loss(Tensor(a), b).data)
        ba = float(M.dice_loss(Tensor(b), a).data)
        assert ab == ba

    def test_bounded(self, f64):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=(20, 16))
        g = (rng.uniform(size=(20, 16)) > 0.5).astype(float)
        vals = M.dice_loss(Tensor(p), g).data
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-3)

    def test_grad(self, f64):
        rng = np.random.default_rng(4)
        g = (rng.uniform(size=16) > 0.5).astype(float)
        x = Tensor(rng.uniform(0.1, 0.9, size=16), requires_grad=True)
        assert T.grad_check(lambda z: M.dice_loss(T.sigmoid(z), g), x) < 1e-5


class TestMaskCeLoss:
    def test_zero_logits_give_ln2(self, f64):
        loss = M.mask_ce_loss(Tensor(np.zeros(10)), np.ones(10))
        assert abs(float(loss.data) - math.log(2.0)) < 1e-9

    def test_confident_correct_goes_to_zero(self, f64):
        g = np.array([1.0, 0.0, 1.0])
        loss = M.mask_ce_loss(Tensor([30.0, -30.0, 30.0]), g)
        assert float(loss.data) < 1e-9

    def test_single_pixel_hand_case(self, f64):
        logit = math.log(3.0)  # sigmoid -> 0.75
        loss = M.mask_ce_loss(Tensor([logit]), np.array([1.0]))
        assert abs(float(loss.data) - (-math.log(0.75))) < 1e-9
        assert abs(float(loss.data) - 0.287682) < 1e-6

    def test_grad(self, f64):
        rng = np.random.default_rng(5)
        g = (rng.uniform(size=12) > 0.5).astype(float)
        x = Tensor(rng.standard_normal(12), requires_grad=True)
        assert T.grad_check(lambda z: M.mask_ce_loss(z, g), x) < 1e-5


SCENE_SEEDS = list(range(1, 25))   # declared up front; none is ever dropped


class TestMatchingCost:
    def test_perfect_pair_dominates_column(self):
        rng = np.random.default_rng(6)
        gt_mask = (rng.uniform(size=64) > 0.6).astype(np.float32)
        logits = rng.standard_normal((4, 64)).astype(np.float32)
        logits[2] = np.where(gt_mask > 0, 30.0, -30.0)
        probs = np.full((4, 3), 0.4, dtype=np.float32)
        probs[2, 1] = 1.0 - 1e-6
        cost = M.matching_cost(probs, logits, np.array([1]), gt_mask[None])
        assert np.argmin(cost[:, 0]) == 2
        assert cost[2, 0] == pytest.approx(-2.0, abs=1e-2)

    def test_constant_inputs_give_constant_matrix(self):
        probs = np.full((3, 2), 0.5, dtype=np.float32)
        logits = np.zeros((3, 16), dtype=np.float32)
        gts = (np.arange(16) < 8).astype(np.float32)[None].repeat(2, axis=0)
        cost = M.matching_cost(probs, logits, np.array([0, 1]), gts)
        assert np.allclose(cost, cost[0, 0])

    def test_entries_match_loss_ops(self, f64):
        rng = np.random.default_rng(7)
        w = M.LOSS_WEIGHTS
        logits = rng.standard_normal((4, 25))
        gts = (rng.uniform(size=(3, 25)) > 0.5).astype(np.float64)
        probs = rng.uniform(0.1, 0.9, size=(4, 2))
        classes = np.array([1, 0, 1])
        cost = M.matching_cost(probs, logits, classes, gts)
        for n in range(4):
            for j in range(3):
                ce = float(M.mask_ce_loss(Tensor(logits[n]), gts[j]).data)
                dice = float(M.dice_loss(T.sigmoid(Tensor(logits[n])), gts[j]).data)
                expected = w["cls"] * (-probs[n, classes[j]]) + w["ce"] * ce + w["dice"] * dice
                assert abs(cost[n, j] - expected) < 1e-6

    def test_entries_match_f32_loss_ops(self):
        # the f32 twin: cost and loss ops each sum G float32 terms, whose
        # independent roundings add up like a random walk to about
        # sqrt(G) * u of each weighted term's magnitude (u = 2**-24, the
        # float32 unit roundoff); dice's ratio is at most 1
        rng = np.random.default_rng(7)
        w = M.LOSS_WEIGHTS
        G = 1024
        logits = rng.standard_normal((4, G)).astype(np.float32)
        gts = (rng.uniform(size=(3, G)) > 0.5).astype(np.float32)
        probs = rng.uniform(0.1, 0.9, size=(4, 2)).astype(np.float32)
        classes = np.array([1, 0, 1])
        cost = M.matching_cost(probs, logits, classes, gts)
        assert cost.dtype == np.float64
        u = np.finfo(np.float32).eps / 2
        for n in range(4):
            for j in range(3):
                ce = float(M.mask_ce_loss(Tensor(logits[n]), gts[j]).data)
                dice = float(M.dice_loss(T.sigmoid(Tensor(logits[n])), gts[j]).data)
                cls = -float(probs[n, classes[j]])
                expected = w["cls"] * cls + w["ce"] * ce + w["dice"] * dice
                tol = math.sqrt(G) * u * (w["cls"] * abs(cls) + w["ce"] * ce + w["dice"])
                assert abs(cost[n, j] - expected) < tol

    @pytest.mark.parametrize("n_pred", [10, 100])
    @pytest.mark.parametrize("seed", SCENE_SEEDS)
    def test_working_precision_assigns_as_the_f64_reference(self, n_pred, seed):
        args = scene_case(seed, n_pred)
        assert 1 <= args[3].shape[0] <= 6
        cost = M.matching_cost(*args)
        reference = f64_matching_cost(*args)
        assert cost.dtype == reference.dtype == np.float64
        assert M.hungarian_assign(cost) == M.hungarian_assign(reference)

    def test_f64_mode_is_the_f64_reference_bit_for_bit(self, f64):
        for seed in SCENE_SEEDS[:6]:
            probs, logits, classes, gts = scene_case(seed, 100)
            for x in (logits, logits.astype(np.float64)):
                args = (probs, x, classes, gts)
                assert np.array_equal(M.matching_cost(*args), f64_matching_cost(*args))

    def test_f32_cost_builds_no_float64_table(self):
        # a float64 (n_pred, G) table is twice a float32 one: the f32 cost
        # stays under half the reference's peak only if it builds none
        args = scene_case(1, 100)
        peaks = []
        for cost_fn in (M.matching_cost, f64_matching_cost):
            cost_fn(*args)
            tracemalloc.start()
            try:
                cost_fn(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert args[1].shape == (100, 1024)
        assert peaks[0] < peaks[1] / 2

    def test_zero_gt_empty_matrix(self):
        cost = M.matching_cost(
            np.zeros((5, 2)), np.zeros((5, 9)), np.zeros(0, dtype=np.int64),
            np.zeros((0, 9)),
        )
        assert cost.shape == (5, 0)


class TestHungarian:
    def test_single_entry(self):
        out = M.hungarian_assign(np.array([[3.0]]))
        assert out == [(0, 0)]
        assert unmatched(out, 1) == []

    def test_two_by_two_cross(self):
        out = M.hungarian_assign(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sorted(out) == [(0, 1), (1, 0)]

    def test_matches_brute_force_cost(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n_pred = rng.integers(1, 8)
            n_gt = rng.integers(0, n_pred + 1)
            c = rng.standard_normal((n_pred, n_gt))
            out = M.hungarian_assign(c)
            assert len(out) == n_gt
            if n_gt:
                best, _ = brute_force_assign(c)
                assert total_cost(c, out) == best

    def test_valid_injection(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            c = rng.standard_normal((6, 4))
            out = M.hungarian_assign(c)
            preds = [p for p, _ in out]
            gts = [g for _, g in out]
            assert len(set(preds)) == len(preds)
            assert sorted(gts) == list(range(4))
            assert sorted(preds + unmatched(out, 6)) == list(range(6))

    def test_constant_matrix_lexicographic(self):
        out = M.hungarian_assign(np.zeros((5, 3)))
        assert out == [(0, 0), (1, 1), (2, 2)]
        assert unmatched(out, 5) == [3, 4]

    def test_tie_prefers_smallest_gt(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        out = M.hungarian_assign(c)
        assert out == [(0, 0), (1, 1)]

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            M.hungarian_assign(np.zeros((2, 3)))

    def test_empty_gt(self):
        out = M.hungarian_assign(np.zeros((4, 0)))
        assert out == [] and unmatched(out, 4) == [0, 1, 2, 3]

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 2)])
    def test_cost_not_2d_is_dimension_error(self, shape):
        with pytest.raises(DimensionError):
            M.hungarian_assign(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_is_numeric_error(self, bad):
        c = np.zeros((3, 2))
        c[1, 0] = bad
        with pytest.raises(NumericError):
            M.hungarian_assign(c)

    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_costs())
    def test_equals_lexicographic_scan(self, c):
        out = M.hungarian_assign(c)
        pairs, free = lexicographic_scan(c)
        assert out == pairs
        assert unmatched(out, c.shape[0]) == free

    def test_strict_optimum_skips_the_scan(self, monkeypatch):
        scans = []
        scan = M._lexicographic_pairs

        def counting(cost, limit):
            scans.append(cost.shape)
            return scan(cost, limit)

        monkeypatch.setattr(M, "_lexicographic_pairs", counting)
        shared = np.random.default_rng(12).standard_normal((100, 6))   # two share prediction 60
        distinct = shared.copy()
        distinct[[3, 17, 29, 41, 58, 90], range(6)] -= 5.0
        # a strict optimum is certified from its one solve, whether or not
        # the cheapest predictions are distinct
        for c in (distinct, shared):
            out = M.hungarian_assign(c)
            assert scans == []
            assert (out, unmatched(out, c.shape[0])) == lexicographic_scan(c)


class TestSolver:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(tie_heavy_costs(), paper_kernel_costs()))
    def test_optimum_duals_and_certificate(self, c):
        n_pred, n_gt = c.shape
        if n_gt == 0:
            return
        sol = M.solve_assignment(c)
        preds, u = np.array(sol.preds), np.array(sol.u)
        v = np.zeros(n_pred)
        v[sol.keep] = sol.v
        assert len(set(sol.preds)) == n_gt
        best = sol.total()
        ref = scipy_min(c)
        assert abs(best - ref) <= 1e-9 * max(1.0, abs(ref))

        # dual feasibility on the full matrix and complementary slackness
        scale = max(1.0, float(np.abs(c).max()))
        reduced = c.T - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-12 * scale
        assert np.abs(reduced[np.arange(n_gt), preds]).max() <= 1e-12 * scale
        assert (v <= 0).all()
        unmatched = np.ones(n_pred, dtype=bool)
        unmatched[preds] = False
        assert (v[unmatched] == 0).all()

        # a certified optimum is strict: forbidding any one of its pairs costs more
        tol = 1e-9 * max(1.0, abs(best))
        if M.dual_certificate(sol, tol):
            for g, p in enumerate(preds):
                forbidden = c.copy()
                forbidden[p, g] = np.inf
                alt = scipy_min(forbidden)
                assert alt is None or alt > best + tol

    def test_tie_is_not_certified(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 5.0]])
        assert not M.dual_certificate(M.solve_assignment(c), 1e-9)


class TestSupervisionGrid:
    def test_area_pool_hand_case(self):
        m = np.array([[1, 1, 0, 0],
                      [1, 0, 0, 0],
                      [0, 0, 1, 1],
                      [0, 1, 1, 1]], dtype=bool)
        out = M.area_pool(m, (2, 2))
        assert out.dtype == np.float32
        assert out.tolist() == [0.75, 0.0, 0.25, 1.0]

    @staticmethod
    def _mean_pool(masks, grid):
        *lead, h, w = masks.shape
        gh, gw = grid
        blocks = masks.reshape(*lead, gh, h // gh, gw, w // gw)
        return blocks.mean(axis=(-3, -1), dtype=np.float32).reshape(*lead, gh * gw)

    def test_area_pool_is_the_float32_mean_on_every_supervision_grid(self):
        # every grid supervision_grid gives on a 1..64 px image, each axis
        # on its own, plus odd shapes: the bytes of blocks.mean(dtype=float32)
        rng = np.random.default_rng(23)
        cases = []
        for size in range(1, 65):
            axes = set()
            for n in range(1, size + 1):
                try:
                    axes.add(M.supervision_grid((n,), size)[0])
                except ContractError:
                    pass
            cases += [((3, size, size), (gh, gw)) for gh in axes for gw in axes]
        cases += [((2, 3, 15, 10), (5, 2)), ((7, 3), (1, 3)), ((12, 12), (4, 3)),
                  ((0, 8, 8), (4, 4)), ((1, 64, 64), (1, 1)), ((2, 21, 35), (3, 5))]
        for shape, grid in cases:
            for p in (0.0, 0.3, 1.0):
                masks = rng.random(shape) < p
                out = M.area_pool(masks, grid)
                assert out.dtype == np.float32
                assert out.tobytes() == self._mean_pool(masks, grid).tobytes(), (shape, grid, p)

    @pytest.mark.parametrize("mask_hw,size,grid", [
        ((16, 16), 64, (32, 32)), ((4, 4), 8, (8, 8)), ((8, 8), 8, (8, 8)), ((2, 2), 16, (4, 4)),
    ])
    def test_grid_is_twice_the_mask_grid_capped_at_the_image(self, mask_hw, size, grid):
        assert M.supervision_grid(mask_hw, size) == grid

    def test_pooled_semantic_one_hots_sum_to_one(self):
        from knet.data import SceneSpec, generate_sample

        spec = SceneSpec(seed=3, size=64, n_max=6, size_range=(5.0, 15.0))
        for i in range(4):
            gt = generate_sample(spec, i)
            # panoptic mode pools only the stuff classes: the instance
            # masks cover the rest of each cell
            things = M.area_pool(np.any([m for _, m in gt.instances], axis=0), (32, 32))
            for mode, raster, covered in [("panoptic", gt.semantic, things),
                                          ("semantic", gt.semantic, 0.0),
                                          ("instance", M.aux_semantic_map(gt), 0.0)]:
                ids = ModelConfig(mode=mode, image_size=64).semantic_class_ids
                shares = M.class_fractions(raster[None], ids, (32, 32))
                assert shares.shape == (1, len(ids), 32 * 32)
                assert np.array_equal(shares.sum(axis=1) + covered, np.ones((1, 32 * 32)))
                assert set(np.unique(shares * 4)) <= {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_grid_must_divide_the_image(self):
        rng = np.random.default_rng(17)
        sem = np.full((8, 8), 101, dtype=np.int64)
        stage = _fake_stage(rng, 1, 3, 2, 3)  # 3x3 masks: a 6x6 grid on an 8-px image
        with pytest.raises(ContractError, match="does not divide"):
            M.set_prediction_loss([stage], [FakeGt([], sem)], _layout("panoptic", n_ins=2))


class FakeGt:
    def __init__(self, instances, semantic):
        self.instances = instances
        self.semantic = semantic


def _fake_stage(rng, b, n, k_cls, hw_side, with_classes=True):
    from knet.head import StageOutput

    return StageOutput(
        kernels=Tensor(rng.standard_normal((b, n, 4)).astype(np.float32)),
        mask_logits=Tensor(rng.standard_normal((b, n, hw_side, hw_side)).astype(np.float32)),
        class_logits=Tensor(rng.standard_normal((b, n, k_cls)).astype(np.float32)) if with_classes else None,
    )


def _layout(mode, n_ins, size=8):
    return ModelConfig(
        mode=mode, image_size=size, num_instance_kernels=n_ins,
        thing_class_ids=[1, 2], stuff_class_ids=[101],
    )


class TestSetPredictionLoss:
    def test_decomposition_identity(self):
        # each logged term is exactly the sum of its per-stage values (plus
        # the auxiliary semantic loss in instance mode), and total is the graph's
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:5, 2:5] = True
        sem = np.full((8, 8), 101, dtype=np.int64)
        sem[mask] = 1
        gt = FakeGt([(1, mask)], sem)
        w = M.LOSS_WEIGHTS
        for mode in ("semantic", "instance", "panoptic"):
            rng = np.random.default_rng(10)
            n_rows = 4 if mode == "panoptic" else 3
            stages = [_fake_stage(rng, 1, n_rows, 2, 4, with_classes=mode != "semantic")
                      for _ in range(3)]
            layout = _layout(mode, n_ins=0 if mode == "semantic" else 3)
            sem_logits = Tensor(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
            total, bd = M.set_prediction_loss(stages, [gt], layout, semantic_logits=sem_logits)
            recon = (w["cls"] * bd.cls + w["ce"] * bd.ce + w["dice"] * bd.dice
                     + w["seg"] * bd.seg)
            assert abs(bd.total - recon) < 1e-6, mode
            assert bd.total == float(total.data), mode
            assert len(bd.per_stage) == 3, mode
            aux = 0.0
            if mode == "instance":
                # background + both thing classes, on the 8x8 grid of the 4x4 masks
                shares = M.class_fractions(M.aux_semantic_map(gt)[None], [0, 1, 2], (8, 8))
                up = T.reshape(T.bilinear_upsample(sem_logits, 8, 8), (1, 3, 64))
                aux = float(M.semantic_loss(up, shares).data)
                assert aux > 0.0
            for key in ("cls", "ce", "dice"):
                assert getattr(bd, key) == sum(row[key] for row in bd.per_stage), (mode, key)
            assert bd.seg == sum(row["seg"] for row in bd.per_stage) + aux, mode

    @pytest.mark.parametrize("mode, pooled", [
        ("semantic", [(1, 3, 8, 8)]), ("instance", [(1, 8, 8), (1, 3, 8, 8)]),
    ])
    def test_instance_masks_are_pooled_only_where_matched(self, mode, pooled, monkeypatch):
        # semantic mode matches nothing, so only its class shares are pooled
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:5, 2:5] = True
        sem = np.full((8, 8), 101, dtype=np.int64)
        sem[mask] = 1
        calls = []
        area_pool = M.area_pool

        def spy(masks, grid):
            calls.append(masks.shape)
            return area_pool(masks, grid)

        monkeypatch.setattr(M, "area_pool", spy)
        stages = [_fake_stage(np.random.default_rng(10), 1, 3, 2, 4,
                              with_classes=mode != "semantic")]
        M.set_prediction_loss(stages, [FakeGt([(1, mask)], sem)],
                              _layout(mode, n_ins=0 if mode == "semantic" else 3))
        assert calls == pooled

    def test_zero_gt_only_focal_negatives(self):
        rng = np.random.default_rng(11)
        sem = np.full((8, 8), 101, dtype=np.int64)
        gt = FakeGt([], sem)
        stages = [_fake_stage(rng, 1, 3, 2, 4)]
        layout = _layout("instance", n_ins=3)
        total, bd = M.set_prediction_loss(stages, [gt], layout)
        assert bd.ce == 0.0 and bd.dice == 0.0 and bd.seg == 0.0
        assert bd.cls > 0.0

    def test_perfect_prediction_small_loss(self):
        rng = np.random.default_rng(12)
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:4, 1:4] = True
        sem = np.full((8, 8), 101, dtype=np.int64)
        sem[mask] = 1
        gt = FakeGt([(1, mask)], sem)
        stage = _fake_stage(rng, 1, 2, 2, 8)
        stage.mask_logits.data[0, 0] = np.where(mask, 40.0, -40.0)
        stage.mask_logits.data[0, 1] = -40.0
        stage.class_logits.data[0, 0] = np.array([40.0, -40.0])
        stage.class_logits.data[0, 1] = np.array([-40.0, -40.0])
        layout = _layout("instance", n_ins=2)
        total, bd = M.set_prediction_loss([stage], [gt], layout)
        assert bd.total < 0.01

    def test_stage_assignments_independent(self):
        rng = np.random.default_rng(13)
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:4, 0:4] = True
        sem = np.full((8, 8), 101, dtype=np.int64)
        sem[mask] = 2
        gt = FakeGt([(2, mask)], sem)
        s1 = _fake_stage(rng, 1, 3, 2, 8)
        s2 = _fake_stage(rng, 1, 3, 2, 8)
        layout = _layout("instance", n_ins=3)
        _, bd_a = M.set_prediction_loss([s1, s2], [gt], layout)
        s2b = _fake_stage(rng, 1, 3, 2, 8)  # different stage-2 predictions
        _, bd_b = M.set_prediction_loss([s1, s2b], [gt], layout)
        assert bd_a.per_stage[0] == bd_b.per_stage[0]

    def test_hand_assembled_single_stage(self, f64):
        rng = np.random.default_rng(14)
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2, :2] = True
        sem = np.full((4, 4), 101, dtype=np.int64)
        sem[mask] = 1
        gt = FakeGt([(1, mask)], sem)
        stage = _fake_stage(rng, 1, 2, 2, 4)
        layout = ModelConfig(
            mode="instance", image_size=4, num_instance_kernels=2,
            thing_class_ids=[1, 2], stuff_class_ids=[],
        )
        w = M.LOSS_WEIGHTS
        total, bd = M.set_prediction_loss([stage], [gt], layout)

        # recompute by hand from the parts
        logits = stage.mask_logits.data.reshape(2, 16)
        probs_cls = 1.0 / (1.0 + np.exp(-stage.class_logits.data[0]))
        cost = M.matching_cost(probs_cls, logits, np.array([0]), mask.reshape(1, -1).astype(np.float64))
        (p, _), = M.hungarian_assign(cost)
        targets = np.zeros((1, 2, 2))
        targets[0, p, 0] = 1.0
        cls = float(M.focal_loss(T.sigmoid(stage.class_logits), targets).data)
        ce = float(M.mask_ce_loss(Tensor(logits[p]), mask.reshape(-1).astype(float)).data)
        dice = float(M.dice_loss(T.sigmoid(Tensor(logits[p])), mask.reshape(-1).astype(float)).data)
        expected = w["cls"] * cls + w["ce"] * ce + w["dice"] * dice
        assert abs(bd.total - expected) < 1e-5

    def test_semantic_mode(self):
        rng = np.random.default_rng(15)
        sem = np.full((8, 8), 101, dtype=np.int64)
        sem[:4] = 1
        gt = FakeGt([], sem)
        stages = [_fake_stage(rng, 1, 3, 2, 4, with_classes=False) for _ in range(2)]
        layout = _layout("semantic", n_ins=0)
        total, bd = M.set_prediction_loss(stages, [gt], layout)
        assert bd.cls == 0.0 and bd.seg > 0.0
        assert total.data > 0.0

    def test_loss_is_differentiable(self, f64):
        rng = np.random.default_rng(16)
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2, :2] = True
        sem = np.full((4, 4), 101, dtype=np.int64)
        sem[mask] = 1
        gt = FakeGt([(1, mask)], sem)
        layout = _layout("panoptic", n_ins=2, size=4)

        base = rng.standard_normal((1, 3, 4, 4))
        cls_base = rng.standard_normal((1, 2, 2))

        from knet.head import StageOutput

        def loss_fn(t):
            stage = StageOutput(
                kernels=Tensor(np.zeros((1, 3, 4))),
                mask_logits=t,
                class_logits=Tensor(cls_base),
            )
            total, _ = M.set_prediction_loss([stage], [gt], layout)
            return total

        x = Tensor(base, requires_grad=True)
        assert T.grad_check(loss_fn, x) < 1e-4

    def test_stride_two_hand_assembly(self, f64):
        # 64-px image, 16x16 mask grid: matching and every loss term run on
        # the x2-upsampled 32x32 logits against 2x2 area-pooled targets
        rng = np.random.default_rng(18)
        size, n_ins = 64, 4
        a = np.zeros((size, size), dtype=bool)
        a[3:21, 5:30] = True
        b = np.zeros((size, size), dtype=bool)
        b[30:51, 17:44] = True
        b &= ~a
        sem = np.full((size, size), 101, dtype=np.int64)
        sem[a] = 1
        sem[b] = 2
        gt = FakeGt([(1, a), (2, b)], sem)
        stage = _fake_stage(rng, 1, n_ins + 1, 2, 16)
        layout = _layout("panoptic", n_ins=n_ins, size=size)
        w = M.LOSS_WEIGHTS
        total, bd = M.set_prediction_loss([stage], [gt], layout)

        def pool2(m):  # mean of the four phases of each 2x2 block
            m = m.astype(np.float64)
            return ((m[0::2, 0::2] + m[0::2, 1::2] + m[1::2, 0::2] + m[1::2, 1::2]) / 4).ravel()

        up = T.bilinear_resize_array(stage.mask_logits.data[0], 32, 32).reshape(n_ins + 1, -1)
        targets = np.stack([pool2(a), pool2(b)])
        probs_cls = 1.0 / (1.0 + np.exp(-stage.class_logits.data[0, :n_ins]))
        cost = M.matching_cost(probs_cls, up[:n_ins], np.array([0, 1]), targets)
        pairs = M.hungarian_assign(cost)
        focal_targets = np.zeros((1, n_ins, 2))
        for p, g in pairs:
            focal_targets[0, p, g] = 1.0
        cls = float(M.focal_loss(T.sigmoid(Tensor(stage.class_logits.data[:, :n_ins])),
                                 focal_targets).data)
        rows = Tensor(up[[p for p, _ in pairs]])
        gts = targets[[g for _, g in pairs]]
        ce = float(T.reduce_mean(M.mask_ce_loss(rows, gts)).data)
        dice = float(T.reduce_mean(M.dice_loss(T.sigmoid(rows), gts)).data)
        stuff = Tensor(up[n_ins:])
        stuff_target = pool2(sem == 101)[None]
        seg = float(M.mask_ce_loss(stuff, stuff_target).data[0]
                    + M.dice_loss(T.sigmoid(stuff), stuff_target).data[0])
        expected = w["cls"] * cls + w["ce"] * ce + w["dice"] * dice + w["seg"] * seg
        assert len(pairs) == 2
        assert abs(bd.total - expected) < 1e-5
        assert abs(bd.seg - seg) < 1e-5
