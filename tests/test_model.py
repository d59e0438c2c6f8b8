import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knet import matching as M
from knet import model as MO
from knet import tensor as T
from knet.data import SceneSpec, generate_sample
from knet.errors import ConfigError, ContractError, DimensionError, NumericError
from knet.head import SIGMOID, StageOutput, mask_activation
from knet.matching import supervision_grid
from knet.metrics import PanopticMap, SegmentInfo
from knet.tensor import Tensor


@pytest.fixture
def f64():
    with T.precision("f64"):
        yield


def tiny_cfg(mode="panoptic", **kw):
    base = dict(mode=mode, image_size=16, channels=8, num_instance_kernels=3,
                stages=1, heads=2, min_area=1, keep_fraction=0.0, score_floor=0.3)
    base.update(kw)
    return MO.ModelConfig(**base)


class TestModelConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            MO.ModelConfig(mode="boxes?")

    def test_rejects_negative_stages(self):
        with pytest.raises(ConfigError):
            MO.ModelConfig(stages=-1)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            MO.ModelConfig(image_size=30)

    def test_instance_mode_needs_instance_kernels(self):
        with pytest.raises(ConfigError, match="instance kernel"):
            tiny_cfg("instance", num_instance_kernels=0)

    @pytest.mark.parametrize("mode", ["panoptic", "semantic"])
    def test_zero_instance_kernels_allowed_outside_instance_mode(self, mode):
        model = MO.SegmentationModel(tiny_cfg(mode, num_instance_kernels=0))
        with T.no_grad():
            stages = model.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert len(stages) == 2

    @pytest.mark.parametrize("mode", ["panoptic", "instance"])
    def test_thing_classes_needed_outside_semantic_mode(self, mode):
        with pytest.raises(ConfigError, match="thing class"):
            tiny_cfg(mode, thing_class_ids=[])

    def test_semantic_mode_without_thing_classes(self):
        assert tiny_cfg("semantic", thing_class_ids=[]).semantic_class_ids == [101, 102]

    def test_semantic_mode_needs_a_class(self):
        # zero semantic kernels would build, then fail in the first forward
        with pytest.raises(ConfigError, match="at least one class"):
            tiny_cfg("semantic", thing_class_ids=[], stuff_class_ids=[])

    @pytest.mark.parametrize("mode", MO.MODES)
    @pytest.mark.parametrize("things, stuff", [([1, 2, 1], [101]), ([1, 2], [101, 101]),
                                               ([1, 2], [2, 101])],
                             ids=["duplicate-thing", "duplicate-stuff", "shared"])
    def test_class_ids_must_be_distinct(self, mode, things, stuff):
        with pytest.raises(ConfigError, match="distinct"):
            tiny_cfg(mode, thing_class_ids=things, stuff_class_ids=stuff)

    def test_semantic_kernel_count_is_class_count(self):
        cfg = tiny_cfg("semantic")
        assert cfg.num_semantic_kernels == len(cfg.thing_class_ids) + len(cfg.stuff_class_ids)

    def test_instance_aux_classes_include_background(self):
        cfg = tiny_cfg("instance")
        assert cfg.semantic_class_ids[0] == MO.BACKGROUND_ID

    def test_round_trip_dict(self):
        cfg = tiny_cfg()
        assert MO.ModelConfig.from_dict(cfg.to_dict()) == cfg


# sha256 prefix of the newline-joined parameter keys, in order.  The keys
# name the tensors of a checkpoint, so a change here is a format change.
PARAM_KEY_DIGESTS = {
    ("semantic", 0, True, True): "bc513c39ee70e8f9",
    ("semantic", 0, True, False): "bc513c39ee70e8f9",
    ("semantic", 0, False, True): "bc513c39ee70e8f9",
    ("semantic", 0, False, False): "bc513c39ee70e8f9",
    ("semantic", 1, True, True): "d0feba4c9e775b8f",
    ("semantic", 1, True, False): "d20924570579304a",
    ("semantic", 1, False, True): "b7a85ddff5749c43",
    ("semantic", 1, False, False): "12f03d31013a5ba0",
    ("semantic", 3, True, True): "9edcb22582fcdec8",
    ("semantic", 3, True, False): "030c592aba81d242",
    ("semantic", 3, False, True): "aa6f7d0dee753a83",
    ("semantic", 3, False, False): "d9000a25f0eb7602",
    ("instance", 0, True, True): "6adba518ca6676a8",
    ("instance", 0, True, False): "6adba518ca6676a8",
    ("instance", 0, False, True): "6adba518ca6676a8",
    ("instance", 0, False, False): "6adba518ca6676a8",
    ("instance", 1, True, True): "418867d7baefae52",
    ("instance", 1, True, False): "398997a34703dbc2",
    ("instance", 1, False, True): "c4cc08b7eedf684a",
    ("instance", 1, False, False): "24426e33e24c9b0b",
    ("instance", 3, True, True): "7e327eb3ecd45689",
    ("instance", 3, True, False): "9af436f958f5c228",
    ("instance", 3, False, True): "588403d79a0bb2e4",
    ("instance", 3, False, False): "02cf5d4dffa7a87c",
    ("panoptic", 0, True, True): "6adba518ca6676a8",
    ("panoptic", 0, True, False): "6adba518ca6676a8",
    ("panoptic", 0, False, True): "6adba518ca6676a8",
    ("panoptic", 0, False, False): "6adba518ca6676a8",
    ("panoptic", 1, True, True): "418867d7baefae52",
    ("panoptic", 1, True, False): "398997a34703dbc2",
    ("panoptic", 1, False, True): "c4cc08b7eedf684a",
    ("panoptic", 1, False, False): "24426e33e24c9b0b",
    ("panoptic", 3, True, True): "7e327eb3ecd45689",
    ("panoptic", 3, True, False): "9af436f958f5c228",
    ("panoptic", 3, False, True): "588403d79a0bb2e4",
    ("panoptic", 3, False, False): "02cf5d4dffa7a87c",
}


@pytest.mark.parametrize("mode,stages,aku,ki", sorted(PARAM_KEY_DIGESTS))
def test_parameter_keys_golden(mode, stages, aku, ki):
    cfg = MO.ModelConfig(mode=mode, image_size=16, channels=8, num_instance_kernels=3,
                         stages=stages, heads=2, aku=aku, ki=ki)
    keys = list(MO.SegmentationModel(cfg).params())
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
    assert digest == PARAM_KEY_DIGESTS[(mode, stages, aku, ki)]


class TestBackbone:
    def test_output_shapes(self):
        cfg = tiny_cfg()
        bb = MO.BackboneLite(cfg, np.random.default_rng(0))
        f_ins, f_sem = bb(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert f_ins.shape == (2, 8, 4, 4)
        assert f_sem.shape == (2, 8, 4, 4)

    def test_zero_image_zero_convs_leaves_pe(self):
        cfg = tiny_cfg()
        bb = MO.BackboneLite(cfg, np.random.default_rng(1))
        for conv in (bb.stem1, bb.stem2):
            conv.weight.data = np.zeros_like(conv.weight.data)
            conv.bias.data = np.zeros_like(conv.bias.data)
        x = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32))
        stem = T.relu(bb.stem2(T.relu(bb.stem1(x))))
        assert np.array_equal(stem.data, np.zeros_like(stem.data))
        f_ins, _ = bb(x)
        assert f_ins.shape == (1, 8, 4, 4)  # PE pattern propagated through branches

    def test_indivisible_input_rejected(self):
        cfg = tiny_cfg()
        bb = MO.BackboneLite(cfg, np.random.default_rng(2))
        with pytest.raises(ConfigError):
            bb(Tensor(np.zeros((1, 3, 18, 18), dtype=np.float32)))

    @pytest.mark.parametrize("shape", [(1, 16, 16), (16, 16), (1, 1, 3, 16, 16), (1, 1, 16, 16)])
    def test_input_must_be_batched_rgb(self, shape):
        bb = MO.BackboneLite(tiny_cfg(), np.random.default_rng(2))
        with pytest.raises(DimensionError, match=r"\(B, 3, H, W\)"):
            bb(Tensor(np.zeros(shape, dtype=np.float32)))

    def test_grad_through_backbone(self, f64):
        cfg = tiny_cfg(image_size=8)
        bb = MO.BackboneLite(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        coef_a = Tensor(rng.standard_normal((1, 8, 2, 2)))
        coef_b = Tensor(rng.standard_normal((1, 8, 2, 2)))
        x = Tensor(rng.standard_normal((1, 3, 8, 8)), requires_grad=True)

        def loss(t):
            fa, fb = bb(t)
            return T.reduce_sum(T.mul(fa, coef_a)) + T.reduce_sum(T.mul(fb, coef_b))

        assert T.grad_check(loss, x) < 1e-5


class TestInitialPredictions:
    def test_zero_kernels_uniform_masks(self):
        model = MO.SegmentationModel(tiny_cfg("instance"), seed=0)
        model.kernels.instance.data = np.zeros_like(model.kernels.instance.data)
        stages = model.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert np.array_equal(stages[0].mask_logits.data, np.zeros_like(stages[0].mask_logits.data))

    def test_semantic_softmax_sums_to_one(self):
        model = MO.SegmentationModel(tiny_cfg("semantic"), seed=1)
        rng = np.random.default_rng(0)
        stages = model.forward(rng.uniform(size=(1, 3, 16, 16)).astype(np.float32))
        probs = mask_activation(stages[0].mask_logits, stages[0].activation).data
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_matches_predict_masks_oracle(self):
        from knet.head import predict_masks

        model = MO.SegmentationModel(tiny_cfg("instance"), seed=2)
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(1, 3, 16, 16)).astype(np.float32)
        stages = model.forward(img)
        f_ins, _ = model.backbone(Tensor(img))
        k = T.broadcast_to(T.reshape(model.kernels.instance, (1, 3, 8)), (1, 3, 8))
        expected = predict_masks(k, f_ins)
        assert np.array_equal(stages[0].mask_logits.data, expected.data)


class TestPanopticConcat:
    def test_row_bookkeeping(self):
        rng = np.random.default_rng(0)
        m_ins = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        m_sem = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        k_ins = Tensor(rng.standard_normal((1, 2, 8)).astype(np.float32))
        k_sem = Tensor(rng.standard_normal((1, 2, 8)).astype(np.float32))
        f_i = Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32))
        f_s = Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32))
        m0, k0, feats = MO.build_panoptic_inputs(m_ins, m_sem, k_ins, k_sem, f_i, f_s)
        assert m0.shape == (1, 4, 4, 4)
        assert k0.shape == (1, 4, 8)
        # instance rows, then the stuff rows, are copied bitwise
        assert np.array_equal(m0.data[:, :2], m_ins.data)
        assert np.array_equal(m0.data[:, 2], m_sem.data[:, 0])
        assert np.array_equal(m0.data[:, 3], m_sem.data[:, 1])
        assert np.array_equal(k0.data[:, :2], k_ins.data)
        assert np.array_equal(k0.data[:, 2:], k_sem.data)
        assert np.allclose(feats.data, f_i.data + f_s.data, atol=1e-6)

    def test_feature_sum_matches_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        _, _, feats = MO.build_panoptic_inputs(
            Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32)),
            Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32)),
            Tensor(np.zeros((1, 1, 4), dtype=np.float32)),
            Tensor(np.zeros((1, 1, 4), dtype=np.float32)),
            Tensor(a), Tensor(b),
        )
        ref = np.empty_like(a)
        for i in np.ndindex(a.shape):
            ref[i] = a[i] + b[i]
        assert np.array_equal(feats.data, ref)


class TestForward:
    @pytest.mark.parametrize("mode", ["semantic", "instance", "panoptic"])
    def test_deterministic_repeat(self, mode):
        model = MO.SegmentationModel(tiny_cfg(mode), seed=3)
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(2, 3, 16, 16)).astype(np.float32)
        with T.no_grad():
            a = model.forward(img)
            b = model.forward(img)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.mask_logits.data, sb.mask_logits.data)

    @pytest.mark.parametrize("stages", [0, 2])
    @pytest.mark.parametrize("mode", ["semantic", "instance", "panoptic"])
    def test_batch_invariant(self, mode, stages):
        # a batch forward gives each image the bytes of its own forward, so
        # evaluate may batch freely; the sizes are ones at which a flat
        # (B*N, C) GEMM rounds differently from per-image GEMMs
        model = MO.SegmentationModel(
            tiny_cfg(mode, image_size=32, channels=32, num_instance_kernels=13, stages=stages),
            seed=9)
        imgs = np.random.default_rng(10).uniform(size=(5, 3, 32, 32)).astype(np.float32)
        with T.no_grad():
            batch = model.forward(imgs)
            singles = [model.forward(imgs[i : i + 1]) for i in range(len(imgs))]
        for si, stage in enumerate(batch):
            for name in ("kernels", "mask_logits", "class_logits"):
                got = getattr(stage, name)
                if got is None:
                    assert all(getattr(one[si], name) is None for one in singles)
                    continue
                want = np.concatenate([getattr(one[si], name).data for one in singles])
                assert got.data.tobytes() == want.tobytes(), (si, name)
            assert all(one[si].activation == stage.activation for one in singles)

    def test_semantic_has_class_count_masks(self):
        model = MO.SegmentationModel(tiny_cfg("semantic"), seed=4)
        stages = model.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert stages[-1].mask_logits.shape[1] == 5
        assert stages[-1].class_logits is None

    def test_panoptic_kernel_count(self):
        model = MO.SegmentationModel(tiny_cfg("panoptic"), seed=5)
        stages = model.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert stages[-1].mask_logits.shape[1] == 3 + 2

    def test_stage_count_and_zero_stage_baseline(self):
        model = MO.SegmentationModel(tiny_cfg("panoptic", stages=2), seed=6)
        stages = model.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert len(stages) == 3
        static = MO.SegmentationModel(tiny_cfg("panoptic", stages=0), seed=6)
        stages0 = static.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert len(stages0) == 1
        assert stages0[0].class_logits is not None

    def test_training_returns_loss(self):
        spec = SceneSpec(seed=20, size=16, n_max=2, size_range=(5.0, 8.0))
        gts = [generate_sample(spec, i) for i in range(2)]
        imgs = np.stack([g.image for g in gts])
        for mode in ("semantic", "instance", "panoptic"):
            model = MO.SegmentationModel(tiny_cfg(mode), seed=7)
            stages, loss, bd = model.forward(imgs, gts)
            assert np.isfinite(loss.data)
            assert bd.total > 0
            w = MO.LossWeights()
            recon = (w.lam_cls * bd.cls + w.lam_ce * bd.ce
                     + w.lam_dice * bd.dice + w.lam_seg * bd.seg)
            assert abs(bd.total - recon) < 1e-5

    @pytest.mark.parametrize("mode", MO.MODES)
    @pytest.mark.parametrize("n_gts", [1, 3])
    def test_ground_truth_count_must_match_batch(self, mode, n_gts):
        spec = SceneSpec(seed=20, size=16, n_max=2, size_range=(5.0, 8.0))
        gts = [generate_sample(spec, i) for i in range(n_gts)]
        imgs = np.stack([generate_sample(spec, i).image for i in range(2)])
        model = MO.SegmentationModel(tiny_cfg(mode), seed=7)
        with pytest.raises(DimensionError, match=f"{n_gts} ground truths for a batch of 2"):
            model.forward(imgs, gts)

    @pytest.mark.parametrize("mode", MO.MODES)
    def test_unknown_thing_class_is_a_config_error(self, mode):
        # the public forward reads no dataset, so no read_fitting check guards it
        spec = SceneSpec(seed=20, size=16, n_max=2, size_range=(5.0, 8.0))
        gts = [generate_sample(spec, i) for i in (1, 4)]    # sample 4 holds a triangle
        model = MO.SegmentationModel(tiny_cfg(mode, thing_class_ids=[1, 2]), seed=7)
        with pytest.raises(ConfigError, match="sample 1: thing class 3 is not in "
                                              "model.thing_class_ids"):
            model.forward(np.stack([g.image for g in gts]), gts)

    @pytest.mark.parametrize("mode,stages,aku,ki", sorted(PARAM_KEY_DIGESTS))
    def test_loss_backward_populates_grads(self, mode, stages, aku, ki):
        # every mode builds only what its loss trains: no parameter is dead
        spec = SceneSpec(seed=21, size=16, n_max=2, size_range=(5.0, 8.0))
        gts = [generate_sample(spec, 0)]
        model = MO.SegmentationModel(tiny_cfg(mode, stages=stages, aku=aku, ki=ki), seed=8)
        _, loss, _ = model.forward(gts[0].image[None], gts)
        loss.backward()
        dead = [key for key, p in model.params().items() if p.grad is None]
        assert dead == []

    def test_semantic_model_ignores_instance_kernel_count(self):
        # semantic mode draws nothing for instance kernels, so their count
        # changes neither the init nor the loss
        spec = SceneSpec(seed=21, size=16, n_max=2, size_range=(5.0, 8.0))
        gts = [generate_sample(spec, i) for i in range(2)]
        imgs = np.stack([g.image for g in gts])
        models = [MO.SegmentationModel(tiny_cfg("semantic", num_instance_kernels=n), seed=8)
                  for n in (5, 20)]
        a, b = (m.params() for m in models)
        assert list(a) == list(b)
        assert all(a[k].data.tobytes() == b[k].data.tobytes() for k in a)
        (_, loss_a, bd_a), (_, loss_b, bd_b) = (m.forward(imgs, gts) for m in models)
        assert loss_a.data.tobytes() == loss_b.data.tobytes()
        assert bd_a == bd_b

    def test_every_panoptic_semantic_kernel_row_learns(self):
        # the panoptic semantic set holds only stuff rows, and the stuff
        # loss reaches each of them
        spec = SceneSpec(seed=21, size=16, n_max=2, size_range=(5.0, 8.0))
        gts = [generate_sample(spec, i) for i in range(2)]
        model = MO.SegmentationModel(tiny_cfg("panoptic"), seed=8)
        _, loss, _ = model.forward(np.stack([g.image for g in gts]), gts)
        loss.backward()
        grad = model.params()["kernels.semantic"].grad
        assert (np.abs(grad).sum(axis=1) > 0).all()
        assert grad.shape == (len(model.cfg.stuff_class_ids), model.cfg.channels)

    def _loss_graph(self, mode):
        spec = SceneSpec(seed=21, size=16, n_max=2, size_range=(5.0, 8.0))
        gts = [generate_sample(spec, i) for i in range(2)]
        model = MO.SegmentationModel(tiny_cfg(mode), seed=8)
        _, loss, _ = model.forward(np.stack([g.image for g in gts]), gts)
        seen, stack = {id(loss): loss}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen[id(parent)] = parent
                    stack.append(parent)
        return model, list(seen.values())

    @pytest.mark.parametrize("mode", MO.MODES)
    def test_backward_keeps_gradients_on_leaves_only(self, mode):
        _, nodes = self._loss_graph(mode)
        loss = nodes[0]  # the walk starts at the loss
        loss.backward()
        assert all(t.grad is None for t in nodes if t._backward is not None)
        leaves = [t for t in nodes if t._backward is None]
        assert leaves and all(t.grad is not None for t in leaves)
        # a second walk of the same graph adds the same gradient once more
        first = [t.grad.copy() for t in leaves]
        loss.backward()
        for t, g in zip(leaves, first):
            scale = float(np.abs(g).max())
            np.testing.assert_allclose(t.grad, 2.0 * g, rtol=0, atol=1e-6 * scale)

    @pytest.mark.parametrize("mode", MO.MODES)
    def test_loss_graph_leaves_are_parameters(self, mode):
        # constants never enter the graph: every leaf is a trainable parameter
        model, nodes = self._loss_graph(mode)
        leaves = [t for t in nodes if not t._parents]
        assert leaves and all(t.requires_grad for t in leaves)
        assert {id(t) for t in leaves} <= {id(p) for p in model.params().values()}

    @pytest.mark.parametrize("mode, count", [
        ("semantic", 143), ("instance", 201), ("panoptic", 212),
    ])
    def test_loss_graph_node_count(self, mode, count):
        # pins the graph size: a change here adds or removes autograd nodes per step
        _, nodes = self._loss_graph(mode)
        assert len(nodes) == count

    @pytest.mark.parametrize("mode, nbytes", [
        ("semantic", 83316), ("instance", 80200), ("panoptic", 85644),
    ])
    def test_loss_graph_bytes(self, mode, nbytes):
        # pins the graph's memory: the bytes of every node's forward value
        _, nodes = self._loss_graph(mode)
        assert sum(t.data.nbytes for t in nodes) == nbytes

    @staticmethod
    def _closure_arrays(fn):
        """The arrays a backward closure holds: its cells' arrays and tensor
        values, through the functions it calls by closure too."""
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, Tensor):
                yield value.data
            elif inspect.isfunction(value):
                yield from TestForward._closure_arrays(value)

    @pytest.mark.parametrize("mode, nbytes", [
        ("semantic", 80156), ("instance", 86484), ("panoptic", 95692),
    ])
    def test_loss_graph_retained_bytes(self, mode, nbytes):
        # pins what the graph holds until backward: every node's value and
        # every array its closures capture, each buffer counted once
        _, nodes = self._loss_graph(mode)
        arrays = [t.data for t in nodes]
        arrays += [a for t in nodes if t._backward for a in self._closure_arrays(t._backward)]
        buffers = {}
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers[id(a)] = a
        assert sum(a.nbytes for a in buffers.values()) == nbytes

    @pytest.mark.parametrize("mode", MO.MODES)
    def test_conv_and_layer_norm_keep_no_copies(self, mode):
        # a conv rebuilds its columns and a LayerNorm its centered rows from
        # the input in backward: neither closure holds an array of that size
        _, nodes = self._loss_graph(mode)
        ops = set()
        for t in nodes:
            op = t._backward and t._backward.__qualname__.split(".")[0]
            if op not in ("conv2d", "layer_norm"):
                continue
            ops.add(op)
            cells = dict(zip(t._backward.__code__.co_freevars,
                             (c.cell_contents for c in t._backward.__closure__)))
            x = cells["x"].data
            sizes = {x.size}
            if op == "conv2d":
                sizes.add(x.shape[0] * cells["w"].data[0].size * t.shape[2] * t.shape[3])
            assert not [a.shape for a in self._closure_arrays(t._backward)
                        if a.size in sizes and not np.shares_memory(a, x)], op
        assert ops == {"conv2d", "layer_norm"}

    @pytest.mark.parametrize("mode", ["instance", "panoptic"])
    def test_loss_graph_holds_no_full_supervision_grid(self, mode):
        # matched and stuff rows are gathered before they are upsampled, so
        # no node holds every kernel row on the supervision grid
        model, nodes = self._loss_graph(mode)
        cfg = model.cfg
        n = cfg.num_instance_kernels + (len(cfg.stuff_class_ids) if mode == "panoptic" else 0)
        gh, gw = supervision_grid((cfg.image_size // 4,) * 2, cfg.image_size)
        full = {(2, n, gh * gw), (2, n, gh, gw)}
        assert not any(t.shape in full for t in nodes)


class TestBinarizeInstances:
    def _stage(self, cfg, logits, cls_logits):
        return StageOutput(
            kernels=Tensor(np.zeros((1, logits.shape[0], cfg.channels), dtype=np.float32)),
            mask_logits=Tensor(logits[None].astype(np.float32)),
            class_logits=Tensor(cls_logits[None].astype(np.float32)),
            activation=SIGMOID,
        )

    def test_zero_logits_full_image_at_inclusive_threshold(self):
        cfg = tiny_cfg("instance")
        logits = np.zeros((3, 4, 4))
        cls = np.full((3, 3), 5.0)
        out = MO.binarize_instances(self._stage(cfg, logits, cls), cfg)
        assert len(out) == 3
        for _, _, mask in out:
            assert mask.all()  # sigmoid(0) = 0.5 >= 0.5 inclusive

    def test_score_floor_drops_everything(self):
        cfg = tiny_cfg("instance")
        logits = np.zeros((3, 4, 4))
        cls = np.full((3, 3), -9.0)  # probs ~ 1e-4 < 0.3
        out = MO.binarize_instances(self._stage(cfg, logits, cls), cfg)
        assert out == []

    def test_single_confident_kernel(self):
        cfg = tiny_cfg("instance")
        logits = np.full((3, 4, 4), -20.0)
        logits[1, 1:3, 1:3] = 20.0
        cls = np.full((3, 3), -9.0)
        cls[1, 2] = 9.0
        out = MO.binarize_instances(self._stage(cfg, logits, cls), cfg)
        assert len(out) == 1
        class_id, score, mask = out[0]
        assert class_id == cfg.thing_class_ids[2]
        assert score > 0.99
        expected = np.zeros((16, 16), dtype=bool)
        expected[4:12, 4:12] = True
        assert mask.sum() > 0

    @pytest.mark.parametrize("where", ["mask", "class"])
    def test_non_finite_logits_rejected(self, where):
        # a NaN class logit used to give an instance scored nan
        cfg = tiny_cfg("instance")
        logits = np.zeros((3, 4, 4))
        cls = np.full((3, 3), 5.0)
        if where == "mask":
            logits[1, 2, 0] = np.nan
        else:
            cls[1, 2] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            MO.binarize_instances(self._stage(cfg, logits, cls), cfg)

    def test_threshold_sweep_monotone(self):
        cfg = tiny_cfg("instance")
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 4, 4)) * 3
        cls = np.full((3, 3), 5.0)
        stage = self._stage(cfg, logits, cls)
        areas = []
        for thr in (0.3, 0.5, 0.7, 0.9):
            cfg_t = tiny_cfg("instance", mask_threshold=thr)
            masks = MO.binarize_instances(stage, cfg_t)
            areas.append(sum(int(m.sum()) for _, _, m in masks))
        assert all(a >= b for a, b in zip(areas, areas[1:]))


class TestMergePanoptic:
    def _stage(self, cfg, logits, cls_logits):
        return StageOutput(
            kernels=Tensor(np.zeros((1, logits.shape[0], cfg.channels), dtype=np.float32)),
            mask_logits=Tensor(logits[None].astype(np.float32)),
            class_logits=Tensor(cls_logits[None].astype(np.float32)),
            activation=SIGMOID,
        )

    def test_single_stuff_kernel_covers_everything(self):
        cfg = tiny_cfg("panoptic")
        logits = np.full((5, 4, 4), -20.0)
        logits[3] = 20.0  # first stuff row
        cls = np.full((3, 3), -20.0)
        pan = MO.merge_panoptic(self._stage(cfg, logits, cls), cfg)
        assert len(pan.segments) == 1
        seg = pan.segments[0]
        assert not seg.is_thing and seg.class_id == cfg.stuff_class_ids[0]
        assert (pan.segment_ids == seg.id).all()
        pan.validate()

    def test_overlap_goes_to_higher_score(self):
        cfg = tiny_cfg("panoptic")
        logits = np.full((5, 4, 4), -20.0)
        logits[0, :, :2] = 8.0   # thing A on left half
        logits[1, :, 1:3] = 8.0  # thing B overlaps column 1-2
        cls = np.full((3, 3), -20.0)
        cls[0, 0] = 2.197   # sigmoid -> 0.9
        cls[1, 1] = 0.405   # sigmoid -> 0.6
        pan = MO.merge_panoptic(self._stage(cfg, logits, cls), cfg)
        by_class = {s.class_id: s for s in pan.segments}
        a = by_class[cfg.thing_class_ids[0]]
        upscale = 16 // 4
        # overlap column 1-2 belongs to A (score 0.9 beats 0.6)
        col = pan.segment_ids[:, 1 * upscale + 1]
        assert (col == a.id).all()
        pan.validate()

    def test_hand_built_left_thing_right_stuff(self):
        cfg = MO.ModelConfig(mode="panoptic", image_size=16, channels=8,
                             num_instance_kernels=1, stages=1, heads=2,
                             min_area=1, keep_fraction=0.0, score_floor=0.3)
        # stride-4 logits: thing on the left half, sky everywhere (weak),
        # ground absent; after x4 bilinear upsampling the thing/sky argmax
        # boundary falls exactly between output columns 7 and 8
        logits = np.full((3, 4, 4), -20.0)
        logits[0, :, :2] = 20.0
        logits[1] = 3.0
        cls = np.full((1, 3), -20.0)
        cls[0, 1] = 9.0  # sigmoid -> 0.9999, clearly above the sky share
        stage = StageOutput(
            kernels=Tensor(np.zeros((1, 3, 8), dtype=np.float32)),
            mask_logits=Tensor(logits[None].astype(np.float32)),
            class_logits=Tensor(cls[None].astype(np.float32)),
            activation=SIGMOID,
        )
        pan = MO.merge_panoptic(stage, cfg)
        expected = np.full((16, 16), 2, dtype=np.int32)
        expected[:, :8] = 1
        assert np.array_equal(pan.segment_ids, expected)
        assert pan.segments[0].is_thing and pan.segments[0].class_id == cfg.thing_class_ids[1]
        assert not pan.segments[1].is_thing
        assert pan.segments[1].class_id == cfg.stuff_class_ids[0]
        pan.validate()

    def test_table_consistent_with_raster(self):
        cfg = tiny_cfg("panoptic")
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((5, 4, 4)) * 4
        cls = rng.standard_normal((3, 3)) * 4
        pan = MO.merge_panoptic(self._stage(cfg, logits, cls), cfg)
        pan.validate()
        thing_count = sum(s.is_thing for s in pan.segments)
        assert thing_count <= cfg.num_instance_kernels
        stuff_classes = [s.class_id for s in pan.segments if not s.is_thing]
        assert len(stuff_classes) == len(set(stuff_classes))

    @pytest.mark.parametrize("where, value", [
        ("mask", np.nan), ("mask", np.inf), ("class", np.nan), ("class", -np.inf),
    ])
    def test_non_finite_logits_rejected(self, where, value):
        # thing row 1 scores far below the floor: it is never upsampled,
        # but its low-resolution logits are still checked
        cfg = tiny_cfg("panoptic")
        logits = np.zeros((5, 4, 4))
        cls = np.full((3, 3), -20.0)
        if where == "mask":
            logits[1, 2, 3] = value
        else:
            cls[1, 2] = value
        with pytest.raises(NumericError, match="non-finite"):
            MO.merge_panoptic(self._stage(cfg, logits, cls), cfg)

    def test_wrong_mode_rejected(self):
        cfg = tiny_cfg("instance")
        logits = np.zeros((3, 4, 4))
        cls = np.zeros((3, 3))
        with pytest.raises(ContractError):
            MO.merge_panoptic(self._stage(cfg, logits, cls), cfg)


def loop_merge_panoptic(stage, cfg, index=0):
    """The per-candidate loop merge_panoptic replaced, kept as a reference."""
    n_ins = cfg.num_instance_kernels
    _, h, w = stage.mask_logits.data[index].shape
    logits = T.bilinear_resize_array(stage.mask_logits.data[index], 4 * h, 4 * w)
    probs = T.sigmoid_array(logits)
    n_total, out_h, out_w = probs.shape
    cand_class, cand_thing, cand_score, cand_rows = [], [], [], []
    cls_probs = T.sigmoid_array(stage.class_logits.data[index])
    for n in range(n_ins):
        score = float(cls_probs[n].max())
        if score < cfg.score_floor:
            continue
        cand_rows.append(n)
        cand_class.append(cfg.thing_class_ids[int(cls_probs[n].argmax())])
        cand_thing.append(True)
        cand_score.append(score)
    stuff_logits = logits[n_ins:]
    exp = np.exp(stuff_logits - stuff_logits.max(axis=0, keepdims=True))
    share = exp / exp.sum(axis=0, keepdims=True)
    for j, class_id in enumerate(cfg.stuff_class_ids):
        n = n_ins + j
        if n >= n_total:
            break
        region = probs[n] >= cfg.mask_threshold
        score = float(share[j][region].mean()) if region.any() else 0.0
        if score < cfg.score_floor:
            continue
        cand_rows.append(n)
        cand_class.append(class_id)
        cand_thing.append(False)
        cand_score.append(score)
    raster = np.zeros((out_h, out_w), dtype=np.int32)
    if not cand_rows:
        return PanopticMap(raster, [])
    weighted = np.asarray(cand_score)[:, None, None] * probs[cand_rows]
    assign = weighted.argmax(axis=0)
    thresholded = probs[cand_rows] >= cfg.mask_threshold
    deleted = np.zeros(len(cand_rows), dtype=bool)
    for c in range(len(cand_rows)):
        won = assign == c
        surviving = int(np.logical_and(won, thresholded[c]).sum())
        thresh_area = int(thresholded[c].sum())
        frac = surviving / thresh_area if thresh_area else 0.0
        if surviving < cfg.min_area or frac < cfg.keep_fraction:
            deleted[c] = True
    if deleted.any():
        survivors = np.flatnonzero(~deleted)
        orphan = np.isin(assign, np.flatnonzero(deleted))
        if survivors.size:
            w_surv = weighted[survivors] * thresholded[survivors]
            best = w_surv.argmax(axis=0)
            has_claim = thresholded[survivors].any(axis=0)
            new_assign = np.where(has_claim, survivors[best], -1)
            assign = np.where(orphan, new_assign, assign)
        else:
            assign = np.where(orphan, -1, assign)
    segments = []
    next_id = 1
    for c in range(len(cand_rows)):
        if deleted[c]:
            continue
        area = int((assign == c).sum())
        if area == 0:
            continue
        raster[assign == c] = next_id
        segments.append(SegmentInfo(next_id, cand_class[c], cand_thing[c], cand_score[c], area))
        next_id += 1
    return PanopticMap(raster, segments)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ins=st.integers(0, 12),
    hw=st.sampled_from([(1, 1), (2, 3), (4, 4), (5, 2)]),
    scale=st.sampled_from([0.5, 2.0, 6.0]),
    step=st.sampled_from([0.0, 0.5]),
    score_floor=st.sampled_from([0.0, 0.2, 0.3, 0.6, 0.95]),
    mask_threshold=st.sampled_from([0.3, 0.5, 0.8]),
    min_area=st.integers(0, 40),
    keep_fraction=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
)
def test_merge_panoptic_matches_loop(seed, n_ins, hw, scale, step, score_floor,
                                     mask_threshold, min_area, keep_fraction):
    # step > 0 rounds the logits to a grid, which makes ties common
    cfg = tiny_cfg("panoptic", num_instance_kernels=n_ins, score_floor=score_floor,
                   mask_threshold=mask_threshold, min_area=min_area,
                   keep_fraction=keep_fraction)
    rng = np.random.default_rng(seed)
    n_total = n_ins + len(cfg.stuff_class_ids)
    logits = rng.standard_normal((n_total, *hw)) * scale
    # class logits for every row, as the model emits them
    cls = rng.standard_normal((n_total, len(cfg.thing_class_ids))) * scale
    if step:
        logits, cls = np.round(logits / step) * step, np.round(cls / step) * step
    stage = StageOutput(
        kernels=Tensor(np.zeros((1, n_total, cfg.channels), dtype=np.float32)),
        mask_logits=Tensor(logits[None].astype(np.float32)),
        class_logits=Tensor(cls[None].astype(np.float32)),
        activation=SIGMOID,
    )
    got, want = MO.merge_panoptic(stage, cfg), loop_merge_panoptic(stage, cfg)
    assert got.segment_ids.dtype == want.segment_ids.dtype
    assert got.segment_ids.tobytes() == want.segment_ids.tobytes()
    assert got.segments == want.segments
    assert [type(v) for s in got.segments for v in vars(s).values()] == \
        [type(v) for s in want.segments for v in vars(s).values()]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("score_floor, min_area, keep_fraction", [
    (0.0, 0, 0.0), (0.3, 16, 0.5), (0.6, 24, 0.3),
])
def test_merge_panoptic_matches_loop_at_paper_kernels(seed, score_floor, min_area,
                                                      keep_fraction):
    # the paper's N=100 kernels on a 16x16 mask grid (64x64 decoded), each
    # row a noisy box so that some segments survive the cleanup; logits on
    # a 0.5 grid make equal scores and equal probabilities common
    cfg = tiny_cfg("panoptic", image_size=64, num_instance_kernels=100,
                   score_floor=score_floor, min_area=min_area, keep_fraction=keep_fraction)
    rng = np.random.default_rng(seed)
    n_total = 100 + len(cfg.stuff_class_ids)
    logits = rng.standard_normal((n_total, 16, 16)) * 2 - 4
    for row in logits:
        (y, x), (h, w) = rng.integers(0, 14, 2), rng.integers(2, 9, 2)
        row[y : y + h, x : x + w] += 8
    logits = np.round(logits * 2) / 2
    cls = np.round(rng.standard_normal((n_total, len(cfg.thing_class_ids))) * 4) / 2
    stage = StageOutput(
        kernels=Tensor(np.zeros((1, n_total, cfg.channels), dtype=np.float32)),
        mask_logits=Tensor(logits[None].astype(np.float32)),
        class_logits=Tensor(cls[None].astype(np.float32)),
        activation=SIGMOID,
    )
    got, want = MO.merge_panoptic(stage, cfg), loop_merge_panoptic(stage, cfg)
    assert got.segment_ids.dtype == want.segment_ids.dtype
    assert got.segment_ids.tobytes() == want.segment_ids.tobytes()
    assert got.segments == want.segments
    assert len(want.segments) > 1


class TestSemanticRaster:
    def test_argmax_classes(self):
        cfg = tiny_cfg("semantic")
        logits = np.full((5, 4, 4), -5.0)
        logits[4, :2] = 5.0   # stuff class id 102 on top half
        logits[0, 2:] = 5.0   # thing class id 1 on bottom half
        stage = StageOutput(
            kernels=Tensor(np.zeros((1, 5, 8), dtype=np.float32)),
            mask_logits=Tensor(logits[None].astype(np.float32)),
            class_logits=None,
            activation="softmax",
        )
        sem = MO.semantic_raster(stage, cfg)
        assert (sem[:8] == cfg.semantic_class_ids[4]).all()
        assert (sem[8:] == cfg.semantic_class_ids[0]).all()

    def test_non_finite_logits_rejected(self):
        # a NaN mask row used to win the argmax
        cfg = tiny_cfg("semantic")
        logits = np.zeros((5, 4, 4))
        logits[2, 1, 1] = np.nan
        stage = StageOutput(
            kernels=Tensor(np.zeros((1, 5, 8), dtype=np.float32)),
            mask_logits=Tensor(logits[None].astype(np.float32)),
            class_logits=None,
            activation="softmax",
        )
        with pytest.raises(NumericError, match="non-finite"):
            MO.semantic_raster(stage, cfg)


# ---------------------------------------------------------------------------
# no dead helpers

ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__matmul__",
              "__rmatmul__"}


def test_training_runs_every_graph_op_and_operator(monkeypatch):
    # the package ships only what a training step runs: each public op of
    # the engine and of the losses that builds a graph node, and each
    # arithmetic operator of Tensor, is reached by some mode, aku and ki
    ops = {name for module in (T, M) for name, fn in vars(module).items()
           if inspect.isfunction(fn) and fn.__module__ == module.__name__
           and not name.startswith("_") and "_node" in fn.__code__.co_names}
    operators = ARITHMETIC & set(vars(Tensor))
    ran = set()
    node = T._node

    def recording_node(data, parents, backward_fn):
        ran.add(backward_fn.__qualname__.split(".")[0])
        return node(data, parents, backward_fn)

    monkeypatch.setattr(T, "_node", recording_node)
    for name in operators:
        def recording(*args, _name=name, _op=vars(Tensor)[name]):
            ran.add(_name)
            return _op(*args)
        monkeypatch.setattr(Tensor, name, recording)
    spec = SceneSpec(seed=21, size=16, n_max=2, size_range=(5.0, 8.0))
    gts = [generate_sample(spec, i) for i in range(2)]
    imgs = np.stack([g.image for g in gts])
    for mode in MO.MODES:
        for aku in (True, False):
            for ki in (True, False):
                model = MO.SegmentationModel(tiny_cfg(mode, aku=aku, ki=ki), seed=8)
                _, loss, _ = model.forward(imgs, gts)
                loss.backward()
    assert (sorted(ops - ran), sorted(operators - ran)) == ([], [])
