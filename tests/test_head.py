import numpy as np
import pytest

from knet import head as H
from knet import tensor as T
from knet.errors import ConfigError, DimensionError
from knet.layers import Linear, canonical_frame
from knet.verification import FULL_STAGE_TOLERANCE


@pytest.fixture
def f64():
    with T.precision("f64"):
        yield


def naive_group_features(probs, feats):
    b, n, h, w = probs.shape
    c = feats.shape[1]
    out = np.zeros((b, n, c), dtype=probs.dtype)
    for bi in range(b):
        for ni in range(n):
            for ci in range(c):
                s = 0.0
                for u in range(h):
                    for v in range(w):
                        s += probs[bi, ni, u, v] * feats[bi, ci, u, v]
                out[bi, ni, ci] = s
    return out


def identity_linear(lin: Linear):
    lin.weight.data = np.eye(*lin.weight.data.shape, dtype=lin.weight.data.dtype)
    lin.bias.data = np.zeros_like(lin.bias.data)


def identity(x):
    """Stand-in for a LayerNorm, so closed forms need no normalization."""
    return x


def make_identity_aku(c):
    aku = H.AdaptiveKernelUpdate(c, np.random.default_rng(0))
    for lin in (aku.lin_feat, aku.lin_kernel, aku.gate_k_fc, aku.gate_f_fc, aku.feat_fc, aku.kernel_fc):
        identity_linear(lin)
    aku.gate_k_norm = aku.gate_f_norm = aku.feat_norm = aku.kernel_norm = identity
    return aku


# (batch, class count) cases of the stage equivariance tests: a stage
# without a class branch (semantic mode) reads its masks through a softmax
STAGE_CASES = [
    pytest.param(b, classes, id=str(b) if classes else f"{b}-softmax")
    for classes in (3, None)
    for b in (1, 4)
]


def assert_rows_permuted(out, out_perm, perm):
    assert np.array_equal(out_perm.kernels.data, out.kernels.data[:, perm])
    if out.class_logits is None:
        assert out_perm.class_logits is None
    else:
        assert np.array_equal(out_perm.class_logits.data, out.class_logits.data[:, perm])
    assert np.array_equal(out_perm.mask_logits.data, out.mask_logits.data[:, perm])


class TestAssembleGroupFeatures:
    def test_zero_mask(self):
        probs = T.Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
        feats = T.Tensor(np.ones((1, 4, 3, 3), dtype=np.float32))
        assert np.array_equal(H.assemble_group_features(probs, feats).data, np.zeros((1, 2, 4)))

    def test_delta_mask_picks_feature_column(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((1, 5, 4, 4)).astype(np.float32)
        probs = np.zeros((1, 2, 4, 4), dtype=np.float32)
        probs[0, 0, 1, 2] = 1.0
        probs[0, 1, 3, 0] = 1.0
        out = H.assemble_group_features(T.Tensor(probs), T.Tensor(feats)).data
        assert np.allclose(out[0, 0], feats[0, :, 1, 2], atol=1e-6)
        assert np.allclose(out[0, 1], feats[0, :, 3, 0], atol=1e-6)

    def test_random_matches_loop(self):
        rng = np.random.default_rng(1)
        probs = rng.uniform(size=(1, 2, 4, 4)).astype(np.float32)
        feats = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        out = H.assemble_group_features(T.Tensor(probs), T.Tensor(feats)).data
        assert np.max(np.abs(out - naive_group_features(probs, feats))) < 1e-6

    def test_spatial_mismatch(self):
        with pytest.raises(DimensionError):
            H.assemble_group_features(
                T.Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32)),
                T.Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)),
            )


class TestAdaptiveKernelUpdate:
    def test_zero_group_feature_halves_kernels(self, f64):
        aku = make_identity_aku(4)
        kernels = T.Tensor(np.arange(8, dtype=np.float64).reshape(1, 2, 4))
        out = aku(T.Tensor(np.zeros((1, 2, 4))), kernels)
        assert np.allclose(out.data, 0.5 * kernels.data, atol=1e-12)

    def test_scalar_closed_form(self, f64):
        # LayerNorm(1) is rejected at construction, so the scalar case runs
        # as two equal channels that the identity projections keep apart
        aku = make_identity_aku(2)
        out = aku(T.Tensor([[[2.0, 2.0]]]), T.Tensor([[[3.0, 3.0]]]))
        gate = 1.0 / (1.0 + np.exp(-6.0))
        assert np.allclose(out.data, gate * 5.0, atol=1e-6)
        assert np.max(np.abs(out.data - 4.987637)) < 1e-5

    def test_gates_in_open_interval(self):
        rng = np.random.default_rng(2)
        aku = H.AdaptiveKernelUpdate(8, rng)
        gf = T.Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32) * 10)
        kk = T.Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32) * 10)
        gate_k, gate_f = aku.gates(gf, kk)
        for g in (gate_k.data, gate_f.data):
            assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_grad_wrt_both_inputs(self, f64):
        rng = np.random.default_rng(3)
        aku = H.AdaptiveKernelUpdate(6, rng)
        coef = T.Tensor(rng.standard_normal((1, 2, 6)))
        gf = T.Tensor(rng.standard_normal((1, 2, 6)), requires_grad=True)
        kk = T.Tensor(rng.standard_normal((1, 2, 6)), requires_grad=True)
        gf_const, kk_const = T.Tensor(gf.data), T.Tensor(kk.data)
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(aku(t, kk_const), coef)), gf) < 1e-5
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(aku(gf_const, t), coef)), kk) < 1e-5


class TestPlainKernelUpdate:
    def test_zero_group_feature(self, f64):
        upd = H.PlainKernelUpdate(3, np.random.default_rng(4))
        identity_linear(upd.proj.fc)
        upd.proj.norm = identity
        k = np.array([[[1.0, -2.0, 0.5]]])
        out = upd(T.Tensor(np.zeros_like(k)), T.Tensor(k))
        assert np.allclose(out.data, np.maximum(k, 0.0))

    def test_matches_formula(self, f64):
        rng = np.random.default_rng(5)
        upd = H.PlainKernelUpdate(4, rng)
        gf = T.Tensor(rng.standard_normal((1, 3, 4)))
        kk = T.Tensor(rng.standard_normal((1, 3, 4)))
        expected = upd.proj(gf + kk)
        assert np.array_equal(upd(gf, kk).data, expected.data)

    def test_grad(self, f64):
        rng = np.random.default_rng(6)
        upd = H.PlainKernelUpdate(4, rng)
        coef = T.Tensor(rng.standard_normal((1, 2, 4)))
        gf = T.Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True)
        kk = T.Tensor(rng.standard_normal((1, 2, 4)))
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(upd(t, kk), coef)), gf) < 1e-5


class TestKernelInteraction:
    def test_single_kernel_is_mlp(self, f64):
        rng = np.random.default_rng(7)
        ki = H.KernelInteraction(4, 2, rng)
        x = T.Tensor(rng.standard_normal((1, 1, 4)))
        out = ki(x)
        attended = ki.norm(x + ki.attn.out(ki.attn.v(x)))
        expected = ki.ffn(attended)
        assert np.allclose(out.data, expected.data, atol=1e-12)

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(8)
        ki = H.KernelInteraction(8, 4, rng)
        x = rng.standard_normal((1, 5, 8)).astype(np.float32)
        perm = np.array([3, 0, 4, 1, 2])

        def framed(rows):
            (out,) = canonical_frame(lambda t: (ki(t),), T.Tensor(rows))
            return out.data

        out = framed(x)
        out_perm = framed(x[:, perm])
        assert np.array_equal(out[:, perm], out_perm)

    def test_grad(self, f64):
        rng = np.random.default_rng(9)
        ki = H.KernelInteraction(8, 4, rng)
        coef = T.Tensor(rng.standard_normal((1, 3, 8)))
        x = T.Tensor(rng.standard_normal((1, 3, 8)), requires_grad=True)
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(ki(t), coef)), x) < 1e-5


class TestMaskPrediction:
    def test_zero_kernels_give_half_probability(self):
        kernels = T.Tensor(np.zeros((1, 3, 4), dtype=np.float32))
        feats = T.Tensor(np.random.default_rng(0).standard_normal((1, 4, 5, 5)).astype(np.float32))
        logits = H.predict_masks(kernels, feats)
        assert np.array_equal(logits.data, np.zeros((1, 3, 5, 5)))
        assert np.allclose(T.sigmoid(logits).data, 0.5)

    def test_scalar_channel_identity(self, f64):
        feats = np.random.default_rng(1).standard_normal((1, 1, 3, 3))
        logits = H.predict_masks(T.Tensor([[[2.0]]]), T.Tensor(feats))
        assert np.allclose(logits.data[0, 0], 2.0 * feats[0, 0], atol=1e-12)

    def test_matches_naive_dot(self, f64):
        rng = np.random.default_rng(2)
        kernels = rng.standard_normal((2, 3, 4))
        feats = rng.standard_normal((2, 4, 3, 5))
        out = H.predict_masks(T.Tensor(kernels), T.Tensor(feats)).data
        ref = np.einsum("bnc,bchw->bnhw", kernels, feats)
        assert np.max(np.abs(out - ref)) < 1e-12


class TestStage:
    def _tiny_stage(self, rng, num_classes=2):
        return H.KernelUpdateStage(8, num_classes, rng, heads=2)

    def test_trivial_settings_give_uniform_masks(self, f64):
        rng = np.random.default_rng(3)
        stage = self._tiny_stage(rng)
        stage.mask.out.weight.data = np.zeros_like(stage.mask.out.weight.data)
        stage.mask.out.bias.data = np.zeros_like(stage.mask.out.bias.data)
        out = stage(
            T.Tensor(rng.standard_normal((1, 3, 4, 4))),
            T.Tensor(rng.standard_normal((1, 3, 8))),
            T.Tensor(rng.standard_normal((1, 8, 4, 4))),
        )
        assert np.allclose(T.sigmoid(out.mask_logits).data, 0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        stage = self._tiny_stage(rng)
        m = T.Tensor(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
        k = T.Tensor(rng.standard_normal((1, 3, 8)).astype(np.float32))
        f = T.Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32))
        o1 = stage(m, k, f)
        o2 = stage(m, k, f)
        assert np.array_equal(o1.mask_logits.data, o2.mask_logits.data)
        assert np.array_equal(o1.kernels.data, o2.kernels.data)

    def test_full_stage_grad(self, f64):
        rng = np.random.default_rng(5)
        stage = self._tiny_stage(rng)
        m = T.Tensor(rng.standard_normal((1, 2, 3, 3)))
        k = T.Tensor(rng.standard_normal((1, 2, 8)))
        feats = T.Tensor(rng.standard_normal((1, 8, 3, 3)), requires_grad=True)
        coef_m = T.Tensor(rng.standard_normal((1, 2, 3, 3)))
        coef_k = T.Tensor(rng.standard_normal((1, 2, 8)))

        def loss(t):
            out = stage(m, k, t)
            return T.reduce_sum(T.mul(out.mask_logits, coef_m)) + T.reduce_sum(T.mul(out.kernels, coef_k))

        assert T.grad_check(loss, feats) < 1e-4

    @pytest.mark.parametrize("b, num_classes", STAGE_CASES)
    def test_kernel_permutation_equivariance_exact(self, b, num_classes):
        # paper-size kernel set, with the class branch in sigmoid mode:
        # permuting the kernels (and their previous masks) permutes every
        # output row bitwise
        rng = np.random.default_rng(7)
        n, c, hw = 102, 32, 16
        stage = H.KernelUpdateStage(c, num_classes, rng)
        m = rng.standard_normal((b, n, hw, hw)).astype(np.float32)
        k = rng.standard_normal((b, n, c)).astype(np.float32)
        f = T.Tensor(rng.standard_normal((b, c, hw, hw)).astype(np.float32))
        perm = rng.permutation(n)
        out = stage(T.Tensor(m), T.Tensor(k), f)
        out_perm = stage(T.Tensor(m[:, perm]), T.Tensor(k[:, perm]), f)
        assert_rows_permuted(out, out_perm, perm)

    @pytest.mark.parametrize("b, num_classes", STAGE_CASES)
    def test_kernel_permutation_equivariance_with_duplicate_rows(self, b, num_classes):
        # 20 kernels repeat another kernel together with its previous mask
        rng = np.random.default_rng(9)
        n, c, hw = 102, 32, 16
        stage = H.KernelUpdateStage(c, num_classes, rng)
        m = rng.standard_normal((b, n, hw, hw)).astype(np.float32)
        k = rng.standard_normal((b, n, c)).astype(np.float32)
        idx = rng.permutation(n)
        m[:, idx[:20]] = m[:, idx[20:40]]
        k[:, idx[:20]] = k[:, idx[20:40]]
        f = T.Tensor(rng.standard_normal((b, c, hw, hw)).astype(np.float32))
        perm = rng.permutation(n)
        out = stage(T.Tensor(m), T.Tensor(k), f)
        out_perm = stage(T.Tensor(m[:, perm]), T.Tensor(k[:, perm]), f)
        assert_rows_permuted(out, out_perm, perm)

    def test_full_stage_grad_with_duplicate_row(self, f64):
        # the canonical frame's equal-row fix-up is forward only, so the
        # gradient through a duplicated kernel+mask row is the stage's own
        rng = np.random.default_rng(12)
        stage = self._tiny_stage(rng)
        m = rng.standard_normal((1, 4, 3, 3))
        k = rng.standard_normal((1, 4, 8))
        m[0, 3], k[0, 3] = m[0, 1], k[0, 1]
        feats = T.Tensor(rng.standard_normal((1, 8, 3, 3)))
        coef_m = T.Tensor(rng.standard_normal((1, 4, 3, 3)))
        coef_k = T.Tensor(rng.standard_normal((1, 4, 8)))
        coef_c = T.Tensor(rng.standard_normal((1, 4, 2)))

        def readout(out):
            return (T.reduce_sum(T.mul(out.mask_logits, coef_m))
                    + T.reduce_sum(T.mul(out.kernels, coef_k))
                    + T.reduce_sum(T.mul(out.class_logits, coef_c)))

        err_m = T.grad_check(lambda t: readout(stage(t, T.Tensor(k), feats)),
                             T.Tensor(m, requires_grad=True))
        err_k = T.grad_check(lambda t: readout(stage(T.Tensor(m), t, feats)),
                             T.Tensor(k, requires_grad=True))
        assert max(err_m, err_k) < FULL_STAGE_TOLERANCE

    def test_semantic_softmax_activation(self, monkeypatch):
        # without a class branch the previous masks compete per pixel
        seen = []
        assemble = H.assemble_group_features

        def recording(probs, feats):
            seen.append(probs.data)
            return assemble(probs, feats)

        monkeypatch.setattr(H, "assemble_group_features", recording)
        rng = np.random.default_rng(6)
        stage = H.KernelUpdateStage(8, None, rng, heads=2)
        out = stage(
            T.Tensor(rng.standard_normal((1, 4, 3, 3)).astype(np.float32)),
            T.Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32)),
            T.Tensor(rng.standard_normal((1, 8, 3, 3)).astype(np.float32)),
        )
        assert out.class_logits is None
        (probs,) = seen
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestIterative:
    def _head(self, stages, seed=0, **kw):
        return H.IterativeKernelHead(8, stages, 2, np.random.default_rng(seed), heads=2, **kw)

    def test_rejects_negative_stage_count(self):
        with pytest.raises(ConfigError):
            self._head(-1)

    def test_zero_stages_is_static_prediction(self):
        rng = np.random.default_rng(0)
        hd = self._head(0)
        assert list(hd.params()) == [k for k in self._head(2).params() if k.startswith("stage0_cls.")]
        k0 = T.Tensor(rng.standard_normal((1, 2, 8)).astype(np.float32))
        m0 = T.Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        (out,) = hd.run_iterative(k0, m0, T.Tensor(np.zeros((1, 8, 4, 4), np.float32)))
        assert out.kernels is k0 and out.mask_logits is m0
        assert np.array_equal(out.class_logits.data, hd.stage0_cls(k0).data)

    def test_output_length(self):
        rng = np.random.default_rng(1)
        hd = self._head(3)
        outs = hd.run_iterative(
            T.Tensor(rng.standard_normal((1, 2, 8)).astype(np.float32)),
            T.Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32)),
            T.Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32)),
        )
        assert len(outs) == 4

    def test_single_stage_matches_direct_call(self):
        rng = np.random.default_rng(2)
        hd = self._head(1)
        k0 = T.Tensor(rng.standard_normal((1, 2, 8)).astype(np.float32))
        m0 = T.Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        f = T.Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32))
        outs = hd.run_iterative(k0, m0, f)
        direct = hd.stages[0](m0, k0, f)
        assert np.array_equal(outs[1].mask_logits.data, direct.mask_logits.data)

    def test_prefix_composability_bitwise(self):
        rng = np.random.default_rng(3)
        short = self._head(2, seed=42)
        long = self._head(5, seed=42)
        k0 = T.Tensor(rng.standard_normal((1, 3, 8)).astype(np.float32))
        m0 = T.Tensor(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
        f = T.Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32))
        outs_a = short.run_iterative(k0, m0, f)
        outs_b = long.run_iterative(k0, m0, f)
        for sa, sb in zip(outs_a, outs_b):
            assert np.array_equal(sa.mask_logits.data, sb.mask_logits.data)
            assert np.array_equal(sa.kernels.data, sb.kernels.data)
            assert np.array_equal(sa.class_logits.data, sb.class_logits.data)

    def test_stage_sweep_runs(self):
        rng = np.random.default_rng(4)
        for s in range(1, 6):
            hd = self._head(s, seed=s)
            outs = hd.run_iterative(
                T.Tensor(rng.standard_normal((1, 2, 8)).astype(np.float32)),
                T.Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32)),
                T.Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32)),
            )
            assert len(outs) == s + 1

    def test_ablation_variants_construct(self):
        for aku in (True, False):
            for ki in (True, False):
                hd = H.IterativeKernelHead(
                    8, 2, 2, np.random.default_rng(0), heads=2,
                    adaptive_update=aku, interaction=ki,
                )
                kind = H.AdaptiveKernelUpdate if aku else H.PlainKernelUpdate
                assert isinstance(hd.stages[0].update, kind)
                assert (hd.stages[0].interaction is not None) == ki
