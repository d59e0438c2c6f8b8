import numpy as np
import pytest

from knet import layers as L
from knet import tensor as T
from knet.errors import ConfigError, ContractError
from knet.verification import LAYER_TOLERANCE


@pytest.fixture
def f64():
    with T.precision("f64"):
        yield


def set_identity(linear: L.Linear):
    linear.weight.data = np.eye(*linear.weight.data.shape, dtype=linear.weight.data.dtype)
    linear.bias.data = np.zeros_like(linear.bias.data)


class TestLayerNorm:
    def test_two_point_row(self, f64):
        ln = L.LayerNorm(2)
        out = ln(T.Tensor([[1.0, 3.0]]))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_constant_row_goes_to_beta(self, f64):
        ln = L.LayerNorm(3)
        ln.beta.data = np.array([0.5, 0.5, 0.5])
        out = ln(T.Tensor([[5.0, 5.0, 5.0]]))
        assert np.allclose(out.data, 0.5)

    def test_single_channel_rejected(self):
        with pytest.raises(ContractError):
            L.LayerNorm(1)

    def test_normalized_stats(self, f64):
        rng = np.random.default_rng(0)
        ln = L.LayerNorm(16)
        x = rng.standard_normal((8, 16))
        out = ln(T.Tensor(x)).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-5
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-5

    def test_grad(self, f64):
        rng = np.random.default_rng(1)
        ln = L.LayerNorm(6)
        coef = T.Tensor(rng.standard_normal((3, 6)))
        x = T.Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(ln(t), coef)), x) < 1e-5


class TestLinear:
    def test_shape_and_grad(self, f64):
        rng = np.random.default_rng(2)
        lin = L.Linear(5, 3, rng)
        x = T.Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        out = lin(x)
        assert out.shape == (2, 4, 3)
        coef = T.Tensor(rng.standard_normal((2, 4, 3)))
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(lin(t), coef)), x) < 1e-5

    @pytest.mark.parametrize("c_out", [3, 13, 32, 128])
    @pytest.mark.parametrize("m", [5, 51, 102, 408])
    def test_row_permutation_exact(self, c_out, m):
        # in the canonical frame each output row must not depend on where its
        # token sits in storage; BLAS GEMM kernels round edge-block rows
        # differently, so the bare layer fails this
        rng = np.random.default_rng(c_out * 1000 + m)
        lin = L.Linear(32, c_out, rng)
        x = rng.standard_normal((m, 32)).astype(np.float32)
        perm = rng.permutation(m)

        def framed(rows):
            (out,) = L.canonical_frame(lambda t: (lin(t),), T.Tensor(rows[None]))
            return out.data[0]

        out = framed(x)
        assert np.array_equal(framed(x[perm]), out[perm])


class TestMultiHeadAttention:
    def test_width_not_divisible(self):
        with pytest.raises(ConfigError):
            L.MultiHeadAttention(6, 4, np.random.default_rng(0))

    def test_single_token_weight_is_one(self, f64):
        rng = np.random.default_rng(3)
        mha = L.MultiHeadAttention(4, 2, rng)
        x = T.Tensor(rng.standard_normal((1, 1, 4)))
        out = mha(x)
        expected = mha.out(mha.v(x))
        assert np.allclose(out.data, expected.data, atol=1e-12)

    def test_identical_tokens_identical_outputs(self, f64):
        rng = np.random.default_rng(4)
        mha = L.MultiHeadAttention(8, 4, rng)
        row = rng.standard_normal(8)
        x = T.Tensor(np.stack([row, row])[None])
        out = mha(x).data
        assert np.array_equal(out[0, 0], out[0, 1])

    def test_hand_computed_single_head(self, f64):
        rng = np.random.default_rng(5)
        mha = L.MultiHeadAttention(2, 1, rng)
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.0, 1.0], [1.0, 0.0]])
        wv = np.array([[2.0, 0.0], [0.0, 2.0]])
        wo = np.array([[1.0, 1.0], [0.0, 1.0]])
        for lin, w in ((mha.q, wq), (mha.k, wk), (mha.v, wv), (mha.out, wo)):
            lin.weight.data = w
            lin.bias.data = np.zeros(2)
        x = np.array([[0.5, -1.0], [1.5, 0.25]])
        q, k, v = x @ wq.T, x @ wk.T, x @ wv.T
        scores = q @ k.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        expected = (attn @ v) @ wo.T
        out = mha(T.Tensor(x[None]))
        assert np.allclose(out.data[0], expected, atol=1e-12)

    def test_rows_sum_to_one_via_constant_values(self, f64):
        # every token shares channels 2-3 and the value path reads only
        # those, so with an identity output path one value vector must
        # survive the attention weighting exactly iff each row sums to 1;
        # channels 0-1 differ per token and keep the weights non-uniform
        rng = np.random.default_rng(6)
        mha = L.MultiHeadAttention(4, 2, rng)
        mha.v.weight.data[:, :2] = 0.0
        set_identity(mha.out)
        x = np.tile([0.0, 0.0, 1.1, 0.2], (1, 5, 1))
        x[0, :, :2] = rng.standard_normal((5, 2))
        q, k = (lin(T.Tensor(x)).data[0].reshape(5, 2, 2).transpose(1, 0, 2)
                for lin in (mha.q, mha.k))
        e = np.exp(q @ k.transpose(0, 2, 1) / np.sqrt(2.0))
        weights = e / e.sum(axis=-1, keepdims=True)
        assert weights.min() < 0.1 and weights.max() > 0.4
        value = mha.v(T.Tensor(x[:, :1])).data[0, 0]
        out = mha(T.Tensor(x)).data
        assert np.max(np.abs(out - value)) < 1e-6

    def test_grad(self, f64):
        rng = np.random.default_rng(7)
        mha = L.MultiHeadAttention(4, 2, rng)
        coef = T.Tensor(rng.standard_normal((1, 3, 4)))
        x = T.Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True)
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(mha(t), coef)), x) < 1e-5

    def test_grad_with_duplicate_row(self, f64):
        # the equal-row fix-up is forward only, so the gradient stays the
        # one of the attention itself
        rng = np.random.default_rng(11)
        mha = L.MultiHeadAttention(8, 2, rng)
        coef = T.Tensor(rng.standard_normal((1, 4, 8)))
        x = rng.standard_normal((1, 4, 8))
        x[0, 3] = x[0, 1]
        x = T.Tensor(x, requires_grad=True)
        err = T.grad_check(lambda t: T.reduce_sum(T.mul(mha(t), coef)), x)
        assert err < LAYER_TOLERANCE

    @pytest.mark.parametrize("seed", range(6))
    def test_permutation_exact_with_duplicate_rows(self, seed):
        # 20 of 102 tokens repeat another bitwise; a GEMM may round equal
        # rows differently by position, which must not show in the output
        # of the canonical frame
        rng = np.random.default_rng(seed)
        mha = L.MultiHeadAttention(8, 4, rng)
        x = rng.standard_normal((1, 102, 8)).astype(np.float32)
        idx = rng.permutation(102)
        x[0, idx[:20]] = x[0, idx[20:40]]
        perm = rng.permutation(102)

        def framed(rows):
            (out,) = L.canonical_frame(lambda t: (mha(t),), T.Tensor(rows))
            return out.data

        out = framed(x)
        assert np.array_equal(framed(x[:, perm]), out[:, perm])
        assert np.array_equal(out[0, idx[:20]], out[0, idx[20:40]])


class TestFeedForward:
    def test_shape_preserving(self):
        rng = np.random.default_rng(8)
        ffn = L.FeedForward(6, rng)
        x = T.Tensor(rng.standard_normal((2, 3, 6)).astype(np.float32))
        assert ffn(x).shape == (2, 3, 6)

    def test_grad(self, f64):
        rng = np.random.default_rng(9)
        ffn = L.FeedForward(4, rng)
        coef = T.Tensor(rng.standard_normal((2, 4)))
        x = T.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(ffn(t), coef)), x) < 1e-5


class TestConv2d:
    def test_1x1_is_per_pixel_linear(self, f64):
        rng = np.random.default_rng(10)
        conv = L.Conv2d(3, 2, 1, rng)
        x = rng.standard_normal((1, 3, 4, 4))
        out = conv(T.Tensor(x)).data
        w = conv.weight.data.reshape(2, 3)
        expected = np.einsum("oc,bchw->bohw", w, x) + conv.bias.data[None, :, None, None]
        assert np.allclose(out, expected, atol=1e-12)

    def test_identity_center_kernel(self, f64):
        rng = np.random.default_rng(11)
        conv = L.Conv2d(1, 1, 3, rng, stride=1, padding=1)
        conv.weight.data = np.zeros((1, 1, 3, 3))
        conv.weight.data[0, 0, 1, 1] = 1.0
        conv.bias.data = np.zeros(1)
        x = rng.standard_normal((1, 1, 5, 5))
        assert np.allclose(conv(T.Tensor(x)).data, x)

    def test_output_spatial_size(self):
        rng = np.random.default_rng(12)
        conv = L.Conv2d(1, 1, 3, rng, stride=2, padding=1)
        out = conv(T.Tensor(np.zeros((1, 1, 9, 9), dtype=np.float32)))
        assert out.shape == (1, 1, 5, 5)


class TestPositionalEncoding:
    def test_origin_values(self):
        enc = L.positional_encoding_2d(8, 8, 16).data
        half = 8
        assert np.allclose(enc[0:half:2, 0, 0], 0.0)
        assert np.allclose(enc[1:half:2, 0, 0], 1.0)
        assert np.allclose(enc[half::2, 0, 0], 0.0)
        assert np.allclose(enc[half + 1 :: 2, 0, 0], 1.0)

    def test_bounded(self):
        enc = L.positional_encoding_2d(16, 12, 32).data
        assert enc.min() >= -1.0 and enc.max() <= 1.0

    def test_pairwise_distinct_64(self):
        enc = L.positional_encoding_2d(64, 64, 32).data
        cols = enc.reshape(32, -1).T
        assert np.unique(cols, axis=0).shape[0] == 64 * 64

    def test_width_divisibility(self):
        with pytest.raises(ConfigError):
            L.positional_encoding_2d(8, 8, 18)
