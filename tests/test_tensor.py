import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knet import matching as M
from knet import tensor as T
from knet.errors import ContractError, DimensionError, FormatError, KnetError, NumericError

import composite_ops as C


@pytest.fixture
def f64():
    with T.precision("f64"):
        yield


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_row_sum(self):
        a = T.Tensor([[1.0, 2.0, 3.0]])
        b = T.Tensor([[1.0], [1.0], [1.0]])
        assert np.allclose(T.matmul(a, b).data, [[6.0]])

    def test_against_triple_loop(self, f64):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-12

    def test_all_small_shapes(self, f64):
        rng = np.random.default_rng(1)
        for m in range(1, 9):
            for n in range(1, 9):
                for k in range(1, 9):
                    a = rng.standard_normal((m, k))
                    b = rng.standard_normal((k, n))
                    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
                    assert np.allclose(got, naive_matmul(a, b), atol=1e-10)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 5\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 5))))

    def test_batched(self, f64):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 5, 2))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.allclose(got, a @ b)


class TestLinear:
    # (16, 13, 32) rows: a shape at which OpenBLAS rounds one flat (208, 32)
    # GEMM differently from 16 per-image GEMMs
    def _args(self, requires_grad=False):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((16, 13, 32)).astype(np.float32)
        w = rng.standard_normal((24, 32)).astype(np.float32)
        b = rng.standard_normal(24).astype(np.float32)
        return x, T.Tensor(w, requires_grad=requires_grad), T.Tensor(b, requires_grad=requires_grad)

    def test_stacked_rows_equal_per_image_calls(self):
        x, w, b = self._args()
        got = T.linear(T.Tensor(x), w, b).data
        assert got.shape == (16, 13, 24)
        for i in range(len(x)):
            assert np.array_equal(got[i], T.linear(T.Tensor(x[i]), w, b).data)

    def test_param_grads_equal_flattened_form(self):
        x, w, b = self._args(requires_grad=True)
        coef = np.random.default_rng(5).standard_normal((16, 13, 24)).astype(np.float32)
        xs = T.Tensor(x, requires_grad=True)
        T.reduce_sum(T.linear(xs, w, b) * T.Tensor(coef)).backward()
        stacked = xs.grad, w.grad, b.grad
        w.zero_grad()
        b.zero_grad()
        xf = T.Tensor(x.reshape(-1, 32), requires_grad=True)
        T.reduce_sum(T.linear(xf, w, b) * T.Tensor(coef.reshape(-1, 24))).backward()
        assert np.array_equal(stacked[0], xf.grad.reshape(x.shape))
        assert np.array_equal(stacked[1], w.grad)
        assert np.array_equal(stacked[2], b.grad)


class TestIndexSelectBackward:
    @staticmethod
    def _grad(a: np.ndarray, axis: int, indices, g: np.ndarray) -> np.ndarray:
        t = T.Tensor(a, requires_grad=True)
        T.index_select(t, axis, indices)._backward(g)
        return t.grad

    @staticmethod
    def _add_at(a: np.ndarray, axis: int, indices, g: np.ndarray) -> np.ndarray:
        buf = np.zeros_like(a)
        np.add.at(buf, (slice(None),) * axis + (np.asarray(indices),), g)
        return buf

    @pytest.mark.parametrize("axis,indices", [
        (0, [4, 0, 2]), (1, [3, 1, 0, 2]), (1, [-1, 0]),    # unique
        (0, [1, 1, 3]), (1, [2, 0, 2, 2]), (1, [-1, 3]),    # repeated
    ])
    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_bitwise_equal_to_add_at(self, axis, indices, signed_zeros):
        rng = np.random.default_rng(len(indices) + axis)
        a = rng.standard_normal((5, 4, 3)).astype(np.float32)
        g = rng.standard_normal(np.take(a, indices, axis=axis).shape).astype(np.float32)
        if signed_zeros:
            g[..., ::2] = -0.0
        got = self._grad(a, axis, indices, g)
        want = self._add_at(a, axis, indices, g)
        assert got.tobytes() == want.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_stabilized(self):
        out = T.softmax(T.Tensor([1000.0, 1000.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_closed_form(self, f64):
        out = T.softmax(T.Tensor([0.0, math.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one_f32(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-50, 50, size=(20, 7)).astype(np.float32)
        out = T.softmax(T.Tensor(x), axis=1)
        assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-6

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            T.softmax(T.Tensor([np.inf, 0.0]), axis=0)


def test_op_output_must_keep_working_precision():
    # a float64 scalar would silently promote an f32 op and its gradients
    x = T.Tensor(np.linspace(0.0, 1.0, 5, dtype=np.float32), requires_grad=True)
    with pytest.raises(NumericError, match="pow_const"):
        C.pow_const(x, np.float64(2.0))
    with pytest.raises(NumericError, match="clip"):
        C.clip(x, np.float64(0.1), np.float64(0.9))
    assert C.pow_const(x, 2.0).data.dtype == np.float32


class TestSigmoid:
    def test_zero(self):
        assert np.allclose(T.sigmoid(T.Tensor(0.0)).data, 0.5)

    def test_monotone_to_one(self):
        xs = T.sigmoid(T.Tensor([1.0, 5.0, 20.0, 80.0])).data
        assert np.all(np.diff(xs) >= 0)
        assert xs[-1] <= 1.0 and xs[-1] > 1.0 - 1e-6

    def test_closed_form(self, f64):
        out = T.sigmoid(T.Tensor(-math.log(3.0)))
        assert np.allclose(out.data, 0.25, atol=1e-12)

    @pytest.mark.parametrize("mode", ["f32", "f64"])
    def test_bitwise_equal_to_two_branch_form(self, mode):
        # reference: one exp per branch, gathered by sign
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        dtype = np.float32 if mode == "f32" else np.float64
        rng = np.random.default_rng(0)
        extremes = [0.0, -0.0, 100.0, -100.0, 1e-30, -1e-30, 1e4, -1e4,
                    np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([rng.standard_normal(4096) * 8, extremes]).astype(dtype)
        with T.precision(mode), np.errstate(over="ignore"):
            got = T.sigmoid(T.Tensor(x)).data
            want = two_branch(x)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


class TestSigmoidArray:
    @staticmethod
    def edge_values(dtype):
        info = np.finfo(dtype)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.max, -info.max,
                 info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
                 1e-30, -1e-30, 100.0, -100.0, 1e4, -1e4]
        edges = np.asarray(edges, dtype=dtype)
        # random bit patterns cover every exponent, NaN payloads included
        uint = np.uint32 if dtype == np.float32 else np.uint64
        bits = np.random.default_rng(0).integers(0, np.iinfo(uint).max, 200_000,
                                                 dtype=uint, endpoint=True)
        return np.concatenate([edges, bits.view(dtype)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_reference_form(self, dtype):
        x = self.edge_values(dtype)
        before = x.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
            got = T.sigmoid_array(x)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strided_input(self, dtype):
        x = self.edge_values(dtype)[: 2 * 3 * 4000].reshape(2, 3, 4000)
        view = x[:, ::2, 1::3].transpose(2, 0, 1)
        before = x.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            want = 1.0 / (1.0 + np.exp(-view))
            got = T.sigmoid_array(view)
        assert got.shape == view.shape
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place(self, dtype):
        x = self.edge_values(dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
            got = T.sigmoid_array(x, out=x)
        assert got is x
        assert got.tobytes() == want.tobytes()


class TestElementwise:
    def test_mul_by_one(self):
        a = T.Tensor([[1.0, -2.0], [3.0, 4.0]])
        out = T.mul(a, T.Tensor(1.0))
        assert np.array_equal(out.data, a.data)

    def test_reduce_sum_all(self):
        out = T.reduce_sum(T.Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert out.data == 10.0

    def test_relu(self):
        out = T.relu(T.Tensor([-2.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4))))

    def test_singleton_broadcast(self):
        out = T.add(T.Tensor(np.ones((2, 1))), T.Tensor(np.ones((2, 3))))
        assert out.data.shape == (2, 3)


class TestGradCheck:
    def test_sum_of_squares(self, f64):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        err = T.grad_check(lambda t: T.reduce_sum(T.mul(t, t)), x)
        assert err < 1e-7
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_sigmoid_at_zero(self, f64):
        x = T.Tensor([0.0, 0.0, 0.0], requires_grad=True)
        err = T.grad_check(lambda t: T.reduce_sum(T.sigmoid(t)), x)
        assert err < 1e-7
        assert np.allclose(x.grad, 0.25)

    def test_constant_function(self, f64):
        x = T.Tensor([1.0, -1.0], requires_grad=True)
        err = T.grad_check(lambda t: T.Tensor(3.0) + T.reduce_sum(t * 0.0), x)
        assert err < 1e-12

    def test_requires_f64(self):
        x = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.grad_check(lambda t: T.reduce_sum(t), x)

    def test_non_scalar_rejected(self, f64):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.grad_check(lambda t: t, x)


def _op_cases(rng):
    """(name, fn, input shape) for every differentiable primitive."""
    n = rng.integers(2, 5)
    m = rng.integers(2, 5)
    other = T.Tensor(rng.standard_normal((n, m)))
    mat = T.Tensor(rng.standard_normal((m, 3)))
    idx = rng.permutation(n)[: max(1, n - 1)]
    coef_mn = T.Tensor(rng.standard_normal((m, n)))
    coef_cat = T.Tensor(rng.standard_normal((2 * n, m)))
    coef_b = T.Tensor(rng.standard_normal((4, n, m)))
    coef_rep = T.Tensor(rng.standard_normal((n, 3)))
    coef_row = T.Tensor(rng.standard_normal((1, m)))
    coef_up = T.Tensor(rng.standard_normal((2, 7, 5)))
    coef_n = T.Tensor(rng.standard_normal(n))
    # five channels: over two, a normalized row is +-1 and its gradient ~0
    gamma, beta = T.Tensor(rng.standard_normal(5)), T.Tensor(rng.standard_normal(5))
    coef_ln = T.Tensor(rng.standard_normal((n, 5)))
    soft = rng.uniform(size=(n, m))
    return [
        ("add", lambda t: T.reduce_sum(T.add(t, other)), (n, m)),
        ("sub", lambda t: T.reduce_sum(C.sub(other, t)), (n, m)),
        ("mul", lambda t: T.reduce_sum(T.mul(t, other)), (n, m)),
        ("div", lambda t: T.reduce_sum(C.div(t, T.Tensor(other.data ** 2 + 1.0))), (n, m)),
        ("div_denom", lambda t: T.reduce_sum(C.div(other, t * t + 2.0)), (n, m)),
        ("neg", lambda t: T.reduce_sum(C.neg(t)), (n, m)),
        ("matmul", lambda t: T.reduce_sum(T.matmul(t, mat)), (n, m)),
        ("relu", lambda t: T.reduce_sum(T.relu(t)), (n, m)),
        ("sigmoid", lambda t: T.reduce_sum(T.sigmoid(t)), (n, m)),
        ("exp", lambda t: T.reduce_sum(C.exp(t)), (n, m)),
        ("log", lambda t: T.reduce_sum(C.log(t * t + 1.5)), (n, m)),
        ("sqrt", lambda t: T.reduce_sum(C.sqrt(t * t + 1.0)), (n, m)),
        ("pow", lambda t: T.reduce_sum(C.pow_const(t * t + 1.0, 1.5)), (n, m)),
        ("softmax", lambda t: T.reduce_sum(T.mul(T.softmax(t, axis=1), other)), (n, m)),
        ("log_softmax", lambda t: T.reduce_sum(T.mul(T.log_softmax(t, axis=1), other)), (n, m)),
        ("reduce_mean", lambda t: T.reduce_sum(T.reduce_mean(t, axes=1) * 3.0), (n, m)),
        ("reduce_mean_keepdims",
         lambda t: T.reduce_sum(T.mul(T.reduce_mean(t, axes=0, keepdims=True), coef_row)), (n, m)),
        ("reduce_mean_all", lambda t: T.reduce_mean(T.mul(t, other)), (n, m)),
        ("bilinear_upsample", lambda t: T.reduce_sum(T.mul(T.bilinear_upsample(t, 7, 5), coef_up)),
         (2, n, m)),
        ("reshape", lambda t: T.reduce_sum(T.mul(T.reshape(t, (m, n)), coef_mn)), (n, m)),
        ("transpose", lambda t: T.reduce_sum(T.mul(T.transpose(t, (1, 0)), coef_mn)), (n, m)),
        ("concat", lambda t: T.reduce_sum(T.mul(T.concat([t, other], axis=0), coef_cat)), (n, m)),
        ("index_select", lambda t: T.reduce_sum(T.index_select(t, 0, idx) * 2.0), (n, m)),
        ("index_select_repeated",
         lambda t: T.reduce_sum(T.index_select(t, 1, [0, 1, 0]) * coef_rep), (n, m)),
        ("broadcast", lambda t: T.reduce_sum(T.mul(T.broadcast_to(t, (4, n, m)), coef_b)), (n, m)),
        ("clip", lambda t: T.reduce_sum(C.clip(t, -0.7, 0.7)), (n, m)),
        ("layer_norm",
         lambda t: T.reduce_sum(T.mul(T.layer_norm(t, gamma, beta, 1e-6), coef_ln)), (n, 5)),
        ("focal_loss", lambda t: M.focal_loss(T.sigmoid(t), soft), (n, m)),
        ("dice_loss", lambda t: T.reduce_sum(T.mul(M.dice_loss(T.sigmoid(t), soft), coef_n)),
         (n, m)),
        ("mask_ce_loss", lambda t: T.reduce_sum(T.mul(M.mask_ce_loss(t, soft), coef_n)), (n, m)),
    ]


@pytest.mark.parametrize("seed", range(10))
def test_every_op_grad_checks(f64, seed):
    rng = np.random.default_rng(seed)
    for name, fn, shape in _op_cases(rng):
        x = T.Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
        if name == "relu" or name == "clip":
            # keep away from the kink so finite differences are valid
            x.data[np.abs(np.abs(x.data) - (0.7 if name == "clip" else 0.0)) < 1e-3] += 0.01
        err = T.grad_check(fn, x)
        assert err < 1e-5, f"{name}: rel error {err}"


@pytest.mark.parametrize("seed", range(3))
def test_conv2d_grad(f64, seed):
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
    w = T.Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
    b = T.Tensor(rng.standard_normal(4), requires_grad=True)
    coef = T.Tensor(rng.standard_normal((2, 4, 3, 3)))

    def loss_wrt(v):
        return lambda t: T.reduce_sum(T.mul(T.conv2d(*(t if u is v else u for u in (x, w, b)), stride=2, padding=1), coef))

    # grad w.r.t. input, weight, and bias separately
    assert T.grad_check(lambda t: T.reduce_sum(T.mul(T.conv2d(t, w, b, stride=2, padding=1), coef)), x) < 1e-6
    assert T.grad_check(lambda t: T.reduce_sum(T.mul(T.conv2d(x, t, b, stride=2, padding=1), coef)), w) < 1e-6
    assert T.grad_check(lambda t: T.reduce_sum(T.mul(T.conv2d(x, w, t, stride=2, padding=1), coef)), b) < 1e-6


def test_conv2d_matches_naive_loop(f64):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    stride, pad = 2, 1
    out = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=pad).data
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ref = np.zeros_like(out)
    for o in range(3):
        for u in range(out.shape[2]):
            for v in range(out.shape[3]):
                ref[0, o, u, v] = np.sum(xp[0, :, u * stride : u * stride + 3, v * stride : v * stride + 3] * w[o])
    assert np.max(np.abs(out - ref)) < 1e-12


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_bitwise_equal_to_padded_form(stride, padding, dtype):
    rng = np.random.default_rng(stride * 10 + padding)
    x = rng.standard_normal((2, 3, 9, 8)).astype(dtype)
    x[0, 0, 0, :3] = [-0.0, np.inf, np.nan]
    w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
    # reference: np.pad, then the strided views stacked into columns
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (xp.shape[2] - 3) // stride + 1
    w_out = (xp.shape[3] - 3) // stride + 1
    views = [xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
             for i in range(3) for j in range(3)]
    cols = np.stack(views, axis=2).reshape(2, 3 * 9, h_out * w_out)
    want = (w.reshape(4, -1) @ cols).reshape(2, 4, h_out, w_out)
    with T.precision("f64" if dtype == np.float64 else "f32"):
        got = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=padding).data
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def composite_reduce_mean(a, axes=None, keepdims=False):
    """The reduce_sum * 1/n graph that reduce_mean replaced, kept as a reference."""
    axes_t = T._norm_axes(axes, a.data.ndim)
    n = 1
    for ax in axes_t:
        n *= a.data.shape[ax]
    return T.mul(T.reduce_sum(a, axes_t, keepdims), T.Tensor(1.0 / n))


def composite_bilinear_upsample(x, out_h, out_w):
    """The reshape -> matmul -> matmul -> reshape chain that bilinear_upsample
    replaced, kept as a reference."""
    *lead, h, w = x.data.shape
    a = T.Tensor(T._interp_matrix(out_h, h, x.data.dtype))
    bmat = T.Tensor(T._interp_matrix(out_w, w, x.data.dtype).T)
    out = T.matmul(T.matmul(a, T.reshape(x, (-1, h, w))), bmat)
    return T.reshape(out, (*lead, out_h, out_w))


def _forward_and_input_grad(op, x_data, coef):
    x = T.Tensor(x_data, requires_grad=True)
    out = op(x)
    T.reduce_sum(T.mul(out, T.Tensor(coef))).backward()
    return np.asarray(out.data), x.grad


def _assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("axes, keepdims", [
    (-1, True), (1, False), ((0, 2), False), ((0, 2), True), (None, False), (None, True),
])
def test_reduce_mean_bitwise_equal_to_composite(mode, axes, keepdims):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 5, 7)) * 10.0
    x[0, 0, :3] = [-0.0, 1e-30, -1e30]
    with T.precision(mode):
        shape = composite_reduce_mean(T.Tensor(x), axes, keepdims).data.shape
        coef = rng.standard_normal(shape)
        got = _forward_and_input_grad(lambda t: T.reduce_mean(t, axes, keepdims), x, coef)
        want = _forward_and_input_grad(lambda t: composite_reduce_mean(t, axes, keepdims), x, coef)
    _assert_same_bytes(got, want)


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("shape, out_hw", [
    ((2, 3, 4, 4), (8, 8)), ((5, 6), (12, 9)), ((1, 2, 3, 8, 8), (16, 16)), ((4, 16, 16), (32, 32)),
])
def test_bilinear_upsample_bitwise_equal_to_composite(mode, shape, out_hw):
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape) * 4.0
    with T.precision(mode):
        coef = rng.standard_normal((*shape[:-2], *out_hw))
        got = _forward_and_input_grad(lambda t: T.bilinear_upsample(t, *out_hw), x, coef)
        want = _forward_and_input_grad(lambda t: composite_bilinear_upsample(t, *out_hw), x, coef)
    _assert_same_bytes(got, want)


def test_bilinear_upsample_constant_preserved(f64):
    x = T.Tensor(np.full((1, 1, 4, 4), 2.5))
    up = T.bilinear_upsample(x, 8, 8)
    assert np.allclose(up.data, 2.5)
    arr = T.bilinear_resize_array(np.full((4, 4), 1.25), 8, 8)
    assert np.allclose(arr, 1.25)


def test_backward_accumulates_through_reuse(f64):
    x = T.Tensor([2.0], requires_grad=True)
    y = T.reduce_sum(x * x + x * 3.0)
    y.backward()
    assert np.allclose(x.grad, [7.0])


def test_backward_through_shared_subexpression(f64):
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    y = x * 2.0
    s = y + y
    T.reduce_sum(s).backward()
    assert np.array_equal(x.grad, [4.0, 4.0])
    # only leaves keep a gradient
    assert y.grad is None and s.grad is None
    a = T.Tensor([1.0, 1.0], requires_grad=True)
    b = T.Tensor([3.0, 3.0], requires_grad=True)
    t = a + b
    u = t + a
    T.reduce_sum(u).backward()
    # b's gradient is the buffer a accumulated onto; that must not change it
    assert np.array_equal(b.grad, [1.0, 1.0])
    assert np.array_equal(a.grad, [2.0, 2.0])


def test_repeated_backward_adds_the_same_gradient(f64):
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    y = x * 3.0
    z = T.reduce_sum(y * y)
    z.backward()
    assert np.array_equal(x.grad, [18.0, -36.0])
    # a second walk must not build on the interior gradients of the first
    z.backward()
    assert np.array_equal(x.grad, [36.0, -72.0])
    assert z.grad is None and y.grad is None


def test_forward_determinism():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)).astype(np.float32)
    b = rng.standard_normal((6, 6)).astype(np.float32)
    r1 = T.matmul(T.Tensor(a), T.Tensor(b)).data
    r2 = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.array_equal(r1, r2)
    s1 = T.softmax(T.Tensor(a), axis=1).data
    s2 = T.softmax(T.Tensor(a), axis=1).data
    assert np.array_equal(s1, s2)


def test_no_grad_suppresses_graph():
    x = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._parents == ()


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((3, 4, 2)).astype(np.float32)
        buf = io.BytesIO()
        T.write_tensor(buf, arr)
        buf.seek(0)
        back = T.read_tensor(buf)
        assert back.dtype == np.float32
        assert np.array_equal(arr, back)

    def test_header_is_json_line(self):
        buf = io.BytesIO()
        T.write_tensor(buf, np.zeros((2, 2), dtype=np.float32))
        buf.seek(0)
        import json

        header = json.loads(buf.readline())
        assert header == {"dtype": "f32", "shape": [2, 2]}

    def test_truncated_raises(self):
        buf = io.BytesIO()
        T.write_tensor(buf, np.zeros(8, dtype=np.float32))
        raw = buf.getvalue()[:-4]
        with pytest.raises(FormatError):
            T.read_tensor(io.BytesIO(raw))

    def test_f64_round_trip(self):
        with T.precision("f64"):
            arr = np.array([1.0, 2.0, 3.0])
            buf = io.BytesIO()
            T.write_tensor(buf, arr)
            buf.seek(0)
            back = T.read_tensor(buf)
            assert back.dtype == np.float64
            assert np.array_equal(arr, back)

    @pytest.mark.parametrize("header", [
        b"[1]", b'{"dtype": "f32", "shape": 5}', b'{"dtype": [1], "shape": [1]}',
        b'{"dtype": "f32", "shape": [1.5]}', b'{"dtype": "f32", "shape": [-1]}',
        b'{"dtype": "f32", "shape": [true]}', b'{"shape": [1]}', b'{"dtype": "f32"}',
        b'{"dtype": "f32", "shape": [0, 100000000000000000000]}',
        b'{"dtype": "f32", "shape": [100000000000000000000]}',
    ])
    def test_bad_header_is_format_error(self, header):
        with pytest.raises(FormatError):
            T.read_tensor(io.BytesIO(header + b"\n" + bytes(8)))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
HEADERS = st.one_of(
    st.binary(max_size=40),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({
        "dtype": st.sampled_from(["f32", "f64", "i4"]) | JSON_VALUES,
        "shape": st.lists(st.integers(-2, 2**66), max_size=4) | JSON_VALUES,
    }).map(lambda v: json.dumps(v).encode()),
)


@settings(max_examples=300, deadline=None)
@given(header=HEADERS, payload=st.binary(max_size=64))
def test_read_tensor_raises_only_knet_errors(header, payload):
    try:
        T.read_tensor(io.BytesIO(header + b"\n" + payload))
    except KnetError:
        pass
