import numpy as np
import pytest

from knet import tensor as T
from knet.errors import ConfigError, TrainingError
from knet.optim import AdamW, adamw_step, lr_at, milestone_iterations
from knet.tensor import Tensor


def scalar_reference(theta, grads, lr, wd, betas=(0.9, 0.999), eps=1e-8):
    """Independent scalar AdamW; plain Python floats."""
    b1, b2 = betas
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * (m_hat / (v_hat ** 0.5 + eps) + wd * theta)
    return theta


@pytest.fixture
def f64():
    with T.precision("f64"):
        yield


class TestAdamwStep:
    def test_zero_grad_zero_decay_fixed_point(self):
        theta = np.array([1.0, -2.0])
        out, m, v = adamw_step(theta, np.zeros(2), np.zeros(2), np.zeros(2),
                               1, 1e-3, 0.0)
        assert np.array_equal(out, theta)

    def test_zero_grad_pure_decay(self):
        theta = np.array([2.0])
        lr, wd = 1e-2, 0.1
        out, _, _ = adamw_step(theta, np.zeros(1), np.zeros(1), np.zeros(1), 1, lr, wd)
        assert np.allclose(out, theta * (1 - lr * wd))

    def test_first_step_closed_form(self):
        lr, wd, eps = 1e-3, 0.05, 1e-8
        theta = np.array([0.7])
        out, m, v = adamw_step(theta, np.ones(1), np.zeros(1), np.zeros(1), 1, lr, wd, eps=eps)
        expected = theta - lr * (1.0 / (1.0 + eps) + wd * theta)
        assert np.allclose(out, expected, atol=1e-15)

    def test_hundred_steps_match_scalar_reference(self):
        with T.precision("f64"):
            rng = np.random.default_rng(0)
            grads = rng.standard_normal(100)
            lr, wd = 3e-3, 0.02
            theta = np.array([0.5])
            m = np.zeros(1)
            v = np.zeros(1)
            for t, g in enumerate(grads, start=1):
                theta, m, v = adamw_step(theta, np.array([g]), m, v, t, lr, wd)
            ref = scalar_reference(0.5, grads.tolist(), lr, wd)
            assert abs(theta[0] - ref) < 1e-12


class TestAdamWClass:
    def test_step_updates_and_zero_grad(self):
        p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt = AdamW({"w": p}, lr=1e-2, weight_decay=0.0)
        p.grad = np.ones(3, dtype=np.float32)
        before = p.data.copy()
        opt.step()
        assert not np.array_equal(p.data, before)
        opt.zero_grad()
        assert p.grad is None

    def test_nonfinite_gradient_names_key(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        opt = AdamW({"layer.weight": p}, lr=1e-2)
        p.grad = np.array([np.nan, 0.0], dtype=np.float32)
        with pytest.raises(TrainingError, match="layer.weight"):
            opt.step()

    def test_gradient_dtype_must_match_parameter(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        opt = AdamW({"layer.weight": p}, lr=1e-2)
        p.grad = np.ones(2, dtype=np.float64)
        with pytest.raises(TrainingError, match="layer.weight"):
            opt.step()
        assert p.data.dtype == np.float32 and opt.m["layer.weight"].dtype == np.float32

    def test_idle_parameter_still_decays(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        opt = AdamW({"w": p}, lr=1e-2, weight_decay=0.5)
        opt.step()
        assert np.allclose(p.data, 1.0 - 1e-2 * 0.5)

    def test_state_round_trip(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        opt = AdamW({"w": p}, lr=1e-2)
        p.grad = rng.standard_normal(4).astype(np.float32)
        opt.step()
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
        opt2 = AdamW({"w": p}, lr=1e-2)
        opt2.load_state_arrays(arrays, opt.t)
        assert opt2.t == 1
        assert np.array_equal(opt2.m["w"], opt.m["w"])
        assert np.array_equal(opt2.v["w"], opt.v["w"])


def per_parameter_reference(init, grad_steps, lrs, wd):
    """AdamW as one ``adamw_step`` call per parameter; idle ones decay."""
    theta = {k: a.copy() for k, a in init.items()}
    m = {k: np.zeros_like(a) for k, a in init.items()}
    v = {k: np.zeros_like(a) for k, a in init.items()}
    for t, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        for key in theta:
            g = grads.get(key, np.zeros_like(theta[key]))
            theta[key], m[key], v[key] = adamw_step(theta[key], g, m[key], v[key], t, lr, wd)
    return theta, m, v


class TestOneCallStep:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_per_parameter_loop(self, dtype):
        rng = np.random.default_rng(9)
        shapes = {"conv": (4, 3, 3, 3), "bias": (4,), "mat": (5, 6), "scalar": (1,), "idle": (2, 3)}
        init = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        grad_steps = []
        for step in range(4):
            grads = {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
                     for k, s in shapes.items() if k != "idle"}
            grads["mat"] = np.ascontiguousarray(grads["mat"].T).T     # a strided gradient
            if step == 2:
                del grads["bias"]                                     # idle for one step
            grad_steps.append(grads)
        lrs = [lr_at(1e-2, it, [2]) for it in range(4)]               # drops before step 3
        with T.precision("f64" if dtype == np.float64 else "f32"):
            params = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
            opt = AdamW(params, lr=1e-2, weight_decay=0.05)
            for grads, lr in zip(grad_steps, lrs):
                for key, p in params.items():
                    p.grad = grads.get(key)
                opt.step(lr)
        theta, m, v = per_parameter_reference(init, grad_steps, lrs, 0.05)
        for key in shapes:
            for got, want in ((params[key].data, theta[key]), (opt.m[key], m[key]),
                              (opt.v[key], v[key])):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), key
        assert not np.array_equal(theta["idle"], init["idle"])

    def test_error_names_first_bad_parameter_and_leaves_state(self):
        params = {k: Tensor(np.ones(2, dtype=np.float32), requires_grad=True) for k in "abc"}
        opt = AdamW(params, lr=1e-2)
        params["a"].grad = np.ones(2, dtype=np.float32)
        params["b"].grad = np.array([np.inf, 0.0], dtype=np.float32)
        params["c"].grad = np.ones(2, dtype=np.float64)
        with pytest.raises(TrainingError, match="non-finite gradient in parameter 'b'"):
            opt.step()
        assert all(np.array_equal(p.data, np.ones(2)) for p in params.values())

    def test_parameters_of_mixed_dtypes_rejected(self):
        p32 = Tensor(np.ones(2), requires_grad=True)
        with T.precision("f64"):
            p64 = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"a": p32, "b": p64}, lr=1e-2)
        p32.grad, p64.grad = np.ones(2, dtype=np.float32), np.ones(2)
        with pytest.raises(TrainingError, match="share one dtype"):
            opt.step()

    def test_float32_gradient_of_float64_parameter_rejected(self, f64):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"w": p}, lr=1e-2)
        p.grad = np.ones(2, dtype=np.float32)
        with pytest.raises(TrainingError, match="'w' is float32"):
            opt.step()


class TestSchedule:
    def test_milestone_iterations(self):
        assert milestone_iterations(1200, (2 / 3, 11 / 12)) == [800, 1100]

    def test_invalid_milestones(self):
        with pytest.raises(ConfigError):
            milestone_iterations(100, (0.9, 0.5))
        with pytest.raises(ConfigError):
            milestone_iterations(100, (0.0, 0.5))

    def test_piecewise_constant_with_exact_drops(self):
        milestones = [80, 110]
        lrs = [lr_at(1e-4, it, milestones) for it in range(120)]
        assert all(lr == pytest.approx(1e-4) for lr in lrs[:80])
        assert all(lr == pytest.approx(1e-5) for lr in lrs[80:110])
        assert all(lr == pytest.approx(1e-6) for lr in lrs[110:])
        assert lrs[79] != lrs[80] and lrs[109] != lrs[110]
