"""Tape autodiff engine: every primitive against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modem.tensor import ContractError, ShapeError, Tensor, no_grad

EPS = 1e-6


def fd_grad(fn, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of scalar fn at x."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_unary(op_name, np_fn, data, tol=1e-6, **kwargs):
    x = Tensor(data.copy(), requires_grad=True)
    out = getattr(x, op_name)(**kwargs)
    np.testing.assert_allclose(out.data, np_fn(data), rtol=1e-12, atol=1e-12)
    out.sum().backward()
    fd = fd_grad(lambda a: float(np_fn(a).sum()), data.copy())
    np.testing.assert_allclose(x.grad, fd, rtol=tol, atol=tol)


class TestElementwise:
    def test_add_broadcast_grad(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))

    def test_mul_grad(self, rng):
        ad = rng.normal(size=(2, 3))
        bd = rng.normal(size=(2, 3))
        a = Tensor(ad.copy(), requires_grad=True)
        b = Tensor(bd.copy(), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, bd)
        np.testing.assert_allclose(b.grad, ad)

    def test_pow_grad(self, rng):
        d = np.abs(rng.normal(size=5)) + 0.5
        x = Tensor(d.copy(), requires_grad=True)
        (x ** 3).sum().backward()
        np.testing.assert_allclose(x.grad, 3 * d ** 2, rtol=1e-12)

    def test_sub_neg(self, rng):
        a = Tensor(rng.normal(size=4), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(4))
        np.testing.assert_array_equal(b.grad, -np.ones(4))

    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "abs", "sigmoid",
                                    "silu", "softplus"])
    def test_unary_fd(self, op, rng):
        data = np.abs(rng.normal(size=(3, 4))) + 0.5  # positive, away from 0
        np_fns = {
            "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
            "sigmoid": lambda a: 1 / (1 + np.exp(-a)),
            "silu": lambda a: a / (1 + np.exp(-a)),
            "softplus": lambda a: np.log1p(np.exp(a)),
        }
        check_unary(op, np_fns[op], data)

    def test_sigmoid_softplus_extreme_logits(self):
        x = Tensor(np.array([-700.0, -50.0, 0.0, 50.0, 700.0]),
                   requires_grad=True)
        s = x.sigmoid()
        assert np.all(np.isfinite(s.data))
        sp = x.softplus()
        assert np.all(np.isfinite(sp.data))
        (s.sum() + sp.sum()).backward()
        assert np.all(np.isfinite(x.grad))

    def test_sigmoid_softplus_bits_match_reference(self, rng):
        # exp(-|x|) is evaluated once per activation; the bytes are those
        # of the formulas that evaluate it at every use
        x = np.concatenate([rng.normal(scale=30.0, size=200),
                            [-800.0, -0.0, 0.0, 800.0, -np.inf, np.inf]])
        w = rng.normal(size=x.shape)

        def sig_ref(v):
            return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                            np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))

        sp_ref = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        for op, want, grad in (
                ("sigmoid", sig_ref(x), w * sig_ref(x) * (1.0 - sig_ref(x))),
                ("softplus", sp_ref, w * sig_ref(x))):
            t = Tensor(x.copy(), requires_grad=True)
            out = getattr(t, op)()
            (out * Tensor(w)).sum().backward()
            assert out.data.tobytes() == want.tobytes(), op
            # + 0.0: gradient accumulation turns -0.0 into 0.0
            assert t.grad.tobytes() == (grad + 0.0).tobytes(), op

    def test_softmax_extreme_logits(self):
        x = Tensor(np.array([700.0, 0.0, -700.0]), requires_grad=True)
        p = x.softmax()
        assert np.all(np.isfinite(p.data))
        assert abs(p.data.sum() - 1.0) < 1e-12
        lp = x.log_softmax()
        assert np.all(np.isfinite(lp.data))

    def test_softmax_grad_fd(self, rng):
        d = rng.normal(size=(2, 5))
        x = Tensor(d.copy(), requires_grad=True)
        w = rng.normal(size=(2, 5))
        (x.softmax(axis=-1) * Tensor(w)).sum().backward()

        def f(a):
            e = np.exp(a - a.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

        np.testing.assert_allclose(x.grad, fd_grad(f, d.copy()),
                                   rtol=1e-5, atol=1e-7)

    def test_log_softmax_grad_fd(self, rng):
        d = rng.normal(size=6)
        x = Tensor(d.copy(), requires_grad=True)
        w = rng.normal(size=6)
        (x.log_softmax() * Tensor(w)).sum().backward()

        def f(a):
            return float(((a - np.log(np.exp(a - a.max()).sum()) - a.max()) * w).sum())

        np.testing.assert_allclose(x.grad, fd_grad(f, d.copy()),
                                   rtol=1e-5, atol=1e-7)


class TestDivision:
    def test_strict_raises_on_zero(self):
        with pytest.raises(ZeroDivisionError):
            Tensor(np.ones(3)) / Tensor(np.array([1.0, 0.0, 2.0]))

    def test_div_grad(self, rng):
        ad = rng.normal(size=4)
        bd = np.abs(rng.normal(size=4)) + 1.0
        a = Tensor(ad.copy(), requires_grad=True)
        b = Tensor(bd.copy(), requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1 / bd, rtol=1e-12)
        np.testing.assert_allclose(b.grad, -ad / bd ** 2, rtol=1e-12)


class TestShapeOps:
    def test_reshape_transpose_roundtrip_grad(self, rng):
        d = rng.normal(size=(2, 3, 4))
        x = Tensor(d.copy(), requires_grad=True)
        (x.reshape(6, 4).T.reshape(2, 2, 6) * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3, 4), 2.0))

    def test_take_permutation_grad(self, rng):
        d = rng.normal(size=(5, 3))
        perm = np.array([3, 1, 4, 0, 2])
        x = Tensor(d.copy(), requires_grad=True)
        w = rng.normal(size=(5, 3))
        (x.take(perm) * Tensor(w)).sum().backward()
        expect = np.zeros_like(d)
        expect[perm] = w
        np.testing.assert_array_equal(x.grad, expect)

    def test_take_grad_fd(self, rng):
        d = rng.normal(size=(7, 3))
        perm = rng.permutation(7)
        w = rng.normal(size=(7, 3))
        x = Tensor(d.copy(), requires_grad=True)
        ((x.take(perm) ** 2) * Tensor(w)).sum().backward()
        np.testing.assert_allclose(
            x.grad, fd_grad(lambda a: float((a[perm] ** 2 * w).sum()),
                            d.copy()), rtol=1e-5, atol=1e-7)

    def test_take_backward_bytes_equal_scatter_add(self, rng):
        # the inverse gather against the general gather's scatter-add rule
        for shape in ((1000,), (513, 7), (64, 3, 5)):
            perm = rng.permutation(shape[0])
            grad = rng.normal(size=shape)
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            (x.take(perm) * Tensor(grad)).sum().backward()
            want = np.zeros(shape)
            np.add.at(want, perm, grad)
            assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [[0, 0, 2], [0, 1], [0, 1, 2, 3],
                                       [0, 1, 3], [-1, 0, 1], [[0, 1, 2]]])
    def test_take_rejects_non_permutation(self, order):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with pytest.raises(ContractError):
            x.take(np.array(order))

    def test_concat_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        out = Tensor.concat([a, b], axis=0)
        assert out.shape == (3, 3)
        (out * 3.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 3.0))
        np.testing.assert_array_equal(b.grad, np.full((1, 3), 3.0))

    def test_slice_axis_grad(self, rng):
        d = rng.normal(size=(4, 5))
        x = Tensor(d.copy(), requires_grad=True)
        x.slice_axis(1, 1, 3).sum().backward()
        expect = np.zeros((4, 5))
        expect[:, 1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

    def test_reflect_pad_values(self):
        d = np.arange(12.0).reshape(1, 3, 4)
        out = Tensor(d).reflect_pad2d(2, 1)
        np.testing.assert_array_equal(out.data, np.pad(
            d, ((0, 0), (0, 2), (0, 1)), mode="reflect"))

    def test_reflect_pad_grad_folds_back(self):
        d = np.arange(6.0).reshape(1, 2, 3)
        x = Tensor(d.copy(), requires_grad=True)
        x.reflect_pad2d(1, 1).sum().backward()
        expect = np.zeros((1, 2, 3))
        for i in range(3):
            for j in range(4):
                expect[0, abs(i if i < 2 else 2 * 2 - 2 - i),
                       abs(j if j < 3 else 2 * 3 - 2 - j)] += 1
        np.testing.assert_array_equal(x.grad, expect)

    @pytest.mark.parametrize("H", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("W", [1, 2, 3, 4, 5])
    def test_reflect_pad_any_size_matches_np_pad_and_fd(self, H, W):
        # pads up to twice the extent and beyond reflect more than once
        rng = np.random.default_rng(10 * H + W)
        d = rng.normal(size=(2, H, W))
        for ph in range(2 * H + 2):
            for pw in range(2 * W + 2):
                weights = rng.normal(size=(2, H + ph, W + pw))
                x = Tensor(d.copy(), requires_grad=True)
                out = x.reflect_pad2d(ph, pw)
                np.testing.assert_array_equal(out.data, np.pad(
                    d, ((0, 0), (0, ph), (0, pw)), mode="reflect"))
                (out * Tensor(weights)).sum().backward()
                fd = fd_grad(lambda a: float((np.pad(
                    a, ((0, 0), (0, ph), (0, pw)), mode="reflect")
                    * weights).sum()), d.copy())
                np.testing.assert_allclose(x.grad, fd, rtol=1e-7, atol=1e-7)


class TestMatmul:
    @pytest.mark.parametrize("sa,sb", [
        ((4,), (4,)), ((4,), (4, 3)), ((3, 4), (4,)), ((3, 4), (4, 2)),
        ((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5)),
    ])
    def test_matmul_fd(self, sa, sb, rng):
        ad = rng.normal(size=sa)
        bd = rng.normal(size=sb)
        a = Tensor(ad.copy(), requires_grad=True)
        b = Tensor(bd.copy(), requires_grad=True)
        out = a @ b
        np.testing.assert_allclose(out.data, ad @ bd, rtol=1e-12)
        (out * out).sum().backward()
        fa = fd_grad(lambda x: float(((x @ bd) ** 2).sum()), ad.copy())
        fb = fd_grad(lambda x: float(((ad @ x) ** 2).sum()), bd.copy())
        np.testing.assert_allclose(a.grad, fa, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(b.grad, fb, rtol=1e-5, atol=1e-7)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


class TestGraph:
    def test_diamond_reuse_accumulates(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x * 2.0
        y.backward()
        assert x.grad == pytest.approx(2 * 3.0 + 2.0)

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._parents == ()

    def test_mean_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6))

    def test_sum_axis_keepdims(self, rng):
        d = rng.normal(size=(2, 3, 4))
        x = Tensor(d.copy(), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
def test_softmax_sums_to_one(vals):
    p = Tensor(np.array(vals)).softmax()
    assert abs(float(p.data.sum()) - 1.0) < 1e-9
