"""Structured ops: convolution, normalization, pixel shuffling, pooling."""

import numpy as np
import pytest

from modem import ops
from modem.tensor import ShapeError, Tensor

import composed_refs
from test_tensor import fd_grad


def conv2d_oracle(x, w, b, stride=1):
    """Direct nested-loop same-padded convolution (cross-correlation)."""
    c_out, c_in, k, _ = w.shape
    _, H, W = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((c_in, H + 2 * pad, W + 2 * pad))
    xp[:, pad:pad + H, pad:pad + W] = x
    Ho, Wo = H // stride, W // stride
    out = np.zeros((c_out, Ho, Wo))
    for o in range(c_out):
        for i in range(Ho):
            for j in range(Wo):
                patch = xp[:, i * stride:i * stride + k, j * stride:j * stride + k]
                out[o, i, j] = (patch * w[o]).sum() + (b[o] if b is not None else 0.0)
    return out


class TestConv2d:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_loop_oracle(self, k, rng):
        x = rng.normal(size=(2, 6, 5))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv2d_oracle(x, w, b),
                                   rtol=1e-12, atol=1e-12)

    def test_gradients_fd(self, rng):
        xd = rng.normal(size=(2, 4, 4))
        wd = rng.normal(size=(2, 2, 3, 3))
        bd = rng.normal(size=2)
        x = Tensor(xd.copy(), requires_grad=True)
        w = Tensor(wd.copy(), requires_grad=True)
        b = Tensor(bd.copy(), requires_grad=True)
        out = ops.conv2d(x, w, b)
        (out * out).sum().backward()

        def loss(xx, ww, bb):
            return float((conv2d_oracle(xx, ww, bb) ** 2).sum())

        np.testing.assert_allclose(
            x.grad, fd_grad(lambda a: loss(a, wd, bd), xd.copy()),
            rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(
            w.grad, fd_grad(lambda a: loss(xd, a, bd), wd.copy()),
            rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(
            b.grad, fd_grad(lambda a: loss(xd, wd, a), bd.copy()),
            rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("bias", [True, False])
    def test_frozen_parents_get_no_gradient(self, rng, bias):
        # a frozen weight skips the weight gradient (and its im2col
        # rebuild), an input image the input gradient; the gradients that
        # are formed keep their bytes
        xd, wd = rng.normal(size=(3, 9, 7)), rng.normal(size=(4, 3, 3, 3))
        bd = rng.normal(size=4) if bias else None
        grad = rng.normal(size=(4, 9, 7))

        def rule(x_grad, w_grad):
            b = Tensor(bd, requires_grad=True) if bias else None
            return ops.conv2d(Tensor(xd, requires_grad=x_grad),
                              Tensor(wd, requires_grad=w_grad), b
                              )._backward(grad)

        gx, gw, gb = rule(True, True)
        assert (gb is not None) == bias
        fx, fw, fb = rule(True, False)
        assert fw is None and fx.tobytes() == gx.tobytes()
        ix, iw, ib = rule(False, True)
        assert ix is None and iw.tobytes() == gw.tobytes()
        if bias:
            assert fb.tobytes() == gb.tobytes() == ib.tobytes()

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            ops.conv2d(Tensor(rng.normal(size=(1, 4, 4))),
                       Tensor(rng.normal(size=(1, 1, 2, 2))), None)


class TestPixelShuffle:
    def test_roundtrip(self, rng):
        x = rng.normal(size=(3, 4, 6))
        t = ops.pixel_shuffle(ops.pixel_unshuffle(Tensor(x), 2), 2)
        np.testing.assert_array_equal(t.data, x)

    def test_unshuffle_layout(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        out = ops.pixel_unshuffle(Tensor(x), 2).data
        assert out.shape == (4, 2, 2)
        # each output channel is one sub-pixel phase
        np.testing.assert_array_equal(out[0], x[0, 0::2, 0::2])
        np.testing.assert_array_equal(out[1], x[0, 0::2, 1::2])
        np.testing.assert_array_equal(out[2], x[0, 1::2, 0::2])
        np.testing.assert_array_equal(out[3], x[0, 1::2, 1::2])

    def test_grad_is_permutation(self, rng):
        d = rng.normal(size=(1, 4, 4))
        x = Tensor(d.copy(), requires_grad=True)
        w = rng.normal(size=(4, 2, 2))
        (ops.pixel_unshuffle(x, 2) * Tensor(w)).sum().backward()
        np.testing.assert_allclose(
            x.grad, ops.pixel_shuffle(Tensor(w), 2).data)


def affine(rng, c):
    return (Tensor(rng.normal(size=(c, 1, 1)), requires_grad=True),
            Tensor(rng.normal(size=(c, 1, 1)), requires_grad=True))


def fused_and_composed(fused, composed, arrays, requires, weights):
    """Forward bytes and every gradient (None where none is taken) of
    fused(*inputs) and composed(*inputs). Every input also feeds a second
    consumer whose gradient is added first, as MDSL's residual sums are, so
    the order in which the op adds its own is checked too."""
    results = []
    for op in (fused, composed):
        ts = [Tensor(a.copy(), requires_grad=r)
              for a, r in zip(arrays, requires)]
        xs = [t * 1.5 for t in ts]
        out = op(*xs)
        for x in xs:
            out = x * 0.25 + out
        (out * Tensor(weights)).sum().backward()
        results.append([out.data] + [t.grad for t in ts])
    return results


def assert_same_bytes(a, b):
    for u, v in zip(a, b):
        assert (u is None) == (v is None)
        assert u is None or u.tobytes() == v.tobytes()


# (C, H, W) at toy and paper widths, with at most STREAM_TOKENS pixels (one
# band of a no-grad forward) and more, and with arrays below and above the
# 256 KiB from which numpy computes an expression into its temporaries
WIDTHS = [(8, 16, 16), (8, 65, 64), (36, 32, 32), (96, 64, 72)]


class TestLayerNorm:
    def test_normalizes_channel_axis(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 5, 5))
        ones, zeros = Tensor(np.ones((8, 1, 1))), Tensor(np.zeros((8, 1, 1)))
        out = ops.layer_norm(Tensor(x), ones, zeros, 1e-6).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-4)

    def test_grad_fd(self, rng):
        d = rng.normal(size=(4, 3, 3))
        gd, bd = rng.normal(size=(4, 1, 1)), rng.normal(size=(4, 1, 1))
        x = Tensor(d.copy(), requires_grad=True)
        gamma, beta = (Tensor(gd.copy(), requires_grad=True),
                       Tensor(bd.copy(), requires_grad=True))
        w = rng.normal(size=(4, 3, 3))
        (ops.layer_norm(x, gamma, beta, 1e-6) * Tensor(w)).sum().backward()

        def f(a, g, b):
            mu = a.mean(axis=0, keepdims=True)
            var = ((a - mu) ** 2).mean(axis=0, keepdims=True)
            return float((((a - mu) / np.sqrt(var + 1e-6) * g + b) * w).sum())

        for t, fd in [(x, fd_grad(lambda a: f(a, gd, bd), d.copy())),
                      (gamma, fd_grad(lambda g: f(d, g, bd), gd.copy())),
                      (beta, fd_grad(lambda b: f(d, gd, b), bd.copy()))]:
            np.testing.assert_allclose(t.grad, fd, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("shape", WIDTHS)
    @pytest.mark.parametrize("requires", [(True, True, True),
                                          (True, False, False),
                                          (False, True, True)])
    def test_composed_bytes(self, rng, shape, requires):
        C = shape[0]
        arrays = [rng.normal(loc=0.5, scale=3.0, size=shape),
                  rng.normal(size=(C, 1, 1)), rng.normal(size=(C, 1, 1))]
        fused, composed = fused_and_composed(
            lambda x, g, b: ops.layer_norm(x, g, b, 1e-6),
            composed_refs.layer_norm, arrays, requires,
            rng.normal(size=shape))
        assert_same_bytes(fused, composed)

    def test_one_tape_node(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        out = ops.layer_norm(x, *affine(rng, 4), 1e-6)
        assert [p is x for p in out._parents[:2]] == [True, True]
        assert len(out._parents) == 4

    def test_frozen_parents_get_no_gradient(self, rng):
        grad = rng.normal(size=(4, 3, 3))
        x = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        gamma, beta = affine(rng, 4)
        full = ops.layer_norm(x, gamma, beta, 1e-6)._backward(grad)
        frozen = ops.layer_norm(x, Tensor(gamma.data), Tensor(beta.data),
                                1e-6)._backward(grad)
        assert frozen[2:] == (None, None)
        assert_same_bytes(frozen[:2], full[:2])
        image = ops.layer_norm(Tensor(x.data), gamma, beta,
                               1e-6)._backward(grad)
        assert image[:2] == (None, None)
        assert_same_bytes(image[2:], full[2:])

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            ops.layer_norm(Tensor(np.zeros((0, 2, 2))), Tensor(np.ones(0)),
                           Tensor(np.zeros(0)), 1e-6)


class TestSiluGate:
    def test_grad_fd(self, rng):
        yd, zd = rng.normal(size=(5, 3)), rng.normal(scale=3.0, size=(5, 3))
        y = Tensor(yd.copy(), requires_grad=True)
        z = Tensor(zd.copy(), requires_grad=True)
        w = rng.normal(size=(5, 3))
        (ops.silu_gate(y, z) * Tensor(w)).sum().backward()

        def f(a, b):
            return float((a * b / (1.0 + np.exp(-b)) * w).sum())

        np.testing.assert_allclose(y.grad, fd_grad(lambda a: f(a, zd),
                                                   yd.copy()), rtol=1e-6)
        np.testing.assert_allclose(z.grad, fd_grad(lambda b: f(yd, b),
                                                   zd.copy()),
                                   rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("shape", [(C, H * W) for C, H, W in WIDTHS])
    @pytest.mark.parametrize("requires", [(True, True), (True, False),
                                          (False, True)])
    def test_composed_bytes(self, rng, shape, requires):
        L, C = shape[1], shape[0]
        arrays = [rng.normal(size=(L, C)),
                  rng.normal(scale=4.0, size=(L, C))]
        arrays[1][:3] = [[40.0], [-800.0], [0.0]]  # both sigmoid tails
        fused, composed = fused_and_composed(
            ops.silu_gate, composed_refs.silu_gate, arrays, requires,
            rng.normal(size=(L, C)))
        assert_same_bytes(fused, composed)

    def test_frozen_parents_get_no_gradient(self, rng):
        yd, zd, grad = (rng.normal(size=(6, 4)) for _ in range(3))
        full = ops.silu_gate(Tensor(yd, requires_grad=True),
                             Tensor(zd, requires_grad=True))._backward(grad)
        gy, *gz = ops.silu_gate(Tensor(yd, requires_grad=True),
                                Tensor(zd))._backward(grad)
        assert gz == [None, None] and gy.tobytes() == full[0].tobytes()
        gy, *gz = ops.silu_gate(Tensor(yd),
                                Tensor(zd, requires_grad=True))._backward(grad)
        assert gy is None
        assert_same_bytes(gz, full[1:])

    def test_shapes_must_match(self, rng):
        with pytest.raises(ShapeError):
            ops.silu_gate(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 1))))


class TestPooling:
    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(5, 3, 4))
        out = ops.global_avg_pool(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(1, 2)))
