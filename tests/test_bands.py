"""The band rule: per-pixel work runs in bands of at most STREAM_TOKENS
pixels.

Off the tape, `ops.conv2d` and MOS2D's token-wise chain run band by band;
on the tape, `conv2d` and `Tensor.matmul` form their products over the
same bands. So both paths give the same bytes at every size, and work on
at most one band's pixels gives the bytes of the whole-array products.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import toy_run_config
from modem import ops, tensor
from modem.blocks import MDSL, DSAM, MOS2D, S6ParamHead
from modem.config import config_from_dict
from modem.nn import Conv2d, Linear, Module
from modem.tensor import STREAM_TOKENS, Tensor, bands, no_grad
from modem.train import build_model

from test_blocks import toy_cfg, toy_cond

BAND = STREAM_TOKENS
# H*W = BAND - 1, BAND and BAND + 1, a row wider than a band, and a width
# that is not a multiple of 8
SIZES = [(63, 65), (64, 64), (17, 241), (1, BAND + 1), (190, 250)]


def whole_im2col(x, k):
    """The columns of the whole image at once: the unbanded reference."""
    C, H, W = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    s0, s1, s2 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(C, k, k, H, W), strides=(s0, s1, s2, s1, s2))
    return view.reshape(C * k * k, H * W)


def model_modules():
    """Every module of the toy and paper models, both stages."""
    found = []

    def walk(value):
        if isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif isinstance(value, Module):
            found.append(value)
            for item in vars(value).values():
                walk(item)

    for cfg in (toy_run_config("unused"), {}):
        for stage in (1, 2):
            walk(build_model(config_from_dict(cfg), stage, draw=False))
    return found


MODULES = model_modules()
CONV_SHAPES = sorted({m.weight.shape for m in MODULES
                      if isinstance(m, Conv2d)})


def token_product_shapes():
    """(k, n) of every (tokens, k) @ (k, n) product of a MOS2D: its Linear
    maps, DSAM's w_f and its (d_attn, d_attn) attention."""
    shapes = set()
    for m in MODULES:
        if isinstance(m, (MOS2D, S6ParamHead)):
            shapes |= {v.weight.shape[::-1] for v in vars(m).values()
                       if isinstance(v, Linear)}
        elif isinstance(m, DSAM):
            shapes |= {m.w_f.weight.shape[::-1], (m.d_attn, m.d_attn)}
    return sorted(shapes)


class TestBands:
    @pytest.mark.parametrize("n, width", [
        (0, 1), (1, 1), (BAND - 1, 1), (BAND, 1), (BAND + 1, 1),
        (3 * BAND + 7, 1), (2 * BAND + 1, 1), (190, 250), (64, 64), (65, 63), (3, BAND + 1)])
    def test_cover_in_order(self, n, width):
        spans = bands(n, width)
        assert [i for s, e in spans for i in range(s, e)] == list(range(n))
        rows = max(1, BAND // width)
        assert all(0 < e - s <= rows for s, e in spans)
        if n * width <= BAND:
            assert len(spans) == min(n, 1)
        elif rows > 1:
            assert spans[-1][1] - spans[-1][0] > 1


class TestConvBands:
    @pytest.mark.parametrize("shape", CONV_SHAPES)
    @pytest.mark.parametrize("hw", [(64, 64), (45, 61)])
    def test_one_band_is_the_whole_gemm(self, rng, shape, hw):
        cout, cin, k, _ = shape
        x = rng.normal(size=(cin, *hw))
        w = rng.normal(size=shape)
        b = rng.normal(size=cout)
        want = (w.reshape(cout, -1) @ whole_im2col(x, k)).reshape(cout, *hw)
        want = want + b[:, None, None]
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hw", SIZES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_bands_of_whole_rows(self, rng, hw, k):
        # each band is one GEMM over its rows' whole-image columns; the
        # bytes may differ from the whole GEMM's by rounding only
        H, W = hw
        x = rng.normal(size=(5, H, W))
        w = rng.normal(size=(6, 5, k, k))
        wmat = w.reshape(6, -1)
        cols = whole_im2col(x, k)
        got = ops.conv2d(Tensor(x), Tensor(w)).data.reshape(6, H * W)
        for r0, r1 in bands(H, W):
            band = np.ascontiguousarray(cols[:, r0 * W:r1 * W])
            assert got[:, r0 * W:r1 * W].tobytes() == (wmat @ band).tobytes()
        np.testing.assert_allclose(got, wmat @ cols, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("hw", [(17, 241), (1, BAND + 1)])
    def test_recording_and_weight_gradient(self, rng, hw):
        x = rng.normal(size=(3, *hw))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        with no_grad():
            plain = ops.conv2d(Tensor(x), Tensor(w), Tensor(b))
        wt = Tensor(w, requires_grad=True)
        recorded = ops.conv2d(Tensor(x), wt, Tensor(b))
        assert plain.data.tobytes() == recorded.data.tobytes()
        gy = rng.normal(size=recorded.shape)
        (recorded * Tensor(gy)).sum().backward()
        # the weight gradient sums over every pixel in one GEMM
        want = (gy.reshape(4, -1) @ whole_im2col(x, 3).T).reshape(w.shape)
        assert wt.grad.tobytes() == want.tobytes()


class TestMatmulBands:
    @pytest.mark.parametrize("kn", token_product_shapes())
    def test_one_band_is_the_whole_gemm(self, rng, kn):
        # token-major operands, as MOS2D hands its tokens to the products
        k, n = kn
        a = rng.normal(size=(k, BAND)).T
        b = rng.normal(size=(n, k)).T
        assert (Tensor(a) @ Tensor(b)).data.tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("rows", [BAND + 1, 3 * BAND + 5])
    def test_rows_above_a_band_run_per_band(self, rng, rows):
        a = rng.normal(size=(rows, 7))
        b = rng.normal(size=(7, 9))
        got = (Tensor(a) @ Tensor(b)).data
        for s, e in bands(rows):
            assert got[s:e].tobytes() == (a[s:e] @ b).tobytes()
        np.testing.assert_allclose(got, a @ b, rtol=1e-13, atol=1e-13)


def unbanded(monkeypatch):
    """Make every pixel count one band: the layer's whole-array products."""
    monkeypatch.setattr(tensor, "STREAM_TOKENS", 1 << 40)


class TestMDSLBands:
    @pytest.mark.parametrize("hw", SIZES)
    @pytest.mark.parametrize("conditioned", [True, False])
    def test_no_grad_bytes_equal_recording(self, rng, hw, conditioned):
        cfg = toy_cfg(channels=8, d_state=4, dt_rank=2,
                      conditioned=conditioned)
        layer = MDSL(cfg, rng)
        cond = toy_cond(rng, cfg) if conditioned else None
        feat = rng.normal(size=(8, *hw))
        recorded = layer(Tensor(feat, requires_grad=True), cond)
        with no_grad():
            plain = layer(Tensor(feat), cond)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("hw", SIZES)
    def test_bands_change_rounding_only(self, rng, monkeypatch, hw):
        cfg = toy_cfg(channels=8, d_state=4, dt_rank=2)
        layer = MDSL(cfg, rng)
        cond = toy_cond(rng, cfg)
        feat = Tensor(rng.normal(size=(8, *hw)))
        with no_grad():
            banded = layer(feat, cond).data
            unbanded(monkeypatch)
            whole = layer(feat, cond).data
        if hw[0] * hw[1] <= BAND:
            assert banded.tobytes() == whole.tobytes()
        np.testing.assert_allclose(banded, whole, rtol=1e-12, atol=1e-13)


def toy_model(rng, stage=2):
    model = build_model(config_from_dict(toy_run_config("unused")), stage)
    out_conv = model.backbone.out_conv.weight    # zero at initialization
    out_conv.data = rng.normal(scale=0.1, size=out_conv.shape)
    return model


class TestModelBands:
    @pytest.mark.parametrize("hw", [(17, 241), (1, BAND + 1), (190, 250)])
    def test_no_grad_bytes_equal_recording(self, rng, hw):
        model = toy_model(rng)
        lq = rng.uniform(size=(3, *hw))
        recorded, priors = model(Tensor(lq, requires_grad=True), Tensor(lq))
        with no_grad():
            plain, plain_priors = model(Tensor(lq), Tensor(lq))
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()
        assert plain_priors.z1.data.tobytes() == priors.z1.data.tobytes()

    def test_no_grad_peak_memory_per_pixel(self, rng):
        # the whole-image temporaries are gone: a toy-width 512 x 512
        # restore forward peaked at 0.98 KB per pixel with whole-image
        # im2col columns and token chains
        model = toy_model(rng)
        side = 512
        lq = rng.uniform(size=(3, side, side))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                model(Tensor(lq), Tensor(lq))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / side**2 <= 490, f"{peak / side**2:.0f} B per pixel"
