"""Architecture blocks: modulation identities, attention properties,
scan-module contracts."""

import numpy as np
import pytest

from modem import ops
from modem.blocks import (CAB, DSAM, MDSL, MOS2D, DAFMAdapter,
                          DegradationPriors, LevelConditioning, MOS2DConfig,
                          S6ParamHead, cached_order, dafm_apply)
from modem.tensor import ContractError, Tensor, no_grad


C_D, C_D1, C_D2 = 5, 3, 4          # toy prior widths


def toy_cfg(**kw):
    base = dict(channels=4, d_state=3, dt_rank=2, conditioned=True)
    base.update(kw)
    return MOS2DConfig(**base)


def toy_priors(rng):
    return DegradationPriors(
        z_tilde=Tensor(rng.normal(size=4 * C_D)),
        z0=Tensor(rng.normal(size=C_D)),
        z1=Tensor(rng.normal(size=(C_D1, C_D2))),
    )


def toy_cond(rng, cfg):
    adapter = DAFMAdapter(C_D, cfg.channels)
    adapter.proj.weight.data = rng.normal(scale=0.2,
                                          size=adapter.proj.weight.shape)
    dsam = DSAM(cfg.channels, cfg.d_attn, C_D1, C_D2, rng)
    return LevelConditioning.from_priors(adapter, dsam, toy_priors(rng))


class TestDAFM:
    def test_identity_at_init(self, rng):
        adapter = DAFMAdapter(5, 4)
        tokens = Tensor(rng.normal(size=(9, 4)))
        scale, bias = adapter(Tensor(rng.normal(size=5)))
        out = dafm_apply(tokens, scale, bias)
        np.testing.assert_array_equal(out.data, tokens.data)

    def test_affine_semantics(self, rng):
        tokens = Tensor(rng.normal(size=(4, 2)))
        out = dafm_apply(tokens, Tensor(np.array([2.0, -1.0])),
                         Tensor(np.array([0.5, 3.0])))
        np.testing.assert_allclose(out.data[:, 0], tokens.data[:, 0] * 2.0 + 0.5)
        np.testing.assert_allclose(out.data[:, 1], -tokens.data[:, 1] + 3.0)


class TestDSAM:
    def test_rows_sum_to_one(self, rng):
        dsam = DSAM(4, 5, 3, 4, rng)
        att = dsam.attention_matrix(Tensor(rng.normal(size=(3, 4))))
        np.testing.assert_allclose(att.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(att.data > 0)

    def test_uniform_when_logits_zero(self, rng):
        dsam = DSAM(4, 5, 3, 4, rng)
        dsam.w_z.weight.data[:] = 0.0
        dsam.w_z.bias.data[:] = 0.0
        att = dsam.attention_matrix(Tensor(rng.normal(size=(3, 4))))
        np.testing.assert_allclose(att.data, 1.0 / 5.0, atol=1e-15)

    def test_saturation_approaches_one_hot(self, rng):
        dsam = DSAM(4, 5, 3, 4, rng)
        z1 = Tensor(rng.normal(size=(3, 4)) * 100.0)
        att = dsam.attention_matrix(z1).data
        assert np.all(att.max(axis=1) > 0.999)

    def test_forward_is_projection_times_attention(self, rng):
        dsam = DSAM(4, 5, 3, 4, rng)
        tokens = Tensor(rng.normal(size=(6, 4)))
        z1 = Tensor(rng.normal(size=(3, 4)))
        out = dsam(tokens, z1)
        expect = (tokens.data @ dsam.w_f.weight.data.T) @ \
            dsam.attention_matrix(z1).data
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)


class TestS6Head:
    def test_delta_positive_and_in_init_band(self, rng):
        cfg = toy_cfg()
        head = S6ParamHead(cfg, rng)
        f = Tensor(np.zeros((7, cfg.d_attn)))
        delta, b, c = head(f)
        assert np.all(delta.data > 0)
        # zero input: delta = softplus(dt_bias), the sampled init band
        assert np.all(delta.data >= 1e-3 - 1e-12)
        assert np.all(delta.data <= 1e-1 + 1e-12)
        assert b.shape == (7, cfg.d_state)
        assert c.shape == (7, cfg.d_state)

    def test_chunks_are_disjoint_slices(self, rng):
        cfg = toy_cfg()
        head = S6ParamHead(cfg, rng)
        f = rng.normal(size=(5, cfg.d_attn))
        base_delta, base_b, _ = head(Tensor(f))
        # perturbing the C chunk leaves delta and B untouched
        f2 = f.copy()
        f2[:, cfg.dt_rank + cfg.d_state:] += 1.0
        delta2, b2, _ = head(Tensor(f2))
        np.testing.assert_array_equal(delta2.data, base_delta.data)
        np.testing.assert_array_equal(b2.data, base_b.data)

    def test_wrong_width_rejected(self, rng):
        head = S6ParamHead(toy_cfg(), rng)
        with pytest.raises(ContractError):
            head(Tensor(np.zeros((5, 3))))


class TestMOS2D:
    def test_conditioned_requires_conditioning(self, rng):
        block = MOS2D(toy_cfg(), rng)
        with pytest.raises(ContractError):
            block(Tensor(rng.normal(size=(4, 4, 4))))

    def test_unconditioned_forbids_conditioning(self, rng):
        cfg = toy_cfg(conditioned=False)
        block = MOS2D(cfg, rng)
        with pytest.raises(ContractError):
            block(Tensor(rng.normal(size=(4, 4, 4))), toy_cond(rng, toy_cfg()))

    def test_output_shape(self, rng):
        cfg = toy_cfg()
        block = MOS2D(cfg, rng)
        out = block(Tensor(rng.normal(size=(4, 5, 6))), toy_cond(rng, cfg))
        assert out.shape == (4, 5, 6)

    def test_permutation_equivariance_raster_oracle(self, rng):
        # a morton block on feat equals a raster block (same weights) on the
        # image whose raster order is feat's morton order, up to un-permuting
        from modem.scan_orders import build_order
        H = W = 4
        C = 4
        feat = rng.normal(size=(C, H, W))
        perm = build_order(H, W, "morton")
        feat_perm = feat.reshape(C, H * W)[:, perm.forward].reshape(C, H, W)

        morton_block = MOS2D(toy_cfg(scan_kind="morton"),
                             np.random.default_rng(3))
        raster_block = MOS2D(toy_cfg(scan_kind="raster"),
                             np.random.default_rng(3))
        cond = toy_cond(np.random.default_rng(4), toy_cfg())

        out_m = morton_block(Tensor(feat), cond).data.reshape(C, H * W)
        out_r = raster_block(Tensor(feat_perm), cond).data.reshape(C, H * W)
        np.testing.assert_allclose(out_m[:, perm.forward], out_r,
                                   rtol=1e-10, atol=1e-12)

    def test_bidirectional_changes_output(self, rng):
        feat = Tensor(rng.normal(size=(4, 4, 4)))
        uni = MOS2D(toy_cfg(), np.random.default_rng(3))
        bi = MOS2D(toy_cfg(bidirectional=True), np.random.default_rng(3))
        cond = toy_cond(np.random.default_rng(4), toy_cfg())
        assert not np.allclose(uni(feat, cond).data, bi(feat, cond).data)

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_scan_hands_the_kernel_token_major_arrays(self, rng, monkeypatch,
                                                      bidirectional):
        # ssm.CHUNKED_MAX_DN was timed on this layout: a (d, L, N) view with
        # strides (N, +-d*N, 1) elements, forward and reversed
        from modem import ssm
        seen = []
        kernel = ssm._linear_recurrence

        def spy(a, h, T):
            seen.append((h.shape, h.strides, a.strides))
            return kernel(a, h, T)

        monkeypatch.setattr(ssm, "_linear_recurrence", spy)
        cfg = toy_cfg(bidirectional=bidirectional)
        block = MOS2D(cfg, rng)
        feat = Tensor(rng.normal(size=(4, 8, 8)), requires_grad=True)
        (block(feat, toy_cond(rng, cfg)) ** 2).sum().backward()
        assert len(seen) == (4 if bidirectional else 2)
        directions = set()
        for (d, L, N), h_strides, a_strides in seen:
            assert (d, L, N) == (cfg.channels, 64, cfg.d_state)
            for sd, sl, sn in (h_strides, a_strides):
                assert (sd, abs(sl), sn) == (8 * N, 8 * d * N, 8)
            directions.add(h_strides[1] > 0)
        assert directions == {True, False}

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_decompose_output_is_the_scan_output(self, rng, monkeypatch,
                                                 bidirectional):
        cfg = toy_cfg(channels=8, bidirectional=bidirectional)
        block = MOS2D(cfg, rng)
        feat = Tensor(rng.normal(size=(8, 6, 5)))
        cond = toy_cond(rng, cfg)
        scans = []
        scan = block._scan

        def spy(*args):
            out = scan(*args)
            scans.append(out.data)
            return out

        monkeypatch.setattr(block, "_scan", spy)
        with no_grad():
            block(feat, cond)
        ys = scans[0] + scans[1][::-1] if bidirectional else scans[0]
        perm = cached_order(6, 5, cfg.scan_kind)
        _, _, y_map, deviation = block.decompose(feat, cond)
        np.testing.assert_allclose(
            y_map, ys.mean(axis=1)[perm.inverse].reshape(6, 5),
            rtol=1e-12, atol=1e-15)
        assert deviation < 1e-12

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_no_grad_forward_bit_equal_to_recording(self, rng, bidirectional):
        # d*N above the chunked cut and L over one block: without the tape
        # each direction's scan is streamed in blocks
        from modem import ssm
        cfg = toy_cfg(channels=16, d_state=8, bidirectional=bidirectional)
        assert cfg.channels * cfg.d_state > ssm.CHUNKED_MAX_DN
        H, W = 17, 16
        assert H * W > ssm.BLOCK
        block = MOS2D(cfg, rng)
        cond = toy_cond(rng, cfg)
        feat = rng.normal(size=(16, H, W))
        recorded = block(Tensor(feat, requires_grad=True), cond)
        with no_grad():
            plain = block(Tensor(feat), cond)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()

    def test_decompose_identity(self, rng):
        cfg = toy_cfg()
        block = MOS2D(cfg, rng)
        feat = Tensor(rng.normal(size=(4, 4, 4)))
        longrange, local, y, deviation = block.decompose(
            feat, toy_cond(rng, cfg))
        assert deviation == 0.0
        assert longrange.shape == (4, 4)
        assert local.shape == (4, 4)
        assert y.shape == (4, 4)


class TestCAB:
    def test_matches_manual_composition(self, rng):
        cab = CAB(6, rng)
        feat = rng.normal(size=(6, 4, 4))
        out = cab(Tensor(feat)).data
        pooled = feat.mean(axis=(1, 2))
        h = pooled @ cab.fc1.weight.data.T + cab.fc1.bias.data
        h = h / (1 + np.exp(-h))
        g = h @ cab.fc2.weight.data.T + cab.fc2.bias.data
        gate = 1 / (1 + np.exp(-g))
        np.testing.assert_allclose(out, feat * gate[:, None, None], rtol=1e-12)

    def test_gate_bounded(self, rng):
        cab = CAB(4, rng)
        feat = rng.normal(size=(4, 3, 3)) * 100
        out = cab(Tensor(feat)).data
        assert np.all(np.abs(out) <= np.abs(feat) + 1e-12)


class TestMDSL:
    def test_residual_identity_when_branches_zeroed(self, rng):
        cfg = toy_cfg()
        layer = MDSL(cfg, rng)
        layer.mos2d.out_proj.weight.data[:] = 0.0
        layer.mos2d.out_proj.bias.data[:] = 0.0
        layer.conv.weight.data[:] = 0.0
        layer.conv.bias.data[:] = 0.0
        feat = Tensor(rng.normal(size=(4, 4, 4)))
        out = layer(feat, toy_cond(rng, cfg))
        np.testing.assert_array_equal(out.data, feat.data)

    def test_gradient_reaches_all_parameters(self, rng):
        cfg = toy_cfg()
        layer = MDSL(cfg, rng)
        feat = Tensor(rng.normal(size=(4, 4, 4)), requires_grad=True)
        out = layer(feat, toy_cond(rng, cfg))
        (out * out).sum().backward()
        for name, p in layer.parameters().items():
            assert p.grad is not None, name
        assert feat.grad is not None
