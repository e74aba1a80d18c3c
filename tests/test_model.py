"""Estimation network, backbone, and checkpoint serialization."""

import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modem.model import (Backbone, BackboneConfig, CheckpointFormatError,
                         DDEM, DDEMConfig, RestorationModel, load_checkpoint,
                         save_checkpoint)
from modem.tensor import ContractError, Tensor


def tiny_ddem_cfg():
    return DDEMConfig(channels=6, num_groups=1, mdsl_per_group=1, d_state=3,
                      dt_rank=2)


def tiny_backbone_cfg():
    return BackboneConfig(base_channels=6, group_depths=(1, 1, 1),
                          refinement_depth=1, c_d=8, c_d1=4, c_d2=5,
                          d_state=3, dt_rank=2)


def tiny_ddem(rng, stage=1):
    return DDEM(tiny_ddem_cfg(), tiny_backbone_cfg(), stage, rng)


def tiny_model(seed):
    return RestorationModel(tiny_ddem_cfg(), tiny_backbone_cfg(), 1, seed=seed)


def state_of(module):
    """A copy of every parameter of `module`, by name."""
    return {k: v.data.copy() for k, v in module.parameters().items()}


class TestDDEM:
    def test_prior_shapes(self, rng):
        cfg = tiny_backbone_cfg()
        ddem = tiny_ddem(rng)
        priors = ddem(Tensor(rng.normal(size=(6, 8, 8))))
        assert priors.z_tilde.shape == (4 * cfg.c_d,)
        assert priors.z0.shape == (cfg.c_d,)
        assert priors.z1.shape == (cfg.c_d1, cfg.c_d2)

    def test_z1_is_normalized_gram(self, rng):
        cfg = tiny_backbone_cfg()
        ddem = tiny_ddem(rng)
        image = Tensor(rng.normal(size=(6, 5, 7)))
        priors = ddem(image)
        # recompute the Gram product from the projection outputs
        feat = ddem.stem(image)
        for group in ddem.groups:
            res = feat
            for layer in group:
                feat = layer(feat)
            feat = feat + res
        _, H, W = feat.shape
        p1 = ddem.kernel_proj1(feat).data.reshape(cfg.c_d1, H * W)
        p2 = ddem.kernel_proj2(feat).data.reshape(cfg.c_d2, H * W)
        np.testing.assert_allclose(priors.z1.data, p1 @ p2.T / (H * W),
                                   rtol=1e-12)

    def test_wrong_channel_count(self, rng):
        ddem = tiny_ddem(rng)
        with pytest.raises(ContractError):
            ddem(Tensor(rng.normal(size=(3, 8, 8))))

    def test_three_channel_variant(self, rng):
        ddem = tiny_ddem(rng, stage=2)
        priors = ddem(Tensor(rng.normal(size=(3, 8, 8))))
        assert priors.z0.shape == (8,)


class TestBackbone:
    def test_identity_at_init(self, rng):
        cfg = tiny_backbone_cfg()
        bb = Backbone(cfg, rng)
        ddem = tiny_ddem(np.random.default_rng(1))
        priors = ddem(Tensor(rng.normal(size=(6, 8, 8))))
        image = rng.uniform(size=(3, 8, 8))
        out = bb(Tensor(image), priors)
        np.testing.assert_array_equal(out.data, image)

    @pytest.mark.parametrize("hw", [(8, 8), (7, 9), (10, 6), (5, 5)])
    def test_padding_preserves_extents(self, hw, rng):
        H, W = hw
        bb = Backbone(tiny_backbone_cfg(), rng)
        ddem = tiny_ddem(np.random.default_rng(1))
        priors = ddem(Tensor(rng.normal(size=(6, 8, 8))))
        out = bb(Tensor(rng.uniform(size=(3, H, W))), priors)
        assert out.shape == (3, H, W)

    def test_requires_priors(self, rng):
        bb = Backbone(tiny_backbone_cfg(), rng)
        with pytest.raises(ContractError):
            bb(Tensor(rng.uniform(size=(3, 8, 8))), None)

    def test_even_depth_list_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(group_depths=(2, 2))


class TestRestorationModel:
    def test_deterministic_init(self):
        m1 = tiny_model(5)
        m2 = tiny_model(5)
        for (n1, p1), (n2, p2) in zip(sorted(m1.parameters().items()),
                                      sorted(m2.parameters().items())):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_different_seeds_differ(self):
        m1 = tiny_model(5)
        m2 = tiny_model(6)
        same = all(np.array_equal(p1.data, p2.data)
                   for p1, p2 in zip(m1.parameters().values(),
                                     m2.parameters().values()))
        assert not same

    def test_param_count_invariant_to_seed(self):
        m1 = tiny_model(0)
        m2 = tiny_model(9)
        assert m1.num_parameters() == m2.num_parameters()

    def test_forward_pipeline(self, rng):
        model = tiny_model(0)
        lq = Tensor(rng.uniform(size=(3, 8, 8)))
        pair = Tensor(rng.uniform(size=(6, 8, 8)))
        restored, priors = model(lq, pair)
        assert restored.shape == (3, 8, 8)
        assert priors.z0.shape == (8,)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        tensors = {
            "a.weight": rng.normal(size=(3, 4)),
            "b.bias": rng.normal(size=7),
            "scalar": np.array(3.5),
            "deep.nested.0.name": rng.normal(size=(2, 2, 2, 2)),
        }
        path = str(tmp_path / "test.ckpt")
        save_checkpoint(path, tensors, stage=2)
        loaded, stage = load_checkpoint(path)
        assert stage == 2
        assert set(loaded) == set(tensors)
        for k in tensors:
            assert loaded[k].tobytes() == tensors[k].tobytes()

    @pytest.mark.parametrize("arr", [
        np.array(3.5), np.empty(0), np.empty((2, 0, 3)),
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(6.0)[::2], np.arange(5, dtype=np.float32) / 3,
        np.arange(4, dtype=np.int64), np.arange(3.0).astype(">f8"),
    ], ids=["0d", "empty", "empty-3d", "f-order", "strided", "float32",
            "int64", "big-endian"])
    def test_bytes_equal_joined_payload(self, tmp_path, rng, arr):
        """The streamed file equals the payload the old joined writer
        built, for every kind of array the writer converts or skips."""
        tensors = {"first": rng.normal(size=(2, 3)), "odd": arr,
                   "last": np.array(-0.0)}
        parts = [b"MODM", struct.pack("<II B", 1, len(tensors), 2)]
        for name, a in tensors.items():
            data = np.require(a, "<f8", "C")
            parts += [struct.pack("<H", len(name)), name.encode(),
                      struct.pack("<B", data.ndim),
                      struct.pack(f"<{data.ndim}Q", *data.shape), data]
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(path, tensors, stage=2)
        assert open(path, "rb").read() == b"".join(parts)

    def test_save_streams_live_arrays(self, tmp_path, rng):
        """Saving 64 MB of C-contiguous float64 allocates next to nothing:
        no copy of any array and no joined payload."""
        tensors = {f"w{i}": rng.normal(size=(1024, 1024)) for i in range(8)}
        path = str(tmp_path / "big.ckpt")
        save_checkpoint(str(tmp_path / "warm.ckpt"), {"w": np.ones(2)}, 1)
        tracemalloc.start()
        try:
            save_checkpoint(path, tensors, stage=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert os.path.getsize(path) > 64 * 2**20
        assert peak < 256 * 1024

    def test_truncated_file_rejected(self, tmp_path, rng):
        path = str(tmp_path / "trunc.ckpt")
        save_checkpoint(path, {"w": rng.normal(size=(4, 4))}, stage=1)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-9])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        open(path, "wb").write(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = str(tmp_path / "trail.ckpt")
        save_checkpoint(path, {"w": rng.normal(size=3)}, stage=1)
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_name_mismatch_on_load_state(self, tmp_path):
        model = tiny_model(0)
        state = state_of(model)
        state["bogus.weight"] = np.zeros(3)
        with pytest.raises(KeyError):
            model.load_state(state)
        del state["bogus.weight"]
        first = next(iter(state))
        del state[first]
        with pytest.raises(KeyError):
            model.load_state(state)

    def test_model_state_roundtrip(self, tmp_path, rng):
        model = tiny_model(0)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, state_of(model), stage=1)
        other = tiny_model(3)
        tensors, _ = load_checkpoint(path)
        other.load_state(tensors)
        lq = Tensor(rng.uniform(size=(3, 8, 8)))
        pair = Tensor(rng.uniform(size=(6, 8, 8)))
        a, _ = model(lq, pair)
        b, _ = other(lq, pair)
        np.testing.assert_array_equal(a.data, b.data)

    def test_load_state_adopts_float64_arrays(self):
        model = tiny_model(0)
        state = state_of(model)
        model.load_state(state)
        for name, p in model.parameters().items():
            assert p.data is state[name]

    def test_load_state_copies_other_arrays(self):
        model = tiny_model(0)
        state = state_of(model)
        state["backbone.embed.weight"].flags.writeable = False
        state["backbone.embed.bias"] = state["backbone.embed.bias"].astype(np.float32)
        state["ddem.stem.bias"] = np.repeat(state["ddem.stem.bias"], 2)[::2]
        model.load_state(state)
        params = model.parameters()
        for name in ("backbone.embed.weight", "backbone.embed.bias",
                     "ddem.stem.bias"):
            data = params[name].data
            assert data is not state[name]
            assert data.dtype == np.float64 and data.flags.c_contiguous
            assert data.flags.writeable
            np.testing.assert_array_equal(data, state[name])


def tiny_state():
    model = tiny_model(0)
    return state_of(model)


def raw_checkpoint(stage, entries):
    """Checkpoint bytes from (name bytes, shape, float64 values) entries,
    with no checks, so that malformed files can be written."""
    out = [b"MODM", struct.pack("<II B", 1, len(entries), stage)]
    for name, shape, values in entries:
        out.append(struct.pack("<H", len(name)) + name)
        out.append(struct.pack(f"<B{len(shape)}Q", len(shape), *shape))
        out.append(np.asarray(values, "<f8").tobytes())
    return b"".join(out)


class TestCheckpointHardening:
    @pytest.mark.parametrize("stage", [0, 3, 255])
    def test_stage_tag_outside_1_2_rejected(self, tmp_path, stage):
        path = tmp_path / "s.ckpt"
        path.write_bytes(raw_checkpoint(stage, [(b"w", (2,), [1.0, 2.0])]))
        with pytest.raises(CheckpointFormatError, match="stage"):
            load_checkpoint(str(path))

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "d.ckpt"
        path.write_bytes(raw_checkpoint(2, [(b"w", (1,), [1.0]),
                                            (b"w", (1,), [2.0])]))
        with pytest.raises(CheckpointFormatError, match="duplicate"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("shape", [(2 ** 40,), (2 ** 20, 2 ** 20),
                                       (2 ** 63,) * 255, (2 ** 64 - 1, 2)])
    def test_declared_size_beyond_file_rejected(self, tmp_path, shape):
        # no allocation happens: a MemoryError would fail this test
        path = tmp_path / "big.ckpt"
        path.write_bytes(raw_checkpoint(2, [(b"w", shape, [0.0] * 4)]))
        with pytest.raises(CheckpointFormatError, match="bytes"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = str(tmp_path / "nf.ckpt")
        save_checkpoint(path, {"ok": np.ones(3), "w": np.array([0.0, bad])},
                        stage=2)
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            load_checkpoint(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "n.ckpt"
        path.write_bytes(raw_checkpoint(1, [(b"\xff\xfe", (1,), [1.0])]))
        with pytest.raises(CheckpointFormatError, match="UTF-8"):
            load_checkpoint(str(path))

    def test_empty_tensor_roundtrip(self, tmp_path):
        path = str(tmp_path / "e.ckpt")
        save_checkpoint(path, {"empty": np.zeros((0, 3)), "w": np.ones(2)},
                        stage=1)
        loaded, _ = load_checkpoint(path)
        assert loaded["empty"].shape == (0, 3)
        assert loaded["w"].tobytes() == np.ones(2).tobytes()

    def test_scalar_keeps_its_shape(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        save_checkpoint(path, {"s": np.float64(3)}, stage=1)
        loaded, _ = load_checkpoint(path)
        assert loaded["s"].shape == ()
        assert loaded["s"].tobytes() == np.float64(3).tobytes()
        assert open(path, "rb").read() == raw_checkpoint(1, [(b"s", (), [3.0])])

    def test_save_creates_missing_directory(self, tmp_path):
        path = str(tmp_path / "new" / "deeper" / "m.ckpt")
        save_checkpoint(path, {"w": np.ones(2)}, stage=1)
        loaded, _ = load_checkpoint(path)
        assert loaded["w"].tobytes() == np.ones(2).tobytes()

    def test_loaded_arrays_are_writeable_float64(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, tiny_state(), stage=1)
        loaded, _ = load_checkpoint(path)
        for v in loaded.values():
            assert v.dtype == np.float64
            assert v.flags.c_contiguous and v.flags.writeable and v.flags.owndata

    def test_save_is_byte_identical_to_the_format(self, tmp_path):
        # the writer's bytes are exactly the documented layout
        tensors = {"a": np.arange(6.0).reshape(2, 3), "s": np.array([1.5])}
        path = str(tmp_path / "f.ckpt")
        save_checkpoint(path, tensors, stage=2)
        want = raw_checkpoint(2, [(b"a", (2, 3), np.arange(6.0)),
                                  (b"s", (1,), [1.5])])
        assert open(path, "rb").read() == want

    def test_load_peak_memory_within_file_size(self, tmp_path):
        path = str(tmp_path / "toy.ckpt")
        save_checkpoint(path, tiny_state(), stage=1)
        size = os.path.getsize(path)
        load_checkpoint(path)                   # warm imports and caches
        tracemalloc.start()
        try:
            tensors, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(v.nbytes for v in tensors.values()) < size
        assert peak <= size + 64 * 1024

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_files_load_or_raise_format_error(self, tmp_path_factory,
                                                     data):
        blob = bytearray(raw_checkpoint(2, [
            (b"a.weight", (2, 3), np.linspace(-1.0, 1.0, 6)),
            (b"b", (), [0.5]),
            (b"c.bias", (4,), [1.0, 2.0, 3.0, 4.0])]))
        cut = data.draw(st.integers(0, len(blob)), label="keep")
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)),
                                   max_size=4), label="flips")
        for pos, mask in flips:
            blob[pos] ^= mask
        path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
        path.write_bytes(bytes(blob[:cut]))
        try:
            tensors, stage = load_checkpoint(str(path))
        except CheckpointFormatError:
            return
        assert stage in (1, 2)
        for v in tensors.values():
            assert v.dtype == np.float64 and np.isfinite(v).all()
