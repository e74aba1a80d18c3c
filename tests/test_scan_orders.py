"""Scan-order permutations: encodings, bijectivity, locality properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modem.scan_orders import (SCAN_KINDS, _hilbert_encode_array,
                               block_contiguity_depth, build_order,
                               locality_stats, morton_encode_array)
from modem.tensor import Tensor
from scan_refs import (deinterleave_oracle, hilbert_decode, hilbert_encode,
                       interleave_oracle, reference_order)


def morton_code(i: int, j: int) -> int:
    return int(morton_encode_array(np.uint64(i), np.uint64(j)))


class TestMortonEncoding:
    @pytest.mark.parametrize("i,j,z", [
        (0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 3),
        (2, 3, 14), (5, 3, 27),
    ])
    def test_known_codes(self, i, j, z):
        assert morton_code(i, j) == z
        assert deinterleave_oracle(z) == (i, j)

    def test_matches_loop_oracle_random(self, rng):
        for _ in range(2000):
            i = int(rng.integers(0, 1 << 20))
            j = int(rng.integers(0, 1 << 20))
            assert morton_code(i, j) == interleave_oracle(i, j)

    def test_array_matches_scalar(self, rng):
        i = rng.integers(0, 1 << 20, size=500).astype(np.uint64)
        j = rng.integers(0, 1 << 20, size=500).astype(np.uint64)
        z = morton_encode_array(i, j)
        for a, b, c in zip(i, j, z):
            assert int(c) == interleave_oracle(int(a), int(b))
        ri, rj = deinterleave_oracle(z)
        np.testing.assert_array_equal(ri, i)
        np.testing.assert_array_equal(rj, j)

    def test_roundtrip_exhaustive_64(self):
        for i in range(64):
            for j in range(64):
                assert deinterleave_oracle(morton_code(i, j)) == (i, j)


class TestHilbert:
    def test_roundtrip_exhaustive(self):
        order = 5
        seen = set()
        for d in range(1 << (2 * order)):
            i, j = hilbert_decode(d, order)
            assert hilbert_encode(i, j, order) == d
            seen.add((i, j))
        assert len(seen) == 1 << (2 * order)

    def test_consecutive_are_4_neighbors(self):
        order = 4
        prev = hilbert_decode(0, order)
        for d in range(1, 1 << (2 * order)):
            cur = hilbert_decode(d, order)
            assert abs(cur[0] - prev[0]) + abs(cur[1] - prev[1]) == 1
            prev = cur

    def test_array_encoder_matches_scalar(self, rng):
        order = 10
        i = rng.integers(0, 1 << order, size=2000)
        j = rng.integers(0, 1 << order, size=2000)
        codes = _hilbert_encode_array(i, j, order)
        for a, b, c in zip(i, j, codes):
            assert int(c) == hilbert_encode(int(a), int(b), order)

    def test_morton_has_adjacency_breaks(self):
        # unlike the Hilbert curve, the Z curve jumps between quadrants
        i, j = np.divmod(build_order(16, 16, "morton").forward, 16)
        steps = np.abs(np.diff(i)) + np.abs(np.diff(j))
        assert np.count_nonzero(steps != 1) > 0


# The grid every kind is checked on against its reference construction;
# (1, 300) and (300, 1) are single rows and columns, (45, 61) and (190, 250)
# are not powers of two, and the local windows divide some extents and not
# others.
REFERENCE_SHAPES = [(1, 1), (1, 300), (300, 1), (2, 2), (3, 5), (6, 10),
                    (7, 7), (8, 8), (16, 4), (16, 16), (45, 61), (190, 250),
                    (256, 256), (1024, 1024)]
LOCAL_WINDOWS = (1, 3, 8, 16)


class TestReferenceConstructions:
    @pytest.mark.parametrize("kind", SCAN_KINDS)
    @pytest.mark.parametrize("hw", REFERENCE_SHAPES,
                             ids=[f"{h}x{w}" for h, w in REFERENCE_SHAPES])
    def test_matches_reference(self, kind, hw):
        H, W = hw
        for window in LOCAL_WINDOWS if kind == "local" else (8,):
            perm = build_order(H, W, kind, window=window)
            expect = reference_order(H, W, kind, window=window)
            assert perm.forward.dtype == np.int64
            assert perm.inverse.dtype == np.int64
            np.testing.assert_array_equal(perm.forward, expect)
            np.testing.assert_array_equal(perm.inverse[expect],
                                          np.arange(H * W))


class TestBuildOrder:
    @pytest.mark.parametrize("kind", SCAN_KINDS)
    @pytest.mark.parametrize("hw", [(1, 1), (2, 2), (3, 5), (8, 8), (6, 10),
                                    (7, 7), (16, 4)])
    def test_bijection(self, kind, hw):
        H, W = hw
        perm = build_order(H, W, kind)
        assert sorted(perm.forward.tolist()) == list(range(H * W))
        np.testing.assert_array_equal(perm.inverse[perm.forward],
                                      np.arange(H * W))

    def test_raster_is_identity(self):
        perm = build_order(3, 4, "raster")
        np.testing.assert_array_equal(perm.forward, np.arange(12))

    def test_continuous_reverses_odd_rows(self):
        perm = build_order(3, 4, "continuous")
        np.testing.assert_array_equal(
            perm.forward, [0, 1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 11])

    def test_local_window_blocks(self):
        perm = build_order(4, 4, "local", window=2)
        np.testing.assert_array_equal(
            perm.forward[:4], [0, 1, 4, 5])  # first 2x2 block first

    def test_morton_2x2_visit_order(self):
        perm = build_order(2, 2, "morton")
        # visit (0,0), (1,0), (0,1), (1,1)
        np.testing.assert_array_equal(perm.forward, [0, 2, 1, 3])

    def test_morton_non_pow2_matches_padded_filter(self):
        H, W = 3, 5
        perm = build_order(H, W, "morton")
        codes = sorted((interleave_oracle(i, j), i * W + j)
                       for i in range(H) for j in range(W))
        np.testing.assert_array_equal(perm.forward, [f for _, f in codes])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_order(4, 4, "spiral")


class TestLocality:
    def test_raster_mean_closed_form(self):
        H, W = 8, 8
        stats = locality_stats(build_order(H, W, "raster"))
        n_h = H * (W - 1)
        n_v = W * (H - 1)
        expect = (n_h * 1 + n_v * W) / (n_h + n_v)
        assert stats["mean"] == pytest.approx(expect)

    def test_morton_beats_raster_on_median_and_depth(self):
        m = locality_stats(build_order(32, 32, "morton"))
        r = locality_stats(build_order(32, 32, "raster"))
        assert m["median"] < r["median"]
        assert m["block_depth"] > r["block_depth"]

    def test_block_depth_morton_full(self):
        for n in (2, 3, 4):
            perm = build_order(1 << n, 1 << n, "morton")
            assert block_contiguity_depth(perm) == n

    def test_block_depth_raster_zero(self):
        assert block_contiguity_depth(build_order(8, 8, "raster")) == 0

    def test_hilbert_full_depth_too(self):
        # Hilbert also keeps aligned quadrants contiguous
        assert block_contiguity_depth(build_order(16, 16, "hilbert")) == 4


class TestGatherScatter:
    """Token-major features through `Tensor.take`, as MOS2D reorders them."""

    @pytest.mark.parametrize("kind", SCAN_KINDS)
    def test_roundtrip(self, kind, rng):
        x = rng.normal(size=(6 * 5, 3))
        perm = build_order(6, 5, kind)
        seq = Tensor(x).take(perm.forward)
        np.testing.assert_array_equal(seq.take(perm.inverse).data, x)

    def test_gather_order(self):
        x = np.arange(4.0).reshape(4, 1)
        perm = build_order(2, 2, "morton")
        np.testing.assert_array_equal(Tensor(x).take(perm.forward).data[:, 0],
                                      [0, 2, 1, 3])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 31) - 1), st.integers(0, (1 << 31) - 1))
def test_morton_roundtrip_property(i, j):
    assert deinterleave_oracle(morton_code(i, j)) == (i, j)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12),
       st.sampled_from(list(SCAN_KINDS)))
def test_any_grid_is_permutation(h, w, kind):
    perm = build_order(h, w, kind)
    assert np.array_equal(np.sort(perm.forward), np.arange(h * w))
