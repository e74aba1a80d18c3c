"""1-D traversal orders over 2-D grids.

Morton (Z-order) is the primary order: interleave the bits of the row and
column index, row bits in the even (low) lanes, so an aligned 2x2 block is
visited (0,0),(1,0),(0,1),(1,1). Raster, boustrophedon ("continuous"),
local-window and Hilbert orders are provided as baselines.

Every order is one stable argsort of an integer key per cell. Cells with
equal keys keep their raster order, so a local window is visited row by row,
and on a non-power-of-two grid the Morton and Hilbert orders are those of
the next power-of-two grid with the out-of-range cells dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_M8 = 0x00FF00FF00FF00FF
_M16 = 0x0000FFFF0000FFFF
_M32 = 0x00000000FFFFFFFF


def _spread_bits_u64(n: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of n into the even bit lanes of 64-bit words."""
    n = n.astype(np.uint64) & np.uint64(_M32)
    for shift, mask in ((16, _M16), (8, _M8), (4, _M4), (2, _M2), (1, _M1)):
        n = (n | (n << np.uint64(shift))) & np.uint64(mask)
    return n


def morton_encode_array(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Interleave bits of (i, j) elementwise; bit 2t of a code is bit t of i."""
    return _spread_bits_u64(i) | (_spread_bits_u64(j) << np.uint64(1))


def _hilbert_encode_array(i: np.ndarray, j: np.ndarray, order: int) -> np.ndarray:
    """Hilbert index of each cell (i, j) on a 2^order square grid."""
    x, y = np.broadcast_arrays(j.astype(np.int64), i.astype(np.int64))
    d = np.zeros(x.shape, dtype=np.int64)
    s = 1 << (order - 1) if order > 0 else 0
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        flip = (ry == 0) & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        s >>= 1
    return d


@dataclass(frozen=True)
class ScanPermutation:
    """Bijection between sequence positions and row-major pixel indices.

    forward[k] = flat pixel index visited at sequence position k;
    inverse[flat] = sequence position of that pixel.
    """

    height: int
    width: int
    forward: np.ndarray
    inverse: np.ndarray

    def __len__(self) -> int:
        return self.height * self.width


SCAN_KINDS = ("raster", "continuous", "local", "morton", "hilbert")


def _scan_key(height: int, width: int, kind: str, window: int) -> np.ndarray:
    """(H, W) integer key whose ascending order, ties in raster order, is
    the scan."""
    i = np.arange(height, dtype=np.int64)[:, None]
    j = np.arange(width, dtype=np.int64)[None, :]
    if kind == "raster":
        return i * width + j
    if kind == "continuous":
        return i * width + np.where(i % 2 == 1, width - 1 - j, j)
    if kind == "local":
        if window < 1:
            raise ValueError("window must be >= 1")
        return (i // window) * -(-width // window) + j // window
    if kind == "morton":
        return morton_encode_array(i, j)
    if kind == "hilbert":
        order = max((max(height, width) - 1).bit_length(), 1)
        return _hilbert_encode_array(i, j, order)
    raise ValueError(f"unknown scan kind {kind!r}")


def build_order(height: int, width: int, kind: str,
                window: int = 8) -> ScanPermutation:
    if height < 1 or width < 1:
        raise ValueError("grid extents must be >= 1")
    key = _scan_key(height, width, kind, window).ravel()
    forward = np.argsort(key, kind="stable").astype(np.int64, copy=False)
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size, dtype=np.int64)
    return ScanPermutation(height, width, forward, inverse)


def locality_stats(perm: ScanPermutation) -> dict[str, float]:
    """Sequence-distance statistics over 4-neighbor pixel pairs."""
    H, W = perm.height, perm.width
    if H < 2 or W < 2:
        raise ValueError("locality_stats requires H, W >= 2")
    inv = perm.inverse.reshape(H, W).astype(np.int64)
    dh = np.abs(inv[:, 1:] - inv[:, :-1]).ravel()
    dv = np.abs(inv[1:, :] - inv[:-1, :]).ravel()
    d = np.concatenate([dh, dv])
    return {
        "mean": float(d.mean()),
        "median": float(np.median(d)),
        "p95": float(np.percentile(d, 95)),
        "block_depth": float(block_contiguity_depth(perm)),
    }


def block_contiguity_depth(perm: ScanPermutation) -> int:
    """Largest k such that every aligned 2^k x 2^k block is a contiguous range."""
    H, W = perm.height, perm.width
    inv = perm.inverse.reshape(H, W)
    depth = 0
    k = 1
    while H % (1 << k) == 0 and W % (1 << k) == 0:
        b = 1 << k
        blocks = inv.reshape(H // b, b, W // b, b).transpose(0, 2, 1, 3)
        blocks = blocks.reshape(H // b, W // b, b * b)
        span = blocks.max(axis=-1) - blocks.min(axis=-1)
        if np.all(span == b * b - 1):
            depth = k
            k += 1
        else:
            break
    return depth
