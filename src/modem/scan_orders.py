"""1-D traversal orders over 2-D grids.

Morton (Z-order) is the primary order: interleave the bits of the row and
column index, row bits in the even (low) lanes, so an aligned 2x2 block is
visited (0,0),(1,0),(0,1),(1,1). Raster, boustrophedon ("continuous"),
local-window and Hilbert orders are provided as baselines.

Non-power-of-two grids are handled by virtually padding to the next power
of two and dropping the codes of out-of-range cells; the relative order of
the remaining cells is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_M8 = 0x00FF00FF00FF00FF
_M16 = 0x0000FFFF0000FFFF
_M32 = 0x00000000FFFFFFFF


def _spread_bits(n: int) -> int:
    """Spread the low 32 bits of n into the even bit lanes of a 64-bit word."""
    n &= _M32
    n = (n | (n << 16)) & _M16
    n = (n | (n << 8)) & _M8
    n = (n | (n << 4)) & _M4
    n = (n | (n << 2)) & _M2
    n = (n | (n << 1)) & _M1
    return n


def _compact_bits(n: int) -> int:
    n &= _M1
    n = (n | (n >> 1)) & _M2
    n = (n | (n >> 2)) & _M4
    n = (n | (n >> 4)) & _M8
    n = (n | (n >> 8)) & _M16
    n = (n | (n >> 16)) & _M32
    return n


def morton_encode(i: int, j: int) -> int:
    """Interleave bits of (i, j); bit 2t of the code is bit t of i."""
    return _spread_bits(i) | (_spread_bits(j) << 1)


def morton_decode(z: int) -> tuple[int, int]:
    return _compact_bits(z), _compact_bits(z >> 1)


def _spread_bits_u64(n: np.ndarray) -> np.ndarray:
    n = n.astype(np.uint64) & np.uint64(_M32)
    for shift, mask in ((16, _M16), (8, _M8), (4, _M4), (2, _M2), (1, _M1)):
        n = (n | (n << np.uint64(shift))) & np.uint64(mask)
    return n


def _compact_bits_u64(n: np.ndarray) -> np.ndarray:
    n = n.astype(np.uint64) & np.uint64(_M1)
    for shift, mask in ((1, _M2), (2, _M4), (4, _M8), (8, _M16), (16, _M32)):
        n = (n | (n >> np.uint64(shift))) & np.uint64(mask)
    return n


def morton_encode_array(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return _spread_bits_u64(i) | (_spread_bits_u64(j) << np.uint64(1))


def morton_decode_array(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = z.astype(np.uint64)
    return _compact_bits_u64(z), _compact_bits_u64(z >> np.uint64(1))


def hilbert_encode(i: int, j: int, order: int) -> int:
    """Hilbert index of cell (i, j) on a 2^order square grid."""
    n = 1 << order
    if not (n & (n - 1) == 0) or i >= n or j >= n:
        raise ValueError("hilbert_encode requires a power-of-two grid")
    rx = ry = 0
    d = 0
    x, y = j, i
    s = n >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def hilbert_decode(d: int, order: int) -> tuple[int, int]:
    n = 1 << order
    x = y = 0
    t = d
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s <<= 1
    return y, x


def _hilbert_encode_array(i: np.ndarray, j: np.ndarray, order: int) -> np.ndarray:
    x = j.astype(np.int64).copy()
    y = i.astype(np.int64).copy()
    d = np.zeros_like(x)
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
    inverse: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.inverse is None:
            inv = np.empty_like(self.forward)
            inv[self.forward] = np.arange(self.forward.size, dtype=np.int64)
            object.__setattr__(self, "inverse", inv)

    def __len__(self) -> int:
        return self.height * self.width


SCAN_KINDS = ("raster", "continuous", "local", "morton", "hilbert")


def build_order(height: int, width: int, kind: str,
                window: int = 8) -> ScanPermutation:
    if height < 1 or width < 1:
        raise ValueError("grid extents must be >= 1")
    n_cells = height * width
    if kind == "raster":
        fwd = np.arange(n_cells, dtype=np.int64)
    elif kind == "continuous":
        rows = np.arange(n_cells, dtype=np.int64).reshape(height, width)
        rows[1::2] = rows[1::2, ::-1]
        fwd = rows.reshape(-1)
    elif kind == "local":
        if window < 1:
            raise ValueError("window must be >= 1")
        order = []
        for bi in range(0, height, window):
            for bj in range(0, width, window):
                sub = [
                    i * width + j
                    for i in range(bi, min(bi + window, height))
                    for j in range(bj, min(bj + window, width))
                ]
                order.extend(sub)
        fwd = np.asarray(order, dtype=np.int64)
    elif kind == "morton":
        fwd = _morton_order(height, width)
    elif kind == "hilbert":
        fwd = _hilbert_order(height, width)
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    return ScanPermutation(height, width, fwd)


def _morton_order(height: int, width: int) -> np.ndarray:
    if height == width and height & (height - 1) == 0:
        # Power-of-two square: the code itself is the sequence position.
        codes = np.arange(height * width, dtype=np.uint64)
        i, j = morton_decode_array(codes)
        return (i.astype(np.int64) * width + j.astype(np.int64))
    ii, jj = np.meshgrid(
        np.arange(height, dtype=np.uint64),
        np.arange(width, dtype=np.uint64),
        indexing="ij",
    )
    codes = morton_encode_array(ii.ravel(), jj.ravel())
    return np.argsort(codes, kind="stable").astype(np.int64)


def _hilbert_order(height: int, width: int) -> np.ndarray:
    side = max(height, width)
    order = max((side - 1).bit_length(), 1)
    ii, jj = np.meshgrid(
        np.arange(height, dtype=np.int64),
        np.arange(width, dtype=np.int64),
        indexing="ij",
    )
    codes = _hilbert_encode_array(ii.ravel(), jj.ravel(), order)
    return np.argsort(codes, kind="stable").astype(np.int64)


def gather_seq(x: np.ndarray, perm: ScanPermutation) -> np.ndarray:
    """(C, H, W) -> (C, L) in scan order."""
    C, H, W = x.shape
    if (H, W) != (perm.height, perm.width):
        raise ValueError(f"permutation is {perm.height}x{perm.width}, got {H}x{W}")
    return x.reshape(C, H * W)[:, perm.forward]


def scatter_seq(seq: np.ndarray, perm: ScanPermutation) -> np.ndarray:
    """(C, L) in scan order -> (C, H, W); exact inverse of gather_seq."""
    C, L = seq.shape
    if L != len(perm):
        raise ValueError(f"sequence length {L} != {len(perm)}")
    return seq[:, perm.inverse].reshape(C, perm.height, perm.width)


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

