"""Reference constructions of the scan orders, built cell by cell.

`modem.scan_orders` builds every order as one stable argsort of a per-cell
key computed on whole arrays. These are the plain constructions it must
agree with byte for byte: loop bit (de)interleaves for Morton, the scalar
Hilbert curve, and each order assembled as a list of flat pixel indices.
"""

import numpy as np


def interleave_oracle(i: int, j: int) -> int:
    """Loop-based bit interleave: row bits in the even (low) lanes."""
    z = 0
    for b in range(32):
        z |= ((i >> b) & 1) << (2 * b)
        z |= ((j >> b) & 1) << (2 * b + 1)
    return z


def deinterleave_oracle(z):
    """Loop-based inverse of `interleave_oracle`: (i, j) from a code. Works
    elementwise on a uint64 array as well as on a Python int."""
    i = j = 0
    for b in range(32):
        i |= ((z >> (2 * b)) & 1) << b
        j |= ((z >> (2 * b + 1)) & 1) << b
    return i, j


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


def reference_order(height: int, width: int, kind: str,
                    window: int = 8) -> np.ndarray:
    """Flat pixel indices in visit order, built without a sort key array."""
    cells = np.arange(height * width, dtype=np.int64)
    if kind == "raster":
        return cells
    if kind == "continuous":
        rows = cells.reshape(height, width)
        rows[1::2] = rows[1::2, ::-1]
        return rows.reshape(-1)
    if kind == "local":
        order = []
        for bi in range(0, height, window):
            for bj in range(0, width, window):
                order.extend(i * width + j
                             for i in range(bi, min(bi + window, height))
                             for j in range(bj, min(bj + window, width)))
        return np.asarray(order, dtype=np.int64)
    if kind not in ("morton", "hilbert"):
        raise ValueError(f"no reference for scan kind {kind!r}")
    bits = max((max(height, width) - 1).bit_length(), 1)
    code = interleave_oracle if kind == "morton" else (
        lambda i, j: hilbert_encode(i, j, bits))
    codes = sorted((code(i, j), i * width + j)
                   for i in range(height) for j in range(width))
    return np.asarray([flat for _, flat in codes], dtype=np.int64)
