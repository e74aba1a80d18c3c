"""Neural-net ops built on the tensor primitives.

conv2d gets its own hand-written backward (im2col is the hot path); the
rest are compositions of differentiable primitives.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor


def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """x: (C, H, W) -> cols (C*k*k, H*W) of x zero-padded by `pad`, with
    2*pad = k - 1 so that each output pixel has one k x k window."""
    C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    s0, s1, s2 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(C, k, k, H, W),
        strides=(s0, s1, s2, s1, s2),
        writeable=False,
    )
    return view.reshape(C * k * k, H * W)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Same-padded 2-D convolution (cross-correlation), x: (C_in,H,W),
    w: (C_out,C_in,k,k) with k odd."""
    Cin, H, W = x.shape
    Cout, Cin_w, k, k2 = w.shape
    if Cin != Cin_w or k != k2:
        raise ShapeError(f"conv2d: x {x.shape} incompatible with w {w.shape}")
    if k % 2 != 1:
        raise ShapeError("conv2d: same-padding requires odd kernel")
    pad = (k - 1) // 2

    cols = _im2col(x.data, k, pad)
    wmat = w.data.reshape(Cout, Cin * k * k)
    out = (wmat @ cols).reshape(Cout, H, W)
    if b is not None:
        out = out + b.data[:, None, None]
    parents = (x, w) if b is None else (x, w, b)

    def backward(grad):
        gy = grad.reshape(Cout, H * W)
        gw = (gy @ cols.T).reshape(w.shape)
        gcols = (wmat.T @ gy).reshape(Cin, k, k, H, W)
        gx_pad = np.zeros((Cin, H + 2 * pad, W + 2 * pad))
        for ki in range(k):
            for kj in range(k):
                gx_pad[:, ki : ki + H, kj : kj + W] += gcols[:, ki, kj]
        gx = gx_pad[:, pad : pad + H, pad : pad + W] if pad else gx_pad
        gb = grad.sum(axis=(1, 2)) if b is not None else None
        return (gx, gw) if b is None else (gx, gw, gb)

    return Tensor.from_op(out, parents, backward)


def layernorm(x: Tensor, axis: int = 0, eps: float = 1e-6) -> Tensor:
    """Normalize to zero mean / unit variance along `axis` (no affine)."""
    if x.shape[axis] < 1:
        raise ShapeError("layernorm: empty normalization axis")
    mu = x.mean(axis=axis, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=axis, keepdims=True)
    return xc / (var + eps).sqrt()


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """(C, r*H, r*W) -> (C*r*r, H, W); channel c*r*r + dr*r + dc holds sub-pixel (dr, dc)."""
    C, H, W = x.shape
    if H % r or W % r:
        raise ShapeError(f"pixel_unshuffle: {H}x{W} not divisible by r={r}")
    h, w = H // r, W // r
    return (
        x.reshape(C, h, r, w, r)
        .transpose(0, 2, 4, 1, 3)
        .reshape(C * r * r, h, w)
    )


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """(C*r*r, H, W) -> (C, r*H, r*W); inverse of pixel_unshuffle."""
    Cr, H, W = x.shape
    if Cr % (r * r):
        raise ShapeError(f"pixel_shuffle: {Cr} channels not divisible by r^2={r * r}")
    C = Cr // (r * r)
    return (
        x.reshape(C, r, r, H, W)
        .transpose(0, 3, 1, 4, 2)
        .reshape(C, r * H, r * W)
    )


def global_avg_pool(x: Tensor) -> Tensor:
    """(C, H, W) -> (C,) per-channel spatial mean."""
    C, H, W = x.shape
    return x.reshape(C, H * W).mean(axis=1)
