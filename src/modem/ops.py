"""Neural-net ops built on the tensor primitives.

conv2d, the layer norm and MOS2D's SiLU gate get their own hand-written
backward (im2col is the hot path; the other two recompute what the
composed graph would store); the rest are compositions of differentiable
primitives.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _sigmoid, _unbroadcast, bands


def _im2col(x: np.ndarray, k: int, r0: int, r1: int) -> np.ndarray:
    """cols (C*k*k, (r1-r0)*W) of output rows r0..r1 of a same-padded k x k
    convolution of x (C, H, W), k odd: column (i - r0)*W + j holds the
    window around pixel (i, j) of x zero-padded by k // 2. Only the rows of
    x those windows reach are read and padded."""
    C, H, W = x.shape
    pad = k // 2
    if pad:
        lo, hi = max(r0 - pad, 0), min(r1 + pad, H)
        xp = np.pad(x[:, lo:hi],
                    ((0, 0), (pad - (r0 - lo), pad - (hi - r1)), (pad, pad)))
    else:
        xp = x[:, r0:r1]
    s0, s1, s2 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(C, k, k, r1 - r0, W),
        strides=(s0, s1, s2, s1, s2),
        writeable=False,
    )
    return view.reshape(C * k * k, (r1 - r0) * W)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Same-padded 2-D convolution (cross-correlation), x: (C_in,H,W),
    w: (C_out,C_in,k,k) with k odd.

    The forward runs one GEMM per band of output rows (`bands`), so no
    whole-image im2col exists; the backward rebuilds the whole columns
    from x for the weight gradient, which sums over every pixel. A parent
    that takes no gradient gets None: a frozen weight skips the rebuild,
    an input image the input gradient."""
    Cin, H, W = x.shape
    Cout, Cin_w, k, k2 = w.shape
    if Cin != Cin_w or k != k2:
        raise ShapeError(f"conv2d: x {x.shape} incompatible with w {w.shape}")
    if k % 2 != 1:
        raise ShapeError("conv2d: same-padding requires odd kernel")
    pad = (k - 1) // 2

    wmat = w.data.reshape(Cout, Cin * k * k)
    out = np.empty((Cout, H, W))
    for r0, r1 in bands(H, W):
        np.matmul(wmat, _im2col(x.data, k, r0, r1),
                  out=out[:, r0:r1].reshape(Cout, (r1 - r0) * W))
    if b is not None:
        out += b.data[:, None, None]
    parents = (x, w) if b is None else (x, w, b)

    def backward(grad):
        gy = grad.reshape(Cout, H * W)
        gx = gw = gb = None
        if w.requires_grad:
            gw = (gy @ _im2col(x.data, k, 0, H).T).reshape(w.shape)
        if x.requires_grad:
            gcols = (wmat.T @ gy).reshape(Cin, k, k, H, W)
            gx = np.zeros((Cin, H + 2 * pad, W + 2 * pad))
            for ki in range(k):
                for kj in range(k):
                    gx[:, ki : ki + H, kj : kj + W] += gcols[:, ki, kj]
            gx = gx[:, pad : pad + H, pad : pad + W] if pad else gx
        if b is not None and b.requires_grad:
            gb = grad.sum(axis=(1, 2))
        return gx, gw, gb

    return Tensor.from_op(out, parents, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta over axis 0 of x (C, ...),
    one tape node with parents (x, x, gamma, beta) that keeps only the
    mean and std, with the bytes of the composed graph of 11 nodes.

    Forward and backward make the composed graph's numpy calls, one line
    per node; the backward recomputes the centred and normalized x and
    runs the rules in the composed pop order: div, then the square's two
    contributions to the centred x, then sub before sum, whose
    contributions go to the two x parents so that `Tensor.backward` adds
    them to x's other gradients in the composed order. Every array a
    composed node held is a named variable: numpy computes an expression
    like `a / s + t` into the temporary `a / s` (of 256 KiB or more) and
    keeps its memory layout, and a later reduction over another layout
    adds in another order. A parent that takes no gradient gets None."""
    C = x.shape[0]
    if C < 1:
        raise ShapeError("layer_norm: empty normalization axis")
    inv_c = 1.0 / C
    # each intermediate is dropped once read, as the composed ops' were
    mu = x.data.sum(axis=0, keepdims=True) * inv_c
    xc = x.data - mu
    sq = xc * xc
    std = np.sqrt(sq.sum(axis=0, keepdims=True) * inv_c + eps)
    del sq
    with np.errstate(invalid="ignore"):
        xh = xc / std
    del xc
    y1 = xh * gamma.data
    del xh
    out = y1 + beta.data

    def backward(grad):
        g_beta = _unbroadcast(grad, beta.shape) if beta.requires_grad else None
        xc = x.data - mu
        with np.errstate(invalid="ignore"):
            xh = xc / std
        g_gamma = (_unbroadcast(grad * xh, gamma.shape)
                   if gamma.requires_grad else None)
        if not x.requires_grad:
            return None, None, g_gamma, g_beta
        del xh
        g_xh = grad * gamma.data
        g_div = g_xh / std
        g_std = _unbroadcast(-g_xh * xc / (std * std), std.shape)
        del g_xh
        g_ve = g_std * 0.5 / std
        g_sq = _spread(g_ve * inv_c, x.shape)
        t = g_sq * xc
        del g_sq, xc
        g_xc = g_div + t
        del g_div
        g_xc = g_xc + t
        del t
        g_mu = _unbroadcast(-g_xc, std.shape)
        g_s = g_mu * inv_c
        return g_xc, _spread(g_s, x.shape), g_gamma, g_beta

    return Tensor.from_op(out, (x, x, gamma, beta), backward)


def _spread(g: np.ndarray, shape: tuple) -> np.ndarray:
    """g broadcast to `shape` as a C-ordered array, as `Tensor.sum`'s rule
    hands it on."""
    return np.broadcast_to(g, shape).copy()


def silu_gate(y: Tensor, z: Tensor) -> Tensor:
    """y * silu(z) = y * (z * sigmoid(z)) for y and z of one shape, one tape
    node with parents (y, z, z) that keeps no intermediate. Forward and
    backward replay the composed graph's numpy calls with every array it
    held named (see `layer_norm`); the backward recomputes the sigmoid from
    z and runs the rules in their pop order: the outer product's, then
    z * sigmoid's, then the sigmoid's, which the second z parent receives
    last as the composed graph adds it. A parent that takes no gradient
    gets None."""
    if y.shape != z.shape:
        raise ShapeError(f"silu_gate: y {y.shape} and z {z.shape} differ")
    s = _sigmoid(z.data, np.exp(-np.abs(z.data)))
    sz = z.data * s
    del s
    out = y.data * sz

    def backward(grad):
        s = _sigmoid(z.data, np.exp(-np.abs(z.data)))
        sz = z.data * s
        g_y = grad * sz if y.requires_grad else None
        if not z.requires_grad:
            return g_y, None, None
        g_sz = grad * y.data
        g_s = g_sz * z.data
        return g_y, g_sz * s, g_s * s * (1.0 - s)

    return Tensor.from_op(out, (y, z, z), backward)


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
