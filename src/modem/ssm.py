"""Selective state-space scan: ZOH discretization, recurrence, decomposition.

Array conventions (d = inner channels, L = sequence length, N = state dim):
    x      (d, L)   input sequence
    delta  (d, L)   positive timescales
    A      (d, N)   negative diagonal state matrix
    B, C   (L, N)   per-token input/output maps
    D      (d,)     skip gain

The scan is one autodiff primitive: the forward recurrence stores the state
trajectory and the backward rule is derived by hand (verified against finite
differences in the tests).

Both directions run one in-place linear recurrence,
h[:, k] += a[:, k-1] * h[:, k-1]: the forward pass on the states with
a = Abar[:, 1:], the backward pass on the state gradients over reversed
views with a = Abar shifted by one step. On long sequences with few
channels x states it steps chunks of the sequence together (about
2 sqrt(3L) numpy steps instead of L, see `_linear_recurrence`); elsewhere
it steps one token at a time.

Off the tape (restores, and `scan_terms` on plain arrays), such a
one-token-at-a-time scan is streamed in blocks of BLOCK tokens: each
block's ZOH factors, recurrence and output are formed before the next
block's, with the last state carried over, so no (d, L, N) array exists
whole (the kernel fusion of Mamba's hardware-aware scan, Gu & Dao, arXiv
2312.00752, section 3.3.2, with the cache in place of GPU SRAM). Every
token goes through the same operations as in the whole-sequence scan, so
the output bytes are the same.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, is_recording

# Below this |delta * A| the (exp(u) - 1)/A factor switches to its series.
SERIES_THRESHOLD = 1e-8


def _zoh_factors(A: np.ndarray, delta: np.ndarray):
    """Return (Abar, phi) with Abar = exp(delta*A), phi = (Abar - 1)/A.

    Two full-size buffers: u = delta*A becomes Abar in place, and the
    series branch is evaluated only at the entries its mask selects. The
    mask is built only when min|delta| * min|A| falls below the series
    threshold: rounding is monotonic, so otherwise no |u| does (at paper
    widths none ever does).
    """
    u = delta[:, :, None] * A[:, None, :]
    bound = np.abs(delta).min(initial=np.inf) * np.abs(A).min(initial=np.inf)
    if bound >= SERIES_THRESHOLD:
        phi, u_series = np.empty_like(u), None
    else:                                       # NaN lands here too
        phi = np.abs(u)
        series = phi < SERIES_THRESHOLD
        u_series = u[series] if series.any() else None
    Abar = np.exp(u, out=u)
    np.subtract(Abar, 1.0, out=phi)
    phi /= np.where(np.abs(A) < 1e-300, 1.0, A)[:, None, :]
    if u_series is not None:
        phi[series] = (np.broadcast_to(delta[:, :, None], phi.shape)[series]
                       * (1.0 + 0.5 * u_series))
    return Abar, phi


# The chunked recurrence runs on sequences of at least CHUNKED_MIN_LEN
# tokens with at most CHUNKED_MAX_DN channels x states. It does about twice
# the arithmetic of the plain loop and pays off only while each step is
# small enough for the interpreter, not the arithmetic, to set its cost.
# The cut is timed on the token-major layout MOS2D hands the kernel
# (strides (N, d*N, 1), forward and reversed), where a plain-loop step is
# one contiguous run of d*N values: at L = 4096 the two forms tie near
# d*N = 112 with N = 4 and near 140 with N = 8.
CHUNKED_MIN_LEN = 64
CHUNKED_MAX_DN = 112

# Without the tape, a plain-loop scan is streamed in blocks of BLOCK tokens.
# Timed on token-major inputs (2-vCPU Xeon, 4 MB L2, one BLAS thread), whole
# sequence -> BLOCK = 64 / 128 / 256 / 512 / 1024, ranges of two runs:
#   (36, 4096, 8) scan, ms       43 -> 34-35 / 30-35 / 30-33 / 32-33 / 35-40
#   (96, 4096, 8) scan, ms       99 -> 56-69 / 59-63 / 71-74 / 69-73 / 85-89
#   paper-default 64x64 restore 1.83 -> 1.53 / 1.50 / 1.52 / 1.54 / 1.57 s
# (restore: median of 6, block sizes interleaved). 128 and 256 tie on the
# restore; past 512 a block's buffers outgrow the cache.
BLOCK = 256


def _chunk_len(d_n: int, L: int) -> int:
    """Chunk length T for a length-L recurrence over d_n = d*N lanes, 0 for
    the plain loop.

    The chunked form takes about 3T + L/T interpreter steps (local pass,
    fix-up pass, tail; carry over the chunk ends), least at T = sqrt(L/3).
    """
    if L < CHUNKED_MIN_LEN or d_n > CHUNKED_MAX_DN:
        return 0
    return int(round(np.sqrt(L / 3.0)))


def _chunks(v: np.ndarray, nc: int, T: int) -> np.ndarray:
    """(d, nc, T, N) view of the first nc*T steps of a (d, L, N) view."""
    sd, sl, sn = v.strides
    return np.lib.stride_tricks.as_strided(
        v, shape=(v.shape[0], nc, T, v.shape[2]), strides=(sd, T * sl, sl, sn))


def _linear_recurrence(a: np.ndarray, h: np.ndarray, T: int) -> None:
    """In place: h[:, k] += a[:, k-1] * h[:, k-1] for k = 1 .. L-1.

    h is (d, L, N) and a is (d, L-1, N); either may be a strided or
    reversed view. With T >= 2 the L-1 updated steps are cut into chunks
    of T that step together: a local pass runs each chunk from a zero
    state, a carry runs over the chunk ends (the state entering each
    chunk), and a fix-up pass adds the running product of `a` times that
    carry. The L-1 mod T steps left over run one at a time. Extra memory
    is O(d*N*L/T). With T = 0, or room for fewer than two chunks, the
    whole sequence runs one step at a time.
    """
    L = h.shape[1]
    nc = (L - 1) // T if T else 0
    done = 1
    if nc >= 2:
        hc = _chunks(h[:, 1:], nc, T)
        ac = _chunks(a, nc, T)
        tmp = np.empty(hc.shape[:2] + hc.shape[3:])
        for t in range(1, T):                       # local pass
            np.multiply(ac[:, :, t], hc[:, :, t - 1], out=tmp)
            hc[:, :, t] += tmp
        prod = np.prod(ac, axis=2)                  # decay across each chunk
        carry = np.empty_like(tmp)                  # state entering chunk c
        carry[:, 0] = h[:, 0]
        for c in range(1, nc):
            np.multiply(prod[:, c - 1], carry[:, c - 1], out=carry[:, c])
            carry[:, c] += hc[:, c - 1, T - 1]
        for t in range(T):                          # fix-up pass
            carry *= ac[:, :, t]
            hc[:, :, t] += carry
        done = 1 + nc * T
    for k in range(done, L):
        h[:, k] += a[:, k - 1] * h[:, k - 1]


def _scan_forward(x, Abar, Bbar, C, D, h0=None):
    """Run the recurrence. Returns y, states h (d, L, N), and the long-range
    / local output terms; y is formed as longrange + local + D*x, so that
    sum reproduces it bit-for-bit. Bbar is a buffer the caller gives up:
    it becomes the states in place. h0 (d, N) is the state before the
    first token (zero when None); it enters token 0 through the same
    operations every later token's predecessor does."""
    d, L = x.shape
    states = Bbar
    states *= x[:, :, None]
    local = np.einsum("dln,ln->dl", states, C)
    longrange = np.zeros_like(local)
    if h0 is not None:
        states[:, 0] += Abar[:, 0] * h0
        np.einsum("dn,dn,n->d", Abar[:, 0], h0, C[0], out=longrange[:, 0])
    _linear_recurrence(Abar[:, 1:], states, _chunk_len(d * C.shape[1], L))
    np.einsum("dln,dln,ln->dl", Abar[:, 1:], states[:, :-1], C[1:],
              out=longrange[:, 1:])
    y = longrange + local
    y += D[:, None] * x
    return y, states, longrange, local


def _scan_backward(dy, x, C, Abar, Bbar, states):
    d, L = x.shape
    # dh[:, k] = dL/dh_k = dy_k C_k + Abar_{k+1} dh[:, k+1]: the forward
    # recurrence run over reversed views.
    dh = dy[:, :, None] * C[None, :, :]
    _linear_recurrence(Abar[:, :0:-1], dh[:, ::-1],
                       _chunk_len(d * C.shape[1], L))
    dx = np.einsum("dln,dln->dl", dh, Bbar)
    dC = np.einsum("dl,dln->ln", dy, states)
    dAbar = np.empty_like(dh)
    dAbar[:, 0] = 0.0
    np.multiply(dh[:, 1:], states[:, :-1], out=dAbar[:, 1:])
    dBbar = dh * x[:, :, None]
    return dx, dC, dAbar, dBbar


def scan_backward(dy, x, delta, A, B, C, D, Abar, phi, states):
    """Gradients of the scan w.r.t. (x, delta, A, B, C, D).

    dy: (d, L) upstream gradient. Abar/phi are the saved ZOH factors and
    states the saved hidden trajectory.
    """
    dx, dC, dAbar, dBbar = _scan_backward(dy, x, C, Abar,
                                          phi * B[None, :, :], states)
    dx += dy * D[:, None]
    dD = (dy * x).sum(axis=1)

    # ZOH factor gradients, with u = delta*A and phi = (exp(u) - 1)/A:
    # dphi/ddelta = Abar and dphi/dA = (delta*Abar - phi)/A, whose series
    # form where |u| is tiny is delta^2/2. dBbar and dAbar are reused as
    # dphi = dBbar*B and dAbar*Abar.
    dB = np.einsum("dln,dln->ln", dBbar, phi)
    dphi = dBbar
    dphi *= B[None, :, :]
    dAbar *= Abar
    ddelta = (np.einsum("dln,dn->dl", dAbar, A)
              + np.einsum("dln,dln->dl", dphi, Abar))
    dphi_dA = np.multiply(delta[:, :, None], A[:, None, :])
    series = np.abs(dphi_dA, out=dphi_dA) < SERIES_THRESHOLD
    np.multiply(delta[:, :, None], Abar, out=dphi_dA)
    dphi_dA -= phi
    dphi_dA /= np.where(np.abs(A) < 1e-300, 1.0, A)[:, None, :]
    if series.any():
        dphi_dA[series] = 0.5 * np.broadcast_to(delta[:, :, None],
                                                dphi_dA.shape)[series] ** 2
    dA = (np.einsum("dln,dl->dn", dAbar, delta)
          + np.einsum("dln,dln->dn", dphi, dphi_dA))
    return dx, ddelta, dA, dB, dC, dD


def _scan_blocks(x, delta, A, B, C, D, terms: bool):
    """(y, longrange, local) of the scan, or (y,) when not `terms`, streamed
    BLOCK tokens at a time with the (d, N) state carried between blocks, so
    the (d, L, N) buffers never exist whole and each block's stay in cache.
    A chunked recurrence needs the whole sequence and runs as one block.
    The bytes are those of the recording path."""
    d, L = x.shape
    block = L if _chunk_len(d * A.shape[1], L) else BLOCK
    out, h = None, None
    for s in range(0, max(L, 1), block):
        e = min(s + block, L)
        Abar, phi = _zoh_factors(A, delta[:, s:e])
        phi *= B[None, s:e, :]
        y, states, longrange, local = _scan_forward(x[:, s:e], Abar, phi,
                                                    C[s:e], D, h)
        parts = (y, longrange, local) if terms else (y,)
        if e - s == L:
            return parts
        if out is None:
            out = tuple(np.empty_like(p, shape=(d, L)) for p in parts)
        for o, p in zip(out, parts):
            o[:, s:e] = p
        h = states[:, -1].copy()
    return out


def scan_terms(x: np.ndarray, delta: np.ndarray, A: np.ndarray,
               B: np.ndarray, C: np.ndarray, D: np.ndarray):
    """One scan on plain arrays, run as `selective_scan_op` runs it off the
    tape; returns (y, longrange, local).

    longrange[k] = C_k . (Abar_k h_{k-1}), local[k] = C_k . (Bbar_k x_k);
    longrange + local + D*x reproduces y exactly.
    """
    x, delta, A, B, C, D = (np.asarray(a, float)
                            for a in (x, delta, A, B, C, D))
    if (x.ndim != 2 or delta.shape != x.shape or A.ndim != 2
            or A.shape[0] != x.shape[0]):
        raise ShapeError(f"x {x.shape} incompatible with delta {delta.shape} "
                         f"and A {A.shape}")
    if B.shape != C.shape or C.shape != (x.shape[1], A.shape[1]):
        raise ShapeError(f"B {B.shape} and C {C.shape} incompatible with "
                         "scan extents")
    return _scan_blocks(x, delta, A, B, C, D, True)


def selective_scan_op(x: Tensor, delta: Tensor, A: Tensor, B: Tensor,
                      C: Tensor, D: Tensor) -> Tensor:
    """Differentiable ZOH + selective scan as one tape primitive.

    When the tape is not recording, neither the states nor a backward
    closure are kept, and plain-loop scans run block by block
    (`_scan_blocks`); the output bytes are those of the recording path.
    """
    parents = (x, delta, A, B, C, D)
    xd, dd = x.data, delta.data
    Ad, Bd, Cd, Dd = A.data, B.data, C.data, D.data
    if not is_recording(parents):
        return Tensor(_scan_blocks(xd, dd, Ad, Bd, Cd, Dd, False)[0])
    Abar, phi = _zoh_factors(Ad, dd)
    y, states, _, _ = _scan_forward(xd, Abar, phi * Bd[None, :, :], Cd, Dd)

    def backward(grad):
        return scan_backward(grad, xd, dd, Ad, Bd, Cd, Dd, Abar, phi, states)

    return Tensor.from_op(y, parents, backward)
