"""Selective state-space scan: ZOH discretization, recurrence, decomposition.

Array conventions (d = inner channels, L = sequence length, N = state dim):
    x      (d, L)   input sequence
    delta  (d, L)   positive timescales
    A      (d, N)   negative diagonal state matrix
    B, C   (L, N)   per-token input/output maps
    D      (d,)     skip gain

The scan is one autodiff primitive: on the tape it keeps only the state
trajectory, one (d, L, N) array, and the hand-derived backward rule
(verified against finite differences in the tests) rebuilds the ZOH
factors Abar and phi from (A, delta) with the forward's own call, the same
bytes, rather than keeping two more (d, L, N) arrays (Mamba's recompute,
Gu & Dao, arXiv 2312.00752, section 3.3.2). The states themselves are
kept: rebuilding them in blocks would sum the A and D gradients in another
order.

Both directions run one in-place linear recurrence,
h[:, k] += a[:, k] * h[:, k-1]: the forward pass on the states with
a = Abar, the backward pass on the state gradients over reversed views
with a = Abar shifted by one step. On long sequences with few
channels x states it steps chunks of the sequence together (about
2 sqrt(3L) numpy steps instead of L, see `_linear_recurrence`); elsewhere
it steps one token at a time. Every temporary the scan allocates follows
the memory order of the arrays it is combined with (token-major, strides
(N, d*N, 1), as MOS2D hands the scan its inputs), so no inner loop walks
mismatched strides; the chunked recurrence steps chunk-major copies, the
order its steps read.

Off the tape (restores, and `scan_terms` on plain arrays), the scan is
streamed in blocks: BLOCK tokens of a one-token-at-a-time scan, or whole
chunks of a chunked one. Each block's ZOH factors, recurrence and output
are formed before the next block's, with the last state and the
recurrence's carry passed on, so no (d, L, N) array exists whole (the
kernel fusion of Mamba's hardware-aware scan, Gu & Dao, arXiv 2312.00752,
section 3.3.2, with the cache in place of GPU SRAM). Every token goes
through the same operations as in the whole-sequence scan, so the output
bytes are the same.
"""

from __future__ import annotations

import numpy as np

from .tensor import STREAM_TOKENS, ShapeError, Tensor, is_recording

# Below this |delta * A| the (exp(u) - 1)/A factor switches to its series.
SERIES_THRESHOLD = 1e-8


def _series_possible(A: np.ndarray, delta: np.ndarray) -> bool:
    """Whether some |delta*A| may fall below SERIES_THRESHOLD. Rounding is
    monotonic, so none does when min|delta| * min|A| is not below it (at
    paper widths none ever does); NaN answers True."""
    bound = np.abs(delta).min(initial=np.inf) * np.abs(A).min(initial=np.inf)
    return not bound >= SERIES_THRESHOLD


def _zoh_factors(A: np.ndarray, delta: np.ndarray):
    """Return (Abar, phi) with Abar = exp(delta*A), phi = (Abar - 1)/A.

    Two full-size buffers laid out like `delta` (token-major when it is):
    u = delta*A, formed in one einsum pass, becomes Abar in place, and the
    series branch is evaluated only at the entries its mask selects, which
    is built only when `_series_possible`.
    """
    u = np.einsum("dl,dn->dln", delta, A)
    phi, u_series = np.empty_like(u), None
    if _series_possible(A, delta):
        series = np.abs(u, out=phi) < SERIES_THRESHOLD
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
# The cut was timed on the token-major layout MOS2D hands the kernel
# (strides (N, d*N, 1), forward and reversed), where a plain-loop step is
# one contiguous run of d*N values, when the chunked form stepped strided
# views of it with C-ordered temporaries: at L = 4096 the two forms tied
# near d*N = 112 with N = 4 and near 140 with N = 8. On chunk-major copies
# the recurrence alone (median of 9, forward and reversed, same host) at
# L = 4096 takes, chunked vs plain, ms: d*N = 112 (N = 4) 4.6 vs 7.5;
# 192 (N = 8) 4.0 vs 7.0; 256 (N = 4) 7.3 vs 7.5; 288 (N = 8) 10.9 vs
# 10.4; 384 (N = 8) 17.2 vs 14.2. In one 256-token block at d*N = 288
# chunked wins (0.50 vs 0.78 ms), at 768 it loses (1.15 vs 0.97 ms). The
# cut stays at 112: moving it changes the bytes of every scan whose d*N
# it crosses.
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

# A chunked no-grad scan is streamed in whole chunks, about STREAM_TOKENS
# tokens per block (the package's band constant, see `tensor.bands`).
# Timed on the same host against the whole sequence,
# STREAM_TOKENS = 4096 / 8192 / 12288 / 16384 -> whole (token-major no-grad
# scans, median of 11, interleaved):
#   (8, 65536, 4) scan, ms      55 / 57 / 54 / 69 -> 72
#     its tracemalloc peak, MiB 10.1 / 16.5 / - / 28.9 -> 72.3
#   (8, 47500, 4) scan, ms      36 / 33 / 34 / 43 -> 47
#   (16, 16384, 4) scan, ms     20 / 21 / 24 / 27 -> 29
# and toy-width restores (median of 15, interleaved), 4096 / 8192:
# 256x256 0.55 / 0.60 s, 190x250 0.32 / 0.31 s. Past 12288 tokens a
# block's chunk-major copies outgrow the cache; 4096 ties with 8192 on
# time and holds less.


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
    """(T, nc, d, N) view of the first nc*T steps of a (d, L, N) view:
    [t, c] is step t of chunk c."""
    sd, sl, sn = v.strides
    return np.lib.stride_tricks.as_strided(
        v, shape=(T, nc, v.shape[0], v.shape[2]), strides=(sl, T * sl, sd, sn))


def _linear_recurrence(a: np.ndarray, h: np.ndarray, T: int,
                       carry: np.ndarray) -> np.ndarray:
    """In place: h[:, k] += a[:, k] * h[:, k-1] for k = 0 .. L-1, where
    h[:, -1] stands for `carry` (d, N), the state entering h.

    h and a are (d, L, N); either may be a strided or reversed view. With
    T >= 2 and room for two chunks, the whole chunks of T steps step
    together: a local pass runs each chunk from a zero state, a carry runs
    over the chunk ends (the state entering chunk c is prod(a over chunk
    c-1) * the state entering it + its local end), and a fix-up pass adds
    the running product of `a` times that carry. The chunks run on
    chunk-major (T, nc, d, N) copies of h and a, so each of those steps
    reads and writes one contiguous run whatever the caller's layout, and
    h takes the result back; the temporaries follow those copies. The
    L mod T steps left over run one at a time. With T = 0, or room for
    fewer than two chunks, every step runs one at a time.

    Returns the state a step after h would carry in: the chunk carry when h
    ends on a chunk edge, which is not h's last state (that sums in another
    order), else h's last state. Running a sequence in pieces of whole
    chunks, each from its predecessor's return, gives the bytes of the run
    whole.
    """
    L = h.shape[1]
    nc = L // T if T else 0
    done = 0
    if nc >= 2:
        hc = _chunks(h, nc, T)
        hm = np.ascontiguousarray(hc)
        am = np.ascontiguousarray(_chunks(a, nc, T))
        tmp = np.empty_like(hm[0])
        for t in range(1, T):                       # local pass
            np.multiply(am[t], hm[t - 1], out=tmp)
            hm[t] += tmp
        prod = np.prod(am, axis=0)                  # decay across each chunk
        entry = np.empty_like(tmp)                  # state entering chunk c
        entry[0] = carry
        for c in range(1, nc):
            np.multiply(prod[c - 1], entry[c - 1], out=entry[c])
            entry[c] += hm[T - 1, c - 1]
        carry = prod[-1] * entry[-1]
        carry += hm[T - 1, -1]
        for t in range(T):                          # fix-up pass
            entry *= am[t]
            hm[t] += entry
        hc[...] = hm
        done = nc * T
        if done == L:
            return carry
        prev = h[:, done - 1]
    else:
        prev = carry
    tmp = np.empty(prev.shape)
    steps = zip(np.moveaxis(a, 1, 0)[done:], np.moveaxis(h, 1, 0)[done:])
    for ak, hk in steps:
        np.multiply(ak, prev, out=tmp)
        hk += tmp
        prev = hk
    return prev.copy()


def _scan_forward(x, Abar, Bbar, C, D, T, h0=None, carry=None):
    """Run the recurrence with chunk length T (0: plain loop). Returns y,
    states h (d, L, N), the long-range / local output terms, and the carry
    into a next block (see `_linear_recurrence`); y is formed as
    longrange + local + D*x, so that sum reproduces it bit-for-bit. Bbar is
    a buffer the caller gives up: it becomes the states in place.

    h0 (d, N) is the state before the first token (zero when None); it
    enters token 0's long-range term. `carry` is what the recurrence
    carries into token 0: h0 itself on the plain loop, the previous
    block's returned carry on a chunked one, where the block starts on a
    chunk edge of the whole sequence. Token 0 then goes through the same
    operations as in the sequence run whole."""
    states = Bbar
    states *= x[:, :, None]
    local = np.einsum("dln,ln->dl", states, C)
    longrange = np.zeros_like(local)
    if h0 is not None:
        np.einsum("dn,dn,n->d", Abar[:, 0], h0, C[0], out=longrange[:, 0])
        carry = _linear_recurrence(Abar, states, T, carry)
    elif x.shape[1]:
        carry = _linear_recurrence(Abar[:, 1:], states[:, 1:], T,
                                   states[:, 0])
    np.einsum("dln,dln,ln->dl", Abar[:, 1:], states[:, :-1], C[1:],
              out=longrange[:, 1:])
    y = longrange + local
    y += D[:, None] * x
    return y, states, longrange, local, carry


def _scan_backward(dy, x, C, Abar, Bbar, states):
    d, L = x.shape
    # dh[:, k] = dL/dh_k = dy_k C_k + Abar_{k+1} dh[:, k+1]: the forward
    # recurrence run over reversed views.
    dh = dy[:, :, None] * C[None, :, :]
    rev = dh[:, ::-1]
    if L:
        _linear_recurrence(Abar[:, :0:-1], rev[:, 1:],
                           _chunk_len(d * C.shape[1], L), rev[:, 0])
    dx = np.einsum("dln,dln->dl", dh, Bbar)
    dC = np.einsum("dl,dln->ln", dy, states)
    dAbar = np.empty_like(dh)
    dAbar[:, :1] = 0.0
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
    dphi_dA = np.multiply(delta[:, :, None], Abar)
    dphi_dA -= phi
    dphi_dA /= np.where(np.abs(A) < 1e-300, 1.0, A)[:, None, :]
    if _series_possible(A, delta):
        series = np.abs(np.einsum("dl,dn->dln", delta, A)) < SERIES_THRESHOLD
        if series.any():
            dphi_dA[series] = 0.5 * np.broadcast_to(
                delta[:, :, None], dphi_dA.shape)[series] ** 2
    dA = (np.einsum("dln,dl->dn", dAbar, delta)
          + np.einsum("dln,dln->dn", dphi, dphi_dA))
    return dx, ddelta, dA, dB, dC, dD


def _blocks(L: int, T: int):
    """(start, end) of each block a no-grad scan of L tokens streams, for
    chunk length T (0: plain loop). The plain loop runs BLOCK tokens at a
    time. A chunked one runs whole chunks of the whole sequence's T, about
    STREAM_TOKENS at a time and never fewer than two: the first block also
    holds token 0, and the last one the tail of fewer than T tokens."""
    if T:
        step = T * max(2, STREAM_TOKENS // T)
        edges = range(1 + step, L - 2 * T + 1, step)
    else:
        edges = range(BLOCK, L, BLOCK)
    return zip([0, *edges], [*edges, L])


def _scan_blocks(x, delta, A, B, C, D, terms: bool):
    """(y, longrange, local) of the scan, or (y,) when not `terms`, streamed
    block by block (`_blocks`) with the last state and the recurrence's
    carry passed between blocks, so the (d, L, N) buffers never exist whole
    and each block's stay in cache. The bytes are those of the recording
    path."""
    d, L = x.shape
    T = _chunk_len(d * A.shape[1], L)
    out, h0, carry = None, None, None
    for s, e in _blocks(L, T):
        Abar, phi = _zoh_factors(A, delta[:, s:e])
        phi *= B[None, s:e, :]
        y, states, longrange, local, carry = _scan_forward(
            x[:, s:e], Abar, phi, C[s:e], D, T, h0, carry)
        parts = (y, longrange, local) if terms else (y,)
        if e - s == L:
            return parts
        if out is None:
            out = tuple(np.empty_like(p, shape=(d, L)) for p in parts)
        for o, p in zip(out, parts):
            o[:, s:e] = p
        h0 = states[:, -1].copy()
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

    On the tape it keeps only the states beside its inputs: the backward
    rebuilds Abar and phi from (A, delta) with the forward's own
    `_zoh_factors` call, so they are the same bytes. When the tape is not
    recording, neither the states nor a backward closure are kept, and
    plain-loop scans run block by block (`_scan_blocks`); the output bytes
    are those of the recording path.
    """
    parents = (x, delta, A, B, C, D)
    if not is_recording(parents):
        return Tensor(_scan_blocks(*(p.data for p in parents), False)[0])
    Abar, phi = _zoh_factors(A.data, delta.data)
    phi *= B.data[None, :, :]
    y, states, _, _, _ = _scan_forward(x.data, Abar, phi, C.data, D.data,
                                       _chunk_len(A.size, x.shape[1]))

    def backward(grad):
        Abar, phi = _zoh_factors(A.data, delta.data)
        return scan_backward(grad, *(p.data for p in parents), Abar, phi,
                             states)

    return Tensor.from_op(y, parents, backward)
