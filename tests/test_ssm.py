"""Selective scan: discretization analytics, oracle equivalence, gradients."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from modem import ssm
from modem.ssm import (SERIES_THRESHOLD, scan_backward, scan_terms,
                       selective_scan_op, _zoh_factors)
from modem.tensor import Tensor, no_grad

from test_tensor import fd_grad


def sequential_forward(x, Abar, Bbar, C, D):
    """The scan one token at a time: reference for the chunked kernel."""
    d, L = x.shape
    N = Abar.shape[2]
    h = np.zeros((d, N))
    states = np.empty((d, L, N))
    longrange = np.empty((d, L))
    local = np.empty((d, L))
    for k in range(L):
        a_k = Abar[:, k, :]
        bx_k = Bbar[:, k, :] * x[:, k, None]
        ah = a_k * h
        longrange[:, k] = ah @ C[k]
        local[:, k] = bx_k @ C[k]
        h = ah + bx_k
        states[:, k, :] = h
    y = longrange + local + D[:, None] * x
    return y, states, longrange, local


def sequential_backward(dy, x, C, Abar, Bbar, states):
    """Reverse-time loop for (dx, dC, dAbar, dBbar): reference for the
    chunked kernel."""
    d, L = x.shape
    N = Abar.shape[2]
    dx = np.zeros_like(x)
    dC = np.zeros_like(C)
    dAbar = np.empty((d, L, N))
    dBbar = np.empty((d, L, N))
    dh = np.zeros((d, N))
    for k in range(L - 1, -1, -1):
        dh = dh + dy[:, k, None] * C[k][None, :]
        dC[k] = (dy[:, k, None] * states[:, k, :]).sum(axis=0)
        h_prev = states[:, k - 1, :] if k > 0 else np.zeros((d, N))
        dAbar[:, k, :] = dh * h_prev
        dBbar[:, k, :] = dh * x[:, k, None]
        dx[:, k] = (dh * Bbar[:, k, :]).sum(axis=1)
        dh = dh * Abar[:, k, :]
    return dx, dC, dAbar, dBbar


def reference_zoh_factors(A, delta):
    """Both ZOH branches evaluated everywhere, then selected."""
    u = delta[:, :, None] * A[:, None, :]
    Abar = np.exp(u)
    series = np.abs(u) < SERIES_THRESHOLD
    A_safe = np.where(np.abs(A) < 1e-300, 1.0, A)
    phi_exact = (Abar - 1.0) / A_safe[:, None, :]
    phi_series = delta[:, :, None] * (1.0 + 0.5 * u)
    return Abar, np.where(series, phi_series, phi_exact)


def broadcast_zoh_factors(A, delta):
    """The ZOH factors as a broadcast product of delta and A with the series
    mask built only when min|delta| * min|A| is below the threshold: the
    kernel before its one-pass product, kept as a byte and layout
    reference."""
    u = delta[:, :, None] * A[:, None, :]
    bound = np.abs(delta).min(initial=np.inf) * np.abs(A).min(initial=np.inf)
    if bound >= SERIES_THRESHOLD:
        phi, u_series = np.empty_like(u), None
    else:
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


def chunk_views(v, nc, T):
    """(d, nc, T, N) view of the first nc*T steps of a (d, L, N) view."""
    sd, sl, sn = v.strides
    return np.lib.stride_tricks.as_strided(
        v, shape=(v.shape[0], nc, T, v.shape[2]), strides=(sd, T * sl, sl, sn))


def c_order_recurrence(a, h, T):
    """In place: h[:, k] += a[:, k-1] * h[:, k-1] over the whole sequence,
    the chunked kernel stepping the caller's views with C-ordered
    temporaries: the byte reference for `ssm._linear_recurrence`."""
    L = h.shape[1]
    nc = (L - 1) // T if T else 0
    done = 1
    if nc >= 2:
        hc = chunk_views(h[:, 1:], nc, T)
        ac = chunk_views(a, nc, T)
        tmp = np.empty(hc.shape[:2] + hc.shape[3:])
        for t in range(1, T):
            np.multiply(ac[:, :, t], hc[:, :, t - 1], out=tmp)
            hc[:, :, t] += tmp
        prod = np.prod(ac, axis=2)
        carry = np.empty_like(tmp)
        carry[:, 0] = h[:, 0]
        for c in range(1, nc):
            np.multiply(prod[:, c - 1], carry[:, c - 1], out=carry[:, c])
            carry[:, c] += hc[:, c - 1, T - 1]
        for t in range(T):
            carry *= ac[:, :, t]
            hc[:, :, t] += carry
        done = 1 + nc * T
    for k in range(done, L):
        h[:, k] += a[:, k - 1] * h[:, k - 1]


def whole_sequence_terms(x, delta, A, B, C, D):
    """(y, longrange, local) of the scan run whole on the reference kernels,
    as the recording path ran it before scans were streamed."""
    d, L = x.shape
    Abar, phi = broadcast_zoh_factors(A, delta)
    states = phi * B[None, :, :]
    states *= x[:, :, None]
    local = np.einsum("dln,ln->dl", states, C)
    longrange = np.zeros_like(local)
    c_order_recurrence(Abar[:, 1:], states, ssm._chunk_len(A.size, L))
    np.einsum("dln,dln,ln->dl", Abar[:, 1:], states[:, :-1], C[1:],
              out=longrange[:, 1:])
    y = longrange + local
    y += D[:, None] * x
    return y, longrange, local


def always_mask_scan_backward(dy, x, delta, A, B, C, D, Abar, phi, states):
    """scan_backward with the series mask built on every call from a
    broadcast delta*A: the byte reference for its six gradients."""
    dx, dC, dAbar, dBbar = ssm._scan_backward(dy, x, C, Abar,
                                              phi * B[None, :, :], states)
    dx += dy * D[:, None]
    dD = (dy * x).sum(axis=1)
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


def token_major(a):
    """a (d, L) laid out token by token, as MOS2D hands the scan x, delta."""
    return np.ascontiguousarray(a.T).T


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


def unrolled_oracle(x, Abar, Bbar, C, D):
    """y_k = sum_{m<=k} C_k . (prod_{m<r<=k} Abar_r) Bbar_m x_m + D x_k."""
    d, L = x.shape
    N = Abar.shape[2]
    y = np.zeros((d, L))
    for di in range(d):
        for k in range(L):
            acc = np.zeros(N)
            for m in range(k + 1):
                term = Bbar[di, m] * x[di, m]
                for r in range(m + 1, k + 1):
                    term = term * Abar[di, r]
                acc += term
            y[di, k] = acc @ C[k] + D[di] * x[di, k]
    return y


def random_instance(rng, d=None, N=None, L=None):
    d = d or int(rng.integers(1, 5))
    N = N or int(rng.integers(1, 9))
    L = L or int(rng.integers(1, 33))
    A = -np.exp(rng.normal(size=(d, N)))
    delta = np.exp(rng.normal(scale=0.5, size=(d, L)) - 2.0)
    B = rng.normal(size=(L, N))
    C = rng.normal(size=(L, N))
    D = rng.normal(size=d)
    x = rng.normal(size=(d, L))
    return x, delta, A, B, C, D


def layout_instance(rng, d, L, N, layout, below=False):
    """random_instance in one of the layouts the scan is handed: "C" order,
    "token" major as MOS2D passes x and delta, or "reversed" views with
    negative strides. With `below`, some |delta*A| fall under the series
    threshold."""
    x, delta, A, B, C, D = random_instance(rng, d=d, N=N, L=L)
    if below:
        delta[0, : L // 2] = 1e-12
        delta[-1, -1] = 0.0
    if layout == "token":
        x, delta = token_major(x), token_major(delta)
    elif layout == "reversed":
        x, delta = x[:, ::-1], delta[:, ::-1]
        B, C = B[::-1], C[::-1]
    return x, delta, A, B, C, D


LAYOUTS = ["C", "token", "reversed"]


class TestZOH:
    def test_analytic_point(self):
        # A=-1, delta=ln 2: Abar = exp(-ln 2) = 1/2, Bbar = (1 - 1/2)/1 = 1/2
        Abar, phi = _zoh_factors(np.array([[-1.0]]), np.array([[np.log(2.0)]]))
        Bbar = phi * np.array([[1.0]])
        assert abs(Abar[0, 0, 0] - 0.5) < 1e-14
        assert abs(Bbar[0, 0, 0] - 0.5) < 1e-14

    def test_series_branch_vs_high_precision(self):
        # |delta*A| below the switch: compare against 128-bit arithmetic
        mpmath.mp.prec = 128
        A = np.array([[-1.0, -2.0]])
        for dval in (1e-9, 1e-10, 1e-12, 1e-15):
            delta = np.array([[dval]])
            Abar, phi = _zoh_factors(A, delta)
            for n in range(2):
                u = mpmath.mpf(dval) * mpmath.mpf(A[0, n])
                exact = (mpmath.exp(u) - 1) / mpmath.mpf(A[0, n])
                rel = abs(phi[0, 0, n] - float(exact)) / float(exact)
                assert rel < 1e-12

    def test_delta_to_zero_limit(self):
        Abar, phi = _zoh_factors(np.array([[-3.0]]), np.array([[0.0]]))
        assert Abar[0, 0, 0] == 1.0
        assert phi[0, 0, 0] == 0.0

    def test_abar_power_scaling(self):
        # Abar(c*delta) = Abar(delta)^c for diagonal ZOH
        A = np.array([[-0.7]])
        d1 = np.array([[0.3]])
        a1, _ = _zoh_factors(A, d1)
        a3, _ = _zoh_factors(A, 3 * d1)
        assert abs(a3[0, 0, 0] - a1[0, 0, 0] ** 3) < 1e-14

    def test_abar_in_unit_interval(self, rng):
        x, delta, A, B, C, D = random_instance(rng)
        Abar, _ = _zoh_factors(A, delta)
        assert np.all(Abar > 0) and np.all(Abar < 1)

    def test_factors_bit_identical_to_both_branch_reference(self, rng):
        def wide(d, L, N):        # |delta*A| far above the series threshold
            return (-np.tile(np.arange(1.0, N + 1.0), (d, 1)),
                    rng.uniform(1e-3, 0.1, size=(d, L)))

        def mixed(d, L, N):       # entries on both sides of it
            A = -np.exp(3.0 * rng.normal(size=(d, N)))
            delta = np.exp(rng.normal(scale=4.0, size=(d, L)) - 8.0)
            delta[0, :5] = 0.0
            return A, delta

        def apart(d, L, N):       # min|delta| * min|A| below it, no entry
            A = -np.ones((d, N))
            A[1] = -1e-5
            delta = np.ones((d, L))
            delta[0] = 1e-5
            return A, delta

        for make, (d, L, N), below in ((mixed, (3, 50, 4), True),
                                       (mixed, (8, 600, 4), True),
                                       (wide, (36, 300, 8), False),
                                       (apart, (2, 40, 3), False)):
            A, delta = make(d, L, N)
            u = np.abs(delta[:, :, None] * A[:, None, :])
            assert np.any(u < SERIES_THRESHOLD) == below
            assert np.any(u >= SERIES_THRESHOLD)
            if make is apart:
                assert (np.abs(delta).min() * np.abs(A).min()
                        < SERIES_THRESHOLD)
            for got, want in zip(_zoh_factors(A, delta),
                                 reference_zoh_factors(A, delta)):
                assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_factors_follow_delta_layout(self, rng, layout, below):
        # the one-pass product has the bytes and strides of the broadcast,
        # which lays the buffers out like delta
        d, L, N = 8, 300, 4
        _, delta, A, *_ = layout_instance(rng, d, L, N, layout, below)
        assert np.any(np.abs(delta[:, :, None] * A[:, None, :])
                      < SERIES_THRESHOLD) == below
        got, want = _zoh_factors(A, delta), broadcast_zoh_factors(A, delta)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
            assert g.strides == w.strides
        if layout == "token":
            for g in got:
                assert g.strides == (8 * N, 8 * d * N, 8)


class TestScan:
    def test_matches_unrolled_oracle(self, rng):
        for _ in range(50):
            x, delta, A, B, C, D = random_instance(rng)
            Abar, phi = _zoh_factors(A, delta)
            y, _, _ = scan_terms(x, delta, A, B, C, D)
            expect = unrolled_oracle(x, Abar, phi * B, C, D)
            assert np.max(np.abs(y - expect)) < 1e-10

    def test_decomposition_identity_bit_exact(self, rng):
        for _ in range(20):
            x, delta, A, B, C, D = random_instance(rng)
            y, longrange, local = scan_terms(x, delta, A, B, C, D)
            np.testing.assert_array_equal(longrange + local + D[:, None] * x, y)

    def test_first_step_longrange_zero(self, rng):
        x, delta, A, B, C, D = random_instance(rng)
        _, longrange, _ = scan_terms(x, delta, A, B, C, D)
        np.testing.assert_array_equal(longrange[:, 0], 0.0)

    def test_long_sequence_stability(self, rng):
        # Abar in (0, 1) keeps the state bounded over 10^4 steps
        d, N, L = 2, 4, 10_000
        A = -np.exp(rng.normal(size=(d, N)))
        delta = np.full((d, L), 0.05)
        B = rng.normal(size=(L, N))
        C = rng.normal(size=(L, N))
        D = np.zeros(d)
        x = rng.normal(size=(d, L))
        Abar, phi = _zoh_factors(A, delta)
        y, states, *_ = ssm._scan_forward(x, Abar, phi * B, C, D,
                                          ssm._chunk_len(d * N, L))
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(states)) < 1e4

    def test_shape_errors(self, rng):
        x, delta, A, B, C, D = random_instance(rng, d=2, N=3, L=4)
        with pytest.raises(ValueError):
            scan_terms(x[:, :3], delta, A, B, C, D)
        with pytest.raises(ValueError):
            scan_terms(x, delta, A, B, C[:3], D)

    @pytest.mark.parametrize("token_major", [False, True])
    @pytest.mark.parametrize("L", [1, 255, 256, 257, 773])
    def test_terms_match_sequential(self, rng, L, token_major):
        # d*N above CHUNKED_MAX_DN: streamed in blocks, on either side of
        # each block edge, in C order and token-major as MOS2D hands them
        x, delta, A, B, C, D = random_instance(rng, d=16, N=8, L=L)
        if token_major:
            x, delta = (np.ascontiguousarray(a.T).T for a in (x, delta))
        Abar, phi = _zoh_factors(A, delta)
        want = sequential_forward(x, Abar, phi * B, C, D)
        got = scan_terms(x, delta, A, B, C, D)
        for g, w in zip(got, (want[0], want[2], want[3])):
            assert rel_err(g, w) < 1e-12

    def test_every_path_calls_the_kernels_through_the_module(self, rng,
                                                              monkeypatch):
        # the benchmark's tracer and negative controls patch these names
        from modem.blocks import MOS2D, MOS2DConfig
        calls = []
        for name in ("_zoh_factors", "_scan_forward"):
            def spy(*args, _name=name, _orig=getattr(ssm, name)):
                calls.append(_name)
                return _orig(*args)
            monkeypatch.setattr(ssm, name, spy)
        arrays = random_instance(rng, d=16, N=8, L=300)

        def run(fn):
            calls.clear()
            fn()
            return sorted(set(calls))

        kernels = ["_scan_forward", "_zoh_factors"]
        assert run(lambda: selective_scan_op(
            *[Tensor(a, requires_grad=True) for a in arrays])) == kernels
        with no_grad():
            assert run(lambda: selective_scan_op(
                *[Tensor(a, requires_grad=True) for a in arrays])) == kernels
        block = MOS2D(MOS2DConfig(channels=4, d_state=3, dt_rank=2), rng)
        assert run(lambda: block.decompose(
            Tensor(rng.normal(size=(4, 4, 4))))) == kernels


class TestScanGradients:
    def test_full_fd_check(self, rng):
        worst = 0.0
        for _ in range(5):
            xd, dd, Ad, Bd, Cd, Dd = random_instance(rng, d=2, N=3, L=6)
            tensors = {
                "x": Tensor(xd.copy(), requires_grad=True),
                "delta": Tensor(dd.copy(), requires_grad=True),
                "A": Tensor(Ad.copy(), requires_grad=True),
                "B": Tensor(Bd.copy(), requires_grad=True),
                "C": Tensor(Cd.copy(), requires_grad=True),
                "D": Tensor(Dd.copy(), requires_grad=True),
            }
            w = rng.normal(size=xd.shape)

            def loss_t():
                out = selective_scan_op(*tensors.values())
                return (out * Tensor(w)).sum()

            loss_t().backward()

            def loss_np(vals):
                y, _, _ = scan_terms(vals["x"], vals["delta"], vals["A"],
                                     vals["B"], vals["C"], vals["D"])
                return float((y * w).sum())

            for name, t in tensors.items():
                vals = {k: v.data for k, v in tensors.items()}
                fd = fd_grad(
                    lambda a: loss_np({**vals, name: a}), t.data.copy())
                err = np.max(np.abs(t.grad - fd) /
                             np.maximum(np.abs(fd), 1.0))
                worst = max(worst, err)
        assert worst < 1e-6

    def test_series_branch_gradient(self):
        # delta so small that every ZOH factor uses the series path
        d, N, L = 1, 2, 3
        rng = np.random.default_rng(7)
        A = np.array([[-1.0, -2.0]])
        delta = np.full((d, L), 1e-10)
        B = rng.normal(size=(L, N))
        C = rng.normal(size=(L, N))
        D = rng.normal(size=d)
        x = rng.normal(size=(d, L))
        assert np.all(np.abs(delta[:, :, None] * A[:, None, :])
                      < SERIES_THRESHOLD)
        t = {k: Tensor(v.copy(), requires_grad=True)
             for k, v in dict(x=x, delta=delta, A=A, B=B, C=C, D=D).items()}
        selective_scan_op(*t.values()).sum().backward()
        for v in t.values():
            assert np.all(np.isfinite(v.grad))
        # dA via central FD with a large step relative to delta*A curvature
        def f(a):
            y, _, _ = scan_terms(x, delta, a, B, C, D)
            return float(y.sum())
        fd = fd_grad(f, A.copy(), eps=1e-5)
        np.testing.assert_allclose(t["A"].grad, fd, rtol=1e-4, atol=1e-10)


    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("d,L,N", [(3, 200, 4), (36, 70, 8)])
    def test_gradients_bit_identical_to_always_mask_reference(
            self, rng, d, L, N, layout, below):
        x, delta, A, B, C, D = layout_instance(rng, d, L, N, layout, below)
        Abar, phi = _zoh_factors(A, delta)
        _, states, *_ = ssm._scan_forward(x, Abar, phi * B, C, D,
                                          ssm._chunk_len(d * N, L))
        dy = rng.normal(size=(d, L))
        args = (dy, x, delta, A, B, C, D, Abar, phi, states)
        got, want = scan_backward(*args), always_mask_scan_backward(*args)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert len(got) == 6


    def test_nan_takes_the_masked_path(self, rng):
        # NaN makes the min|delta| * min|A| bound NaN: the mask is built
        x, delta, A, B, C, D = layout_instance(rng, 3, 50, 4, "token")
        delta[1, 7] = np.nan
        assert ssm._series_possible(A, delta)
        for got, want in zip(_zoh_factors(A, delta),
                             broadcast_zoh_factors(A, delta)):
            assert got.tobytes() == want.tobytes()
        Abar, phi = _zoh_factors(A, delta)
        _, states, *_ = ssm._scan_forward(x, Abar, phi * B, C, D, 0)
        args = (rng.normal(size=(3, 50)), x, delta, A, B, C, D, Abar, phi,
                states)
        for g, w in zip(scan_backward(*args), always_mask_scan_backward(*args)):
            assert g.tobytes() == w.tobytes()

    def test_empty_sequence_backward(self, rng):
        # (d, L, N) = (3, 0, 2): every gradient is empty or zero, with its
        # parent's shape
        d, N = 3, 2
        parents = [Tensor(a, requires_grad=True) for a in (
            np.empty((d, 0)), np.empty((d, 0)), -rng.uniform(0.5, 2, (d, N)),
            np.empty((0, N)), np.empty((0, N)), rng.normal(size=d))]
        out = selective_scan_op(*parents)
        assert out.shape == (d, 0) and out.requires_grad
        (out.sum() + parents[5].sum()).backward()
        for p in parents:
            assert p.grad.shape == p.shape
        assert not parents[2].grad.any()
        assert np.array_equal(parents[5].grad, np.ones(d))


def recurrence_operands(rng, d, L, N, layout):
    """(a, want, got) for a recurrence over L states: `a` (d, L-1, N) and
    two equal (d, L, N) state arrays, laid out "C", "token" major, or as
    "reversed" views the way the backward pass runs them."""
    a = rng.uniform(0.5, 1.0, size=(L, d, N)).transpose(1, 0, 2)
    h0 = rng.normal(size=(L, d, N)).transpose(1, 0, 2)
    if layout == "C":
        a, h0 = np.ascontiguousarray(a), np.ascontiguousarray(h0)
    want, got = h0.copy(order="K"), h0.copy(order="K")
    if layout == "reversed":
        return a[:, :0:-1], want[:, ::-1], got[:, ::-1]
    return a[:, 1:], want, got


T = 8
RECURRENCE_CASES = [(d, N, L) for d, N in ((1, 1), (8, 4), (288, 8))
                    for L in (1, 2, T - 1, T, T + 1, 2 * T + 1, 3 * T + 5,
                              4096 if d * N < 2304 else 300)]


class TestChunkedKernel:
    @pytest.mark.parametrize("d,N,L", RECURRENCE_CASES)
    def test_recurrence_matches_loop(self, rng, d, N, L):
        """Explicit chunk length T: no chunk, one chunk, chunks with and
        without a tail, for d*N from 1 to 2304."""
        a = rng.uniform(0.0, 1.0, size=(d, max(L - 1, 0), N))
        h0 = rng.normal(size=(d, L, N))
        want = h0.copy()
        for k in range(1, L):
            want[:, k] = a[:, k - 1] * want[:, k - 1] + want[:, k]
        got = h0.copy()
        ssm._linear_recurrence(a, got[:, 1:], T, got[:, 0])
        assert rel_err(got, want) < 1e-13
        # the same on views with negative strides, as the backward pass runs it
        got = h0[:, ::-1].copy()[:, ::-1]
        ssm._linear_recurrence(a[:, ::-1].copy()[:, ::-1], got[:, 1:], T,
                               got[:, 0])
        assert rel_err(got, want) < 1e-13

    @pytest.mark.parametrize("d,L,N", [(1, 3000, 1), (8, 4096, 4),
                                       (16, 1024, 4), (36, 300, 8),
                                       (72, 200, 8), (288, 70, 8),
                                       (2, 100, 3), (3, 63, 2)])
    def test_forward_and_backward_match_sequential(self, rng, d, L, N):
        x, delta, A, B, C, D = random_instance(rng, d=d, N=N, L=L)
        Abar, phi = _zoh_factors(A, delta)
        Bbar = phi * B
        want = sequential_forward(x, Abar, Bbar, C, D)
        got = ssm._scan_forward(x, Abar, Bbar.copy(), C, D,
                                ssm._chunk_len(d * N, L))
        for g, w in zip(got, want):
            assert rel_err(g, w) < 1e-12
        dy = rng.normal(size=(d, L))
        want = sequential_backward(dy, x, C, Abar, Bbar, want[1])
        got = ssm._scan_backward(dy, x, C, Abar, Bbar, got[1])
        for g, w in zip(got, want):
            assert rel_err(g, w) < 1e-12

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("d,L,N", [(3, 500, 4), (16, 1024, 4),
                                       (8, 4097, 4), (8, 65536, 4)])
    def test_recurrence_bit_identical_to_c_order_kernel(self, rng, d, L, N,
                                                        layout):
        T = ssm._chunk_len(d * N, L)
        assert T and (L - 1) // T >= 2
        a, want, got = recurrence_operands(rng, d, L, N, layout)
        c_order_recurrence(a, want, T)
        ssm._linear_recurrence(a, got[:, 1:], T, got[:, 0])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("L", [1, 2, 255, 256, 257])
    def test_plain_loop_bit_identical_to_reference(self, rng, L, layout):
        # T = 0, the loop every paper-width scan takes, at d*N = 288; it
        # returns h's last state, which a next block carries in
        a, want, got = recurrence_operands(rng, 36, L, 8, layout)
        c_order_recurrence(a, want, 0)
        carry = ssm._linear_recurrence(a, got[:, 1:], 0, got[:, 0])
        assert got.tobytes() == want.tobytes()
        assert carry.tobytes() == want[:, -1].tobytes()

    @pytest.mark.parametrize("pieces", [[2], [3, 1], [1, 4, 2]])
    def test_recurrence_in_whole_chunks_bit_identical(self, rng, pieces):
        # each piece starts on a chunk edge and carries in what the one
        # before returned: the chunk carry, not its last state
        d, N, T = 4, 3, 8
        chunks = 2 * sum(pieces) + 2
        L = 1 + chunks * T + T - 1
        a = rng.uniform(0.5, 1.0, size=(d, L - 1, N))
        h0 = rng.normal(size=(d, L, N))
        want, got = h0.copy(), h0.copy()
        c_order_recurrence(a, want, T)
        carry, s = got[:, 0], 1
        for n in pieces:
            e = s + 2 * n * T
            carry = ssm._linear_recurrence(a[:, s - 1:e - 1], got[:, s:e], T,
                                           carry)
            s = e
        ssm._linear_recurrence(a[:, s - 1:], got[:, s:], T, carry)
        assert got.tobytes() == want.tobytes()

    def test_chunk_rule(self):
        assert ssm._chunk_len(32, ssm.CHUNKED_MIN_LEN - 1) == 0
        assert ssm._chunk_len(ssm.CHUNKED_MAX_DN + 1, 4096) == 0
        for L in (ssm.CHUNKED_MIN_LEN, 1000, 4096, 65536):
            T = ssm._chunk_len(32, L)
            assert T >= 2 and (L - 1) // T >= 2

    def test_fd_gradient_across_chunks(self):
        rng = np.random.default_rng(3)
        d, N, L = 2, 3, 100
        assert (L - 1) // ssm._chunk_len(d * N, L) >= 3
        xd, dd, Ad, Bd, Cd, Dd = random_instance(rng, d=d, N=N, L=L)
        tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in
                   dict(x=xd, delta=dd, A=Ad, B=Bd, C=Cd, D=Dd).items()}
        w = rng.normal(size=(d, L))
        (selective_scan_op(*tensors.values()) * Tensor(w)).sum().backward()

        def loss_np(vals):
            y, _, _ = scan_terms(vals["x"], vals["delta"], vals["A"],
                                 vals["B"], vals["C"], vals["D"])
            return float((y * w).sum())

        for name, t in tensors.items():
            vals = {k: v.data for k, v in tensors.items()}
            fd = fd_grad(lambda a: loss_np({**vals, name: a}), t.data.copy())
            err = np.max(np.abs(t.grad - fd) / np.maximum(np.abs(fd), 1.0))
            assert err < 1e-6, name

    def test_no_grad_output_bit_equal_and_inputs_untouched(self, rng):
        # (3, 4): whole-sequence scans, chunked at L = 500. (16, 8):
        # d*N above CHUNKED_MAX_DN, streamed in blocks without the tape,
        # on either side of each block edge and token-major as MOS2D
        # hands them.
        blk = ssm.BLOCK
        cases = [(3, 4, 5, False), (3, 4, 500, False)] + [
            (16, 8, L, token_major) for L in (1, blk - 1, blk, blk + 1,
                                              3 * blk + 5)
            for token_major in (False, True)]
        for d, N, L, token_major in cases:
            arrays = random_instance(rng, d=d, N=N, L=L)
            if token_major:
                arrays = tuple(np.ascontiguousarray(a.T).T if a.shape == (d, L)
                               else a for a in arrays)
            saved = [a.copy() for a in arrays]
            grad_path = selective_scan_op(
                *[Tensor(a, requires_grad=True) for a in arrays])
            with no_grad():
                no_grad_path = selective_scan_op(
                    *[Tensor(a, requires_grad=True) for a in arrays])
            assert no_grad_path.data.tobytes() == grad_path.data.tobytes()
            assert no_grad_path.data.strides == grad_path.data.strides
            assert not no_grad_path.requires_grad
            assert no_grad_path._backward is None
            grad_path.sum().backward()
            scan_terms(*arrays)
            for a, b in zip(arrays, saved):
                assert a.tobytes() == b.tobytes()

    def test_no_grad_scan_memory_is_per_block(self):
        # Streamed, a no-grad scan holds O(d*N*BLOCK) beyond its output:
        # the 100 MB (d, L, N) buffers of this shape never exist whole.
        rng = np.random.default_rng(0)
        d, L, N = 96, 16384, 8
        x = np.ascontiguousarray(rng.normal(size=(L, d))).T
        delta = rng.uniform(1e-3, 0.1, size=(L, d)).T
        A = -np.tile(np.arange(1.0, N + 1.0), (d, 1))
        args = [Tensor(a) for a in (x, delta, A, rng.normal(size=(L, N)),
                                    rng.normal(size=(L, N)), np.ones(d))]
        tracemalloc.start()
        try:
            with no_grad():
                y = selective_scan_op(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == (d, L)
        assert peak < 32e6, peak

    def test_recording_scan_keeps_only_its_states(self, rng):
        # On the tape the scan keeps its states, one (d, L, N) array, and
        # rebuilds Abar and phi in the backward: its gradients are the
        # bytes of the rule fed the factors a storing scan would keep.
        d, L, N = 16, 4096, 4
        arrays = random_instance(rng, d=d, N=N, L=L)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = selective_scan_op(*tensors)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1.5 * d * L * N * 8, grown
        x, delta, A, B, C, D = arrays
        Abar, phi = _zoh_factors(A, delta)
        _, states, *_ = ssm._scan_forward(x, Abar, phi * B, C, D,
                                          ssm._chunk_len(d * N, L))
        dy = rng.normal(size=(d, L))
        want = scan_backward(dy, *arrays, Abar, phi, states)
        (y * Tensor(dy)).sum().backward()
        for t, w in zip(tensors, want):
            assert t.grad.tobytes() == w.tobytes()

    def test_backward_leaves_saved_arrays_untouched(self, rng):
        x, delta, A, B, C, D = random_instance(rng, d=3, N=4, L=300)
        Abar, phi = _zoh_factors(A, delta)
        y, states, *_ = ssm._scan_forward(x, Abar, phi * B, C, D,
                                          ssm._chunk_len(3 * 4, 300))
        dy = rng.normal(size=y.shape)
        args = (dy, x, delta, A, B, C, D, Abar, phi, states)
        saved = [a.copy() for a in args]
        scan_backward(*args)
        for a, b in zip(args, saved):
            assert a.tobytes() == b.tobytes()


# Sequence lengths at the edges of chunked no-grad blocks, for d*N = 32 and
# STREAM_TOKENS = 300: L - 1 is a multiple of the block step m*T plus
# `chunks` chunks and `tokens` tokens: exactly, one token over, a tail of
# T - 1 (it rides with the last block), a remainder one token short of two
# chunks (it joins the block before it) and one of exactly two chunks.
STREAM_EDGES = [(589, 0, 0), (868, 0, 0), (869, 0, 1), (884, 1, -1),
                (901, 2, -1), (902, 2, 0)]


class TestStreamedChunkedScan:
    def check_against_whole(self, arrays):
        want = whole_sequence_terms(*arrays)
        got = scan_terms(*arrays)
        with no_grad():
            y = selective_scan_op(*[Tensor(a) for a in arrays]).data
        for g, w in zip((*got, y), (*want, want[0])):
            assert g.tobytes() == w.tobytes()
            assert g.strides == w.strides

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("L,chunks,tokens", STREAM_EDGES)
    def test_bytes_and_strides_at_block_edges(self, rng, monkeypatch, L,
                                              chunks, tokens, layout):
        monkeypatch.setattr(ssm, "STREAM_TOKENS", 300)
        d, N = 8, 4
        T = ssm._chunk_len(d * N, L)
        step = T * max(2, 300 // T)
        assert (L - 1) % step == chunks * T + tokens
        blocks = list(ssm._blocks(L, T))
        assert len(blocks) >= 2 and blocks[-1][1] == L
        for s, e in blocks[1:]:
            assert (s - 1) % T == 0 and e - s >= 2 * T
        self.check_against_whole(layout_instance(rng, d, L, N, layout))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bytes_and_strides_at_full_size(self, rng, layout):
        d, L, N = 8, 65536, 4
        assert len(list(ssm._blocks(L, ssm._chunk_len(d * N, L)))) >= 4
        self.check_against_whole(layout_instance(rng, d, L, N, layout))

    def test_no_grad_memory_is_per_block(self):
        # A chunked no-grad scan holds O(d*N*STREAM_TOKENS) beyond its
        # 4 MiB output; run as one block, it peaks at 48 MiB or more.
        rng = np.random.default_rng(0)
        d, L, N = 8, 65536, 4
        x = token_major(rng.normal(size=(d, L)))
        delta = token_major(rng.uniform(1e-3, 0.1, size=(d, L)))
        A = -np.tile(np.arange(1.0, N + 1.0), (d, 1))
        args = [Tensor(a) for a in (x, delta, A, rng.normal(size=(L, N)),
                                    rng.normal(size=(L, N)), np.ones(d))]
        tracemalloc.start()
        try:
            with no_grad():
                y = selective_scan_op(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == (d, L)
        assert peak < 24 * 2**20, peak
