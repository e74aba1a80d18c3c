"""Dense float64 tensors with a tape-based reverse-mode gradient engine.

The op set is deliberately closed: every primitive here has a hand-written
backward rule, and the test suite checks each one against central finite
differences. Data buffers are numpy float64 arrays; tensors are treated as
immutable once created.
"""

from __future__ import annotations

import contextlib

import numpy as np


class ShapeError(ValueError):
    pass


class ContractError(ValueError):
    pass


# When False, ops do not record parents and backward() is unavailable.
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_recording(parents) -> bool:
    """Whether an op on `parents` goes on the tape (see Tensor.from_op)."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


# The band rule. Work that is independent per pixel (token) runs in bands
# of at most STREAM_TOKENS pixels, so that off the tape no whole-image
# temporary of it exists: `ops.conv2d` builds its im2col columns per band
# of whole output rows, MOS2D runs its token-wise chain per band of tokens
# without the tape (`per_band`), and `Tensor.matmul` forms a 2-D product
# with more rows per band of rows, on the tape or off it, so both paths
# sum every product in the same GEMMs and give the same bytes. Work on at
# most STREAM_TOKENS pixels is one band, the whole array. The chunked scan
# streams its no-grad blocks in about as many tokens (ssm).
STREAM_TOKENS = 4096


def bands(n: int, width: int = 1) -> list[tuple[int, int]]:
    """[start, stop) of the bands covering range(n) in order, each of as
    many rows of `width` pixels as STREAM_TOKENS pixels hold, and at least
    one row. A last band of one row takes a row from the band before it:
    numpy sums a lone pixel's channels pairwise, not row by row as across a
    wider band or the whole map, so a per-pixel norm over it would round
    otherwise."""
    step = max(1, STREAM_TOKENS // max(1, width))
    starts = list(range(0, n, step))
    if n > step and n % step == 1:
        starts[-1] -= 1
    return list(zip(starts, [*starts[1:], n]))


def per_band(fn, n: int) -> tuple:
    """fn(start, stop) -> Tensors whose leading axis runs over tokens
    start..stop, evaluated band by band (`bands(n)`) off the tape and
    written into whole arrays; on the tape, or for one band, fn(0, n)."""
    spans = bands(n)
    if _GRAD_ENABLED or len(spans) <= 1:
        return fn(0, n)
    whole = None
    for s, e in spans:
        parts = fn(s, e)
        if whole is None:
            whole = tuple(np.empty((n, *p.shape[1:])) for p in parts)
        for w, p in zip(whole, parts):
            w[s:e] = p.data
    return tuple(Tensor(w) for w in whole)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _sigmoid(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Sigmoid of x from e = exp(-|x|): 1/(1 + e) where x >= 0, e/(1 + e)
    below, so no exponential overflows in either tail."""
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_op(data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor(data)
        if is_recording(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._coerce(other)
        data = self.data + other.data

        def backward(grad):
            return _unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape)

        return Tensor.from_op(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other)
        data = self.data - other.data

        def backward(grad):
            return _unbroadcast(grad, self.shape), _unbroadcast(-grad, other.shape)

        return Tensor.from_op(data, (self, other), backward)

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __neg__(self):
        def backward(grad):
            return (-grad,)

        return Tensor.from_op(-self.data, (self,), backward)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        data = self.data * other.data
        a, b = self, other

        def backward(grad):
            return (
                _unbroadcast(grad * b.data, a.shape),
                _unbroadcast(grad * a.data, b.shape),
            )

        return Tensor.from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        if np.any(other.data == 0.0):
            raise ZeroDivisionError("division by zero")
        with np.errstate(invalid="ignore"):
            data = self.data / other.data
        a, b = self, other

        def backward(grad):
            return (
                _unbroadcast(grad / b.data, a.shape),
                _unbroadcast(-grad * a.data / (b.data * b.data), b.shape),
            )

        return Tensor.from_op(data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor._coerce(other) / self

    def __pow__(self, p: float):
        data = self.data**p

        def backward(grad):
            return (grad * p * self.data ** (p - 1),)

        return Tensor.from_op(data, (self,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor.from_op(data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(grad):
            return (grad.reshape(old),)

        return Tensor.from_op(data, (self,), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inv = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(grad):
            return (grad.transpose(inv),)

        return Tensor.from_op(data, (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def take(self, order: np.ndarray):
        """Reorder along axis 0: out[i] = self[order[i]], where `order` is a
        permutation of range(len(self)). The backward gathers the gradient
        with the inverse permutation."""
        order = np.asarray(order, dtype=np.int64)
        n = self.shape[0]
        inverse = np.full(n, -1, dtype=np.int64)
        if order.shape == (n,) and np.all((order >= 0) & (order < n)):
            inverse[order] = np.arange(n)
        if np.any(inverse < 0):
            raise ContractError(f"take needs a permutation of range({n})")
        data = np.take(self.data, order, axis=0)

        def backward(grad):
            return (np.take(grad, inverse, axis=0),)

        return Tensor.from_op(data, (self,), backward)

    @staticmethod
    def concat(tensors, axis=0):
        tensors = [Tensor._coerce(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad):
            return tuple(np.split(grad, splits, axis=axis))

        return Tensor.from_op(data, tensors, backward)

    def slice_axis(self, axis: int, start: int, stop: int):
        if (start, stop) == (0, self.shape[axis]):
            return self                 # the whole axis: no copy, no tape node
        sl = [slice(None)] * self.ndim
        sl[axis] = slice(start, stop)
        sl = tuple(sl)
        data = self.data[sl]
        shape = self.shape

        def backward(grad):
            out = np.zeros(shape)
            out[sl] = grad
            return (out,)

        return Tensor.from_op(data, (self,), backward)

    def reflect_pad2d(self, pad_h: int, pad_w: int):
        """Reflect-pad the trailing two axes at the end, as np.pad does,
        pads of any size included."""
        if pad_h == 0 and pad_w == 0:
            return self
        H, W = self.shape[-2], self.shape[-1]
        # source row / column of every output row / column: the forward
        # gathers them, the backward folds the padding back onto them
        rows = np.pad(np.arange(H), (0, pad_h), mode="reflect")
        cols = np.pad(np.arange(W), (0, pad_w), mode="reflect")
        data = self.data[..., rows[:, None], cols]

        def backward(grad):
            g = grad[..., :H, :].copy()
            np.add.at(g, (..., rows[H:], slice(None)), grad[..., H:, :])
            out = g[..., :W].copy()
            np.add.at(out, (..., cols[W:]), g[..., W:])
            return (out,)

        return Tensor.from_op(data, (self,), backward)

    # -- linear algebra ---------------------------------------------------------

    def matmul(self, other):
        other = Tensor._coerce(other)
        if self.shape[-1] != other.shape[-2 if other.ndim > 1 else 0]:
            raise ShapeError(
                f"matmul inner dims disagree: {self.shape} x {other.shape}"
            )
        a, b = self, other
        if a.ndim == 2 and b.ndim == 2 and len(a.data) > STREAM_TOKENS:
            data = np.empty((len(a.data), b.shape[1]))
            for s, e in bands(len(a.data)):
                data[s:e] = a.data[s:e] @ b.data
        else:
            data = a.data @ b.data

        def backward(grad):
            # each parent's gradient, formed only if the parent takes one
            ad, bd = a.data, b.data
            if a.ndim == 1 and b.ndim == 1:
                rules = (lambda: grad * bd, lambda: grad * ad)
            elif a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                # for a transposed C array (a 1-D Linear's x @ W.T) the same
                # products in W's own order, so W's leaf copy is a straight one
                rules = (lambda: grad @ bd.T,
                         (lambda: np.outer(grad, ad).T) if bd.flags.f_contiguous
                         else (lambda: np.outer(ad, grad)))
            elif b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                def gb():
                    g = (np.swapaxes(ad, -1, -2) @ grad[..., None])[..., 0]
                    return g.sum(axis=tuple(range(g.ndim - 1))) if g.ndim > 1 else g

                rules = (lambda: grad[..., None] * bd, gb)
            else:
                rules = (
                    lambda: _unbroadcast(grad @ np.swapaxes(bd, -1, -2), a.shape),
                    lambda: _unbroadcast(np.swapaxes(ad, -1, -2) @ grad, b.shape))
            return tuple(rule() if p.requires_grad else None
                         for rule, p in zip(rules, (a, b)))

        return Tensor.from_op(data, (self, other), backward)

    def __matmul__(self, other):
        return self.matmul(other)

    # -- nonlinearities ---------------------------------------------------------

    def exp(self):
        data = np.exp(self.data)

        def backward(grad):
            return (grad * data,)

        return Tensor.from_op(data, (self,), backward)

    def sqrt(self):
        data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / data,)

        return Tensor.from_op(data, (self,), backward)

    def abs(self):
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return Tensor.from_op(data, (self,), backward)

    def sigmoid(self):
        data = _sigmoid(self.data, np.exp(-np.abs(self.data)))

        def backward(grad):
            return (grad * data * (1.0 - data),)

        return Tensor.from_op(data, (self,), backward)

    def silu(self):
        return self * self.sigmoid()

    def softplus(self):
        # log(1 + e^x) without overflow for large |x|.
        x = self.data
        e = np.exp(-np.abs(x))
        data = np.maximum(x, 0.0) + np.log1p(e)

        def backward(grad):
            return (grad * _sigmoid(x, e),)

        return Tensor.from_op(data, (self,), backward)

    def softmax(self, axis=-1):
        if not (-self.ndim <= axis < self.ndim):
            raise ShapeError(f"softmax axis {axis} invalid for shape {self.shape}")
        z = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(z)
        data = e / e.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * data).sum(axis=axis, keepdims=True)
            return (data * (grad - dot),)

        return Tensor.from_op(data, (self,), backward)

    def log_softmax(self, axis=-1):
        z = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
        data = z - lse
        sm = np.exp(data)

        def backward(grad):
            return (grad - sm * grad.sum(axis=axis, keepdims=True),)

        return Tensor.from_op(data, (self,), backward)

    # -- backward pass ----------------------------------------------------------

    def backward(self):
        """Backpropagate this scalar into the `.grad` of every leaf that
        requires one. The tape is released node by node as it goes: once a
        node's rule has run and its parent gradients are routed, it drops
        its closure and parent links, so what the closure saved is freed as
        soon as nothing else holds it. Every node keeps `.data`; a released
        graph cannot be backpropagated again (ContractError)."""
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        # Popping in reverse post-order runs every consumer of a node before
        # the node, so once popped and released a node is held only by the
        # caller's own references.
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            rule, parents = node._backward, node._parents
            if rule is not None:
                node._backward, node._parents = _released, ()
            if g is None:
                continue
            if node.requires_grad and rule is None:
                # Leaf parameter: accumulate. The first gradient is written
                # in one pass; g + 0.0 rounds as 0.0 + g does, -0.0 included
                if node.grad is None:
                    node.grad = np.add(g, 0.0, out=np.empty_like(node.data, order="C"))
                else:
                    node.grad += g
            if rule is None:
                continue
            for p, pg in zip(parents, rule(g)):
                if pg is None or not p.requires_grad:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg


def _released(grad):
    """The rule of a tape node whose graph has been backpropagated."""
    raise ContractError("backward() through a graph that was already "
                        "backpropagated; its tape has been released")
