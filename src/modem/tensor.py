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
        data = self.data @ other.data
        a, b = self, other

        def backward(grad):
            ad, bd = a.data, b.data
            if a.ndim == 1 and b.ndim == 1:
                return grad * bd, grad * ad
            if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                return grad @ bd.T, np.outer(ad, grad)
            if b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                ga = grad[..., None] * bd
                gb = (np.swapaxes(ad, -1, -2) @ grad[..., None])[..., 0]
                if gb.ndim > 1:
                    gb = gb.sum(axis=tuple(range(gb.ndim - 1)))
                return ga, gb
            ga = grad @ np.swapaxes(bd, -1, -2)
            gb = np.swapaxes(ad, -1, -2) @ grad
            return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

        return Tensor.from_op(data, (self, other), backward)

    def __matmul__(self, other):
        return self.matmul(other)

    # -- nonlinearities ---------------------------------------------------------

    def exp(self):
        data = np.exp(self.data)

        def backward(grad):
            return (grad * data,)

        return Tensor.from_op(data, (self,), backward)

    def log(self):
        data = np.log(self.data)

        def backward(grad):
            return (grad / self.data,)

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

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf parameter: accumulate.
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._backward is None:
                continue
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg
