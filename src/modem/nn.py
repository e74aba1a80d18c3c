"""Lightweight parameter containers over the tensor engine."""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor


class Module:
    """Base class; parameters are discovered by attribute walk."""

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            full = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            self._collect(value, full, params)
        return params

    @staticmethod
    def _collect(value, full: str, params: dict[str, Tensor]) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            params[full] = value
        elif isinstance(value, Module):
            params.update(value.parameters(full))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                Module._collect(item, f"{full}.{i}", params)

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Set every parameter from `state`, which must hold exactly the
        parameter names, each with its parameter's shape.

        C-contiguous, writeable float64 arrays are adopted as they are: the
        model takes ownership of them, and the caller must not write to them
        afterwards. Any other array is copied as float64.
        """
        params = self.parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise KeyError(f"parameter names do not match: missing "
                           f"{_first(missing)}, extra {_first(extra)}")
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data = np.require(state[name], np.float64, ("C", "W"))

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _first(names: list[str]) -> str:
    """How many `names` there are and, for an error line, the first three."""
    more = ", ..." if len(names) > 3 else ""
    return f"{len(names)} ({', '.join(names[:3])}{more})" if names else "0"


def param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


class Linear(Module):
    """y = x W^T + b with W ~ U(-1/sqrt(n_in), 1/sqrt(n_in)) and b = 0;
    with rng None W starts at zero and nothing is drawn, for weights that
    are zero at initialization or loaded next."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None,
                 bias: bool = True):
        if rng is None:
            w = np.zeros((n_out, n_in))
        else:
            bound = 1.0 / np.sqrt(n_in)
            w = rng.uniform(-bound, bound, size=(n_out, n_in))
        self.weight = param(w)
        self.bias = param(np.zeros(n_out)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        y = x @ self.weight.T
        if self.bias is not None:
            y = y + self.bias
        return y


class Conv2d(Module):
    """k x k convolution initialised like Linear over c_in*k*k inputs; rng
    None draws nothing."""

    def __init__(self, c_in: int, c_out: int, k: int,
                 rng: np.random.Generator | None, bias: bool = True):
        if rng is None:
            w = np.zeros((c_out, c_in, k, k))
        else:
            bound = 1.0 / np.sqrt(c_in * k * k)
            w = rng.uniform(-bound, bound, size=(c_out, c_in, k, k))
        self.weight = param(w)
        self.bias = param(np.zeros(c_out)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias)


class LayerNorm2d(Module):
    """Channel-wise layer norm over (C, H, W) feature maps, learned affine:
    one tape node (`ops.layer_norm`)."""

    def __init__(self, channels: int, eps: float = 1e-6):
        self.gamma = param(np.ones((channels, 1, 1)))
        self.beta = param(np.zeros((channels, 1, 1)))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma, self.beta, self.eps)
