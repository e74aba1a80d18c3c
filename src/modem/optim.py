"""Decoupled-weight-decay Adam and the cyclic cosine-restart schedule."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


# values per chunk of AdamW's update: the two float64 scratch chunks and
# the matching slices of p, g, m and v (768 KiB) stay in L2 together
CHUNK = 16384


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter, 1711.05101).

    The optimizer owns its parameters' arrays: `step` writes each `p.data`
    and its moments in place, through flat views, and never rebinds them.
    Every parameter must therefore hold a C-contiguous, writeable float64
    array, which is checked here and at each step; replacing `p.data`
    after construction is allowed only with an array of the same kind.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 1e-4):
        for name, p in params.items():
            _flat(p.data, name)
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.shape) for k, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        """One update of every parameter, chunk by chunk; per value the
        float operations are those of the whole-array rule
            m = m*b1 + (1-b1)*g;  v = v*b2 + ((1-b2)*g)*g
            p = p - lr*((m/bc1) / (sqrt(v/bc2) + eps) + wd*p)
        in that order, so the results are the same bits. A parameter
        without a gradient is updated as if its gradient were zero."""
        lr = self.lr if lr is None else lr
        self.t += 1
        b1, b2 = self.betas
        c1, c2 = 1 - b1, 1 - b2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        eps, wd = self.eps, self.weight_decay
        scratch_a = np.empty(CHUNK)
        scratch_b = np.empty(CHUNK)
        for name, p in self.params.items():
            pf = _flat(p.data, name)
            mf = self.m[name].reshape(-1)
            vf = self.v[name].reshape(-1)
            gf = np.zeros(pf.size) if p.grad is None else np.ravel(p.grad)
            for lo in range(0, pf.size, CHUNK):
                hi = min(lo + CHUNK, pf.size)
                a = scratch_a[: hi - lo]
                b = scratch_b[: hi - lo]
                g, m, v, w = gf[lo:hi], mf[lo:hi], vf[lo:hi], pf[lo:hi]
                m *= b1
                np.multiply(g, c1, out=a)
                m += a
                v *= b2
                np.multiply(g, c2, out=a)
                a *= g
                v += a
                np.divide(v, bc2, out=a)
                np.sqrt(a, out=a)
                a += eps
                np.divide(m, bc1, out=b)
                b /= a
                np.multiply(w, wd, out=a)
                b += a
                b *= lr
                w -= b

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def _flat(a: np.ndarray, name: str) -> np.ndarray:
    """A flat view of a parameter array, which must be C-contiguous,
    writeable float64 so that the view writes through."""
    if not (a.flags.c_contiguous and a.flags.writeable and a.dtype == np.float64):
        raise ValueError(f"AdamW parameter {name} must be a C-contiguous, "
                         "writeable float64 array")
    return a.reshape(-1)


class CosineRestartSchedule:
    """Cosine decay from peak*restart_weight to eta_min inside each period;
    resets at period boundaries, clamps to the final floor afterwards."""

    def __init__(self, base_lr: float, periods: list[int],
                 restart_weights: list[float], eta_mins: list[float]):
        if not (len(periods) == len(restart_weights) == len(eta_mins)):
            raise ValueError("periods, restart_weights, eta_mins must align")
        self.base_lr = base_lr
        self.periods = list(periods)
        self.restart_weights = list(restart_weights)
        self.eta_mins = list(eta_mins)
        self.starts = np.concatenate([[0], np.cumsum(periods)])

    def lr(self, step: int) -> float:
        if step >= self.starts[-1]:
            return self.eta_mins[-1]
        i = int(np.searchsorted(self.starts, step, side="right")) - 1
        local = step - self.starts[i]
        peak = self.base_lr * self.restart_weights[i]
        floor = self.eta_mins[i]
        cos = 0.5 * (1.0 + np.cos(np.pi * local / self.periods[i]))
        return floor + (peak - floor) * cos
