"""Architecture blocks: feature modulation, attention modulation, the
degradation-guided scan module and its residual layer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .nn import Conv2d, LayerNorm2d, Linear, Module, param
from .scan_orders import ScanPermutation, build_order
from .ssm import scan_terms, selective_scan_op
from .tensor import ContractError, Tensor, no_grad

_PERM_CACHE: dict[tuple[int, int, str], ScanPermutation] = {}


def cached_order(height: int, width: int, kind: str) -> ScanPermutation:
    key = (height, width, kind)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = build_order(height, width, kind)
    return _PERM_CACHE[key]


@dataclass
class DegradationPriors:
    """DDEM outputs: supervision vector, global descriptor, adaptive kernel."""

    z_tilde: Tensor  # (4*c_d,)
    z0: Tensor       # (c_d,)
    z1: Tensor       # (c_d1, c_d2)


@dataclass(frozen=True)
class MOS2DConfig:
    channels: int
    d_state: int = 8
    dt_rank: int = 0          # 0 -> max(1, channels // 8)
    scan_kind: str = "morton"
    conditioned: bool = False
    bidirectional: bool = False

    def __post_init__(self):
        if self.dt_rank == 0:
            object.__setattr__(self, "dt_rank", max(1, self.channels // 8))

    @property
    def d_attn(self) -> int:
        return self.dt_rank + 2 * self.d_state


def dafm_apply(tokens: Tensor, scale: Tensor, bias: Tensor) -> Tensor:
    """Channel-wise affine modulation of (L, C) tokens."""
    return tokens * scale + bias


class DAFMAdapter(Module):
    """Maps the global descriptor to per-channel (scale, bias).

    Zero weights with bias (1, 0) make the modulation an exact identity at
    initialization.
    """

    def __init__(self, c_d: int, channels: int):
        self.proj = Linear(c_d, 2 * channels, None)
        self.proj.bias.data[:channels] = 1.0
        self.channels = channels

    def forward(self, z0: Tensor) -> tuple[Tensor, Tensor]:
        out = self.proj(z0)
        return (out.slice_axis(0, 0, self.channels),
                out.slice_axis(0, self.channels, 2 * self.channels))


class DSAM(Module):
    """Right-multiplies projected token features by a softmax matrix derived
    from the adaptive degradation kernel."""

    def __init__(self, d_in: int, d_attn: int, c_d1: int, c_d2: int,
                 rng: np.random.Generator):
        self.w_f = Linear(d_in, d_attn, rng, bias=False)
        self.w_z = Linear(c_d1 * c_d2, d_attn * d_attn, rng)
        self.d_attn = d_attn

    def attention_matrix(self, z1: Tensor) -> Tensor:
        flat = self.w_z(z1.reshape(-1))
        return flat.reshape(self.d_attn, self.d_attn).softmax(axis=-1)

    def apply(self, tokens: Tensor, attention: Tensor) -> Tensor:
        return (tokens @ self.w_f.weight.T) @ attention

    def forward(self, tokens: Tensor, z1: Tensor) -> Tensor:
        return self.apply(tokens, self.attention_matrix(z1))


@dataclass
class LevelConditioning:
    """Per-level conditioning, computed once per forward from the priors:
    channel scale/bias from Z0 and the shared attention module with its
    row-stochastic matrix from Z1."""

    scale: Tensor
    bias: Tensor
    dsam: DSAM
    attention: Tensor

    @staticmethod
    def from_priors(adapter: "DAFMAdapter", dsam: DSAM,
                    priors: DegradationPriors) -> "LevelConditioning":
        scale, bias = adapter(priors.z0)
        return LevelConditioning(scale, bias, dsam,
                                 dsam.attention_matrix(priors.z1))


class S6ParamHead(Module):
    """Generates (delta, B, C) from the per-token feature chunks."""

    def __init__(self, cfg: MOS2DConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        self.dt_proj = Linear(cfg.dt_rank, cfg.channels, rng, bias=False)
        if rng is None:                 # nothing drawn; loaded next
            self.dt_bias = param(np.zeros(cfg.channels))
        else:                           # softplus(dt_bias) lands in [1e-3, 1e-1]
            dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=cfg.channels))
            self.dt_bias = param(np.log(np.expm1(dt)))
        self.b_proj = Linear(cfg.d_state, cfg.d_state, rng, bias=False)
        self.c_proj = Linear(cfg.d_state, cfg.d_state, rng, bias=False)

    def forward(self, f_dsam: Tensor):
        cfg = self.cfg
        if f_dsam.shape[-1] != cfg.d_attn:
            raise ContractError(
                f"expected {cfg.d_attn} token features, got {f_dsam.shape[-1]}"
            )
        f_dt = f_dsam.slice_axis(1, 0, cfg.dt_rank)
        f_b = f_dsam.slice_axis(1, cfg.dt_rank, cfg.dt_rank + cfg.d_state)
        f_c = f_dsam.slice_axis(1, cfg.dt_rank + cfg.d_state, cfg.d_attn)
        delta = (self.dt_proj(f_dt) + self.dt_bias).softplus()  # (L, channels)
        return delta, self.b_proj(f_b), self.c_proj(f_c)


class MOS2D(Module):
    """Scan-order selective-state-space block over 2-D features.

    Pipeline: input projection -> (conditioned: DAFM) -> permute into the
    scan order -> (conditioned: DSAM, else plain linear head) -> ZOH +
    selective scan -> permute back -> gated output projection.
    """

    def __init__(self, cfg: MOS2DConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.channels
        self.in_proj = Linear(d, 2 * d, rng, bias=False)
        if not cfg.conditioned:
            self.x_proj = Linear(d, cfg.d_attn, rng, bias=False)
        self.head = S6ParamHead(cfg, rng)
        self.a_log = param(np.log(np.tile(np.arange(1.0, cfg.d_state + 1.0),
                                          (d, 1))))
        self.skip_gain = param(np.ones(d))
        self.out_proj = Linear(d, d, rng)

    def _scan(self, xs: Tensor, delta: Tensor, b: Tensor, c: Tensor) -> Tensor:
        a = -self.a_log.exp()
        return selective_scan_op(xs.T, delta.T, a, b, c, self.skip_gain).T

    def _prescan(self, feat: Tensor, cond: LevelConditioning | None):
        """Everything before the scan: (xs, z, delta, b, c, perm) with the
        scan input xs and its parameters in scan order and the gate z in
        raster order."""
        cfg = self.cfg
        if cfg.conditioned and cond is None:
            raise ContractError("conditioned MOS2D requires level conditioning")
        if not cfg.conditioned and cond is not None:
            raise ContractError("unconditioned MOS2D must not receive conditioning")
        C, H, W = feat.shape
        tokens = feat.reshape(C, H * W).T                 # (L, C) raster order
        xz = self.in_proj(tokens)
        x = xz.slice_axis(1, 0, cfg.channels)
        z = xz.slice_axis(1, cfg.channels, 2 * cfg.channels)
        if cfg.conditioned:
            x = dafm_apply(x, cond.scale, cond.bias)
        perm = cached_order(H, W, cfg.scan_kind)
        xs = x.take(perm.forward)                         # scan order
        if cfg.conditioned:
            f_dsam = cond.dsam.apply(xs, cond.attention)
        else:
            f_dsam = self.x_proj(xs)
        delta, b, c = self.head(f_dsam)
        return xs, z, delta, b, c, perm

    def forward(self, feat: Tensor,
                cond: LevelConditioning | None = None) -> Tensor:
        xs, z, delta, b, c, perm = self._prescan(feat, cond)
        ys = self._scan(xs, delta, b, c)
        if self.cfg.bidirectional:
            rev = np.arange(len(perm) - 1, -1, -1)
            ys = ys + self._scan(xs.take(rev), delta.take(rev), b.take(rev),
                                 c.take(rev)).take(rev)
        y = ys.take(perm.inverse)                         # back to raster order
        out = self.out_proj(y * z.silu())
        return out.T.reshape(feat.shape)

    def decompose(self, feat: Tensor,
                  cond: LevelConditioning | None = None):
        """(H, W) maps of the scan's long-range term, local term, and output,
        averaged over inner channels, plus the max reconstruction deviation
        |longrange + local + skip - y|. A bidirectional block adds each term
        of the reversed scan, re-reversed, as `forward` adds the two scans;
        the deviation is then rounding only (zero for one direction).
        """
        _, H, W = feat.shape
        D = self.skip_gain.data
        with no_grad():
            xs, _, delta, b, c, perm = self._prescan(feat, cond)
            a = -np.exp(self.a_log.data)

            def terms(order):
                x = xs.data[order].T
                y, longrange, local = scan_terms(
                    x, delta.data[order].T, a, b.data[order], c.data[order], D)
                return y, longrange, local, D[:, None] * x

            parts = terms(slice(None))
            if self.cfg.bidirectional:
                rev = np.arange(len(perm) - 1, -1, -1)
                parts = [f + r[:, rev] for f, r in zip(parts, terms(rev))]
        y, longrange, local, skip = parts
        deviation = float(np.max(np.abs(longrange + local + skip - y)))

        def to_map(seq_dl: np.ndarray) -> np.ndarray:
            mean = seq_dl.mean(axis=0)            # (L,) in scan order
            return mean[perm.inverse].reshape(H, W)

        return to_map(longrange), to_map(local), to_map(y), deviation


class CAB(Module):
    """Squeeze-excitation channel attention: pooled bottleneck gate."""

    def __init__(self, channels: int, rng: np.random.Generator,
                 reduction: int = 4):
        hidden = max(1, channels // reduction)
        self.fc1 = Linear(channels, hidden, rng)
        self.fc2 = Linear(hidden, channels, rng)

    def forward(self, feat: Tensor) -> Tensor:
        gate = self.fc2(self.fc1(ops.global_avg_pool(feat)).silu()).sigmoid()
        return feat * gate.reshape(-1, 1, 1)


class MDSL(Module):
    """Residual layer: scan block plus a conv / channel-attention branch."""

    def __init__(self, cfg: MOS2DConfig, rng: np.random.Generator):
        c = cfg.channels
        self.norm1 = LayerNorm2d(c)
        self.mos2d = MOS2D(cfg, rng)
        self.norm2 = LayerNorm2d(c)
        self.conv = Conv2d(c, c, 3, rng)
        self.cab = CAB(c, rng)

    def forward(self, feat: Tensor,
                cond: LevelConditioning | None = None) -> Tensor:
        mid = self.mos2d(self.norm1(feat), cond) + feat
        return self.cab(self.conv(self.norm2(mid))) + mid
