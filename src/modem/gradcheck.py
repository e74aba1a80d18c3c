"""Finite-difference gradient verification for every architecture block.

Shared by the command-line `gradcheck` subcommand and the test suite.
Each check builds a small block, runs a scalar-producing closure, and
compares tape gradients against central differences at a random subset
of coordinates of every parameter and input.
"""

from __future__ import annotations

import numpy as np

from .blocks import (CAB, DSAM, MDSL, MOS2D, DAFMAdapter, DegradationPriors,
                     LevelConditioning, MOS2DConfig, S6ParamHead, dafm_apply)
from .losses import correlation_loss, kl_loss, l1_loss
from .model import DDEM, DDEMConfig
from .tensor import Tensor

FD_TOLERANCE = 1e-4


def fd_check(fn, tensors: dict[str, Tensor], eps: float = 1e-5,
             max_entries: int = 6, seed: int = 0) -> float:
    """Worst relative error between tape and central-difference gradients.

    `fn` must return a scalar Tensor recomputed from the current data of
    `tensors`. Up to `max_entries` coordinates per tensor are probed.
    """
    for t in tensors.values():
        t.grad = None
    out = fn()
    out.backward()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in tensors.values():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        n = flat.size
        picks = rng.choice(n, size=min(max_entries, n), replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = float(fn().data)
            flat[idx] = orig - eps
            lo = float(fn().data)
            flat[idx] = orig
            fd = (hi - lo) / (2 * eps)
            an = grad.reshape(-1)[idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


# prior widths (c_d, c_d1, c_d2) of the toy conditioned blocks
_TOY_C_D, _TOY_C_D1, _TOY_C_D2 = 5, 3, 4


def _toy_cfg(conditioned: bool) -> MOS2DConfig:
    return MOS2DConfig(channels=4, d_state=3, dt_rank=2,
                       conditioned=conditioned)


def _toy_priors(rng: np.random.Generator) -> DegradationPriors:
    return DegradationPriors(
        z_tilde=Tensor(rng.normal(size=4 * _TOY_C_D), requires_grad=True),
        z0=Tensor(rng.normal(size=_TOY_C_D), requires_grad=True),
        z1=Tensor(rng.normal(size=(_TOY_C_D1, _TOY_C_D2)), requires_grad=True),
    )


def check_dafm(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    adapter = DAFMAdapter(5, 4)
    # move off the zero init so the weight gradient is exercised
    adapter.proj.weight.data = rng.normal(scale=0.3, size=adapter.proj.weight.shape)
    tokens = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
    z0 = Tensor(rng.normal(size=5), requires_grad=True)
    tensors = dict(adapter.parameters(), tokens=tokens, z0=z0)

    def fn():
        scale, bias = adapter(z0)
        return (dafm_apply(tokens, scale, bias) ** 2).mean()

    return fd_check(fn, tensors, seed=seed)


def check_dsam(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    dsam = DSAM(d_in=4, d_attn=5, c_d1=3, c_d2=4, rng=rng)
    tokens = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    z1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    tensors = dict(dsam.parameters(), tokens=tokens, z1=z1)

    def fn():
        return (dsam(tokens, z1) ** 2).mean()

    return fd_check(fn, tensors, seed=seed)


def check_s6_head(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cfg = _toy_cfg(conditioned=False)
    head = S6ParamHead(cfg, rng)
    f = Tensor(rng.normal(size=(6, cfg.d_attn)), requires_grad=True)
    tensors = dict(head.parameters(), f=f)

    def fn():
        delta, b, c = head(f)
        return (delta * delta).sum() + (b * b).sum() + (c * c).sum()

    return fd_check(fn, tensors, seed=seed)


def _toy_conditioning(rng, cfg):
    """Adapter + shared attention module + priors for conditioned blocks."""
    adapter = DAFMAdapter(_TOY_C_D, cfg.channels)
    adapter.proj.weight.data = rng.normal(scale=0.2, size=adapter.proj.weight.shape)
    dsam = DSAM(cfg.channels, cfg.d_attn, _TOY_C_D1, _TOY_C_D2, rng)
    priors = _toy_priors(rng)
    return adapter, dsam, priors


def check_mos2d(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cfg = _toy_cfg(conditioned=True)
    block = MOS2D(cfg, rng)
    adapter, dsam, priors = _toy_conditioning(rng, cfg)
    feat = Tensor(rng.normal(size=(cfg.channels, 4, 4)), requires_grad=True)
    tensors = dict(block.parameters(), feat=feat, z0=priors.z0, z1=priors.z1,
                   **adapter.parameters("adapter"), **dsam.parameters("dsam"))

    def fn():
        cond = LevelConditioning.from_priors(adapter, dsam, priors)
        return (block(feat, cond) ** 2).mean()

    return fd_check(fn, tensors, max_entries=3, seed=seed)


def check_mdsl(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cfg = _toy_cfg(conditioned=True)
    layer = MDSL(cfg, rng)
    adapter, dsam, priors = _toy_conditioning(rng, cfg)
    feat = Tensor(rng.normal(size=(cfg.channels, 4, 4)), requires_grad=True)
    tensors = dict(layer.parameters(), feat=feat, z0=priors.z0, z1=priors.z1,
                   **adapter.parameters("adapter"), **dsam.parameters("dsam"))

    def fn():
        cond = LevelConditioning.from_priors(adapter, dsam, priors)
        return (layer(feat, cond) ** 2).mean()

    return fd_check(fn, tensors, max_entries=2, seed=seed)


def check_cab(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cab = CAB(6, rng)
    feat = Tensor(rng.normal(size=(6, 4, 4)), requires_grad=True)
    tensors = dict(cab.parameters(), feat=feat)

    def fn():
        return (cab(feat) ** 2).mean()

    return fd_check(fn, tensors, seed=seed)


def check_ddem(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cfg = DDEMConfig(in_channels=6, channels=4, num_groups=1, mdsl_per_group=1,
                     c_d=5, c_d1=3, c_d2=4, d_state=3, dt_rank=2)
    ddem = DDEM(cfg, rng)
    image = Tensor(rng.normal(size=(6, 4, 4)), requires_grad=True)
    tensors = dict(ddem.parameters(), image=image)

    def fn():
        priors = ddem(image)
        return ((priors.z_tilde ** 2).sum() + (priors.z0 ** 2).sum()
                + (priors.z1 ** 2).sum())

    return fd_check(fn, tensors, max_entries=2, seed=seed)


def check_losses(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    pred = Tensor(rng.normal(size=(3, 5, 5)), requires_grad=True)
    target = Tensor(rng.normal(size=(3, 5, 5)))
    z_student = Tensor(rng.normal(size=12), requires_grad=True)
    z_teacher = rng.normal(size=12)
    tensors = {"pred": pred, "z_student": z_student}

    def fn():
        cor, _ = correlation_loss(pred, target)
        return l1_loss(pred, target) + cor + kl_loss(z_teacher, z_student)

    return fd_check(fn, tensors, seed=seed)


def negative_control(seed: int = 0) -> float:
    """A deliberately broken gradient; fd_check must report a large error."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=8), requires_grad=True)

    def fn():
        # backward drops the factor of 2 from d/dx x^2
        return Tensor.from_op(float((x.data ** 2).sum()), (x,),
                              lambda g: (g * x.data,))

    return fd_check(fn, {"x": x}, seed=seed)


CHECKS = {
    "dafm": check_dafm,
    "dsam": check_dsam,
    "s6-head": check_s6_head,
    "mos2d": check_mos2d,
    "mdsl": check_mdsl,
    "cab": check_cab,
    "ddem": check_ddem,
    "losses": check_losses,
}


def run_all(seed: int = 0) -> dict[str, float]:
    return {name: fn(seed=seed) for name, fn in CHECKS.items()}
