"""Two-stage training: prior estimation with the ground truth attached,
then distillation into a student that sees only the degraded image."""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import metrics
from .config import RunConfig
from .data import SynthSample, make_dataset
from .fileio import atomic_write_text
from .losses import correlation_loss, kl_loss, l1_loss
from .model import (DDEM, DDEMConfig, RestorationModel, load_checkpoint,
                    save_checkpoint)
from .optim import AdamW, CosineRestartSchedule
from .tensor import Tensor, no_grad


class TrainingDivergedError(RuntimeError):
    pass


CSV_HEADER = "step,l1,l_cor,l_kl,total,lr"


@dataclass
class TrainResult:
    checkpoint_path: str
    csv_path: str
    steps: int
    loss_first: float
    loss_final: float
    psnr_degraded: float
    psnr_restored: float
    ssim_restored: float


def _ddem_config(cfg: RunConfig, in_channels: int) -> DDEMConfig:
    # prior widths come from the backbone so the two halves agree
    bb = cfg.backbone
    return DDEMConfig(
        in_channels=in_channels, channels=cfg.ddem.channels,
        num_groups=cfg.ddem.num_groups, mdsl_per_group=cfg.ddem.mdsl_per_group,
        c_d=bb.c_d, c_d1=bb.c_d1, c_d2=bb.c_d2,
        d_state=cfg.ddem.d_state, dt_rank=cfg.ddem.dt_rank,
        scan_kind=cfg.ddem.scan_kind,
    )


def build_model(cfg: RunConfig, stage: int,
                state: dict[str, np.ndarray] | None = None,
                draw: bool = True) -> RestorationModel:
    """The stage's model. With `state`, its weights are those arrays, which
    `load_state` adopts after checking every name and shape, and no random
    number is drawn. Otherwise they are drawn from default_rng(cfg.seed),
    or, with draw=False, left at zero for a model that is only counted or
    filled by the caller."""
    in_ch = 6 if stage == 1 else 3
    seed = cfg.seed if draw and state is None else None
    model = RestorationModel(_ddem_config(cfg, in_ch), cfg.backbone, seed=seed)
    if state is not None:
        model.load_state(state)
    return model


def _fmt(v: float) -> str:
    return f"{v:.10e}"


def _ddem_input(sample: SynthSample, stage: int) -> Tensor:
    if stage == 1:
        return Tensor(np.concatenate([sample.degraded, sample.clean], axis=0))
    return Tensor(sample.degraded)


def evaluate(model: RestorationModel, samples: list[SynthSample],
             stage: int) -> tuple[float, float, float]:
    """Held-out (psnr_degraded, psnr_restored, ssim_restored) means."""
    p_deg, p_res, s_res = [], [], []
    with no_grad():
        for s in samples:
            restored, _ = model(Tensor(s.degraded), _ddem_input(s, stage))
            out = np.clip(restored.data, 0.0, 1.0)
            p_deg.append(metrics.psnr(s.degraded, s.clean))
            p_res.append(metrics.psnr(out, s.clean))
            s_res.append(metrics.ssim(out, s.clean))
    return float(np.mean(p_deg)), float(np.mean(p_res)), float(np.mean(s_res))


def _inherit_stage1(student: RestorationModel,
                    stage1_state: dict[str, np.ndarray]) -> None:
    """Copy every stage-1 parameter into the 3-channel student; the stem
    weight keeps only the slices that read the degraded image."""
    params = student.parameters()
    for name, p in params.items():
        src = stage1_state[name]
        if name == "ddem.stem.weight":
            src = src[:, : p.data.shape[1]]
        if src.shape != p.data.shape:
            raise ValueError(f"stage-1 shape mismatch for {name}: "
                             f"{src.shape} vs {p.data.shape}")
        p.data = src.copy()


def _check_gradients(params: dict[str, Tensor], step: int) -> None:
    """Raise TrainingDivergedError before a non-finite gradient reaches the
    optimizer, whose in-place moments would keep it for good. A finite sum
    of squares proves every value finite; only a non-finite one (or an
    overflow) is checked value by value."""
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            if p.grad is None:
                continue
            g = p.grad.reshape(-1)
            if not np.isfinite(g @ g) and not np.isfinite(g).all():
                raise TrainingDivergedError(
                    f"non-finite gradient of {name} at step {step}")


def _sample_backward(model: RestorationModel, s: SynthSample, stage: int,
                     scale: float,
                     t_z: np.ndarray | None) -> tuple[float, float, float]:
    """Forward one sample and backpropagate its loss times `scale` into the
    gradients; returns its (l1, cor, kl) losses. In stage 2 `t_z` is the
    teacher's z_tilde for this sample, which the KL term distills; in stage
    1 it is None and kl is 0.0. The sample's graph dies with this call,
    before the next sample's forward or the optimizer step."""
    restored, priors = model(Tensor(s.degraded), _ddem_input(s, stage))
    target = Tensor(s.clean)
    l1 = l1_loss(restored, target)
    cor, _ = correlation_loss(restored, target)
    loss = l1 + cor
    kl = 0.0
    if t_z is not None:
        kl_t = kl_loss(t_z, priors.z_tilde)
        loss = loss + kl_t
        kl = float(kl_t.data)
    (loss * scale).backward()
    return float(l1.data), float(cor.data), kl


# glibc's mallopt parameters (malloc.h) and the values training pins them
# to: the largest mmap threshold glibc accepts on 64-bit hosts, so arrays up
# to 32 MiB come from the heap, and a trim threshold of 1 GiB, so the heap
# keeps its freed top between samples
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD, MMAP_THRESHOLD = 1 << 30, 32 << 20


@functools.cache
def _keep_heap() -> None:
    """Pin glibc's trim and mmap thresholds, once per process, so that a
    training step reuses the heap pages the last sample freed instead of
    handing them back to the kernel and faulting them in again. Setting
    either one also stops glibc from raising its mmap threshold on its own,
    so both are set. The setting holds for the whole interpreter; where
    glibc's mallopt is missing, nothing is done."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _run_loop(cfg: RunConfig, model: RestorationModel, stage: int,
              teacher: DDEM | None, train_set: list[SynthSample],
              heldout: list[SynthSample], tag: str) -> TrainResult:
    tc = cfg.train
    params = model.parameters()
    if stage == 2 and tc.freeze_backbone:
        params = {k: v for k, v in params.items() if not k.startswith("backbone.")}
    opt = AdamW(params, lr=tc.base_lr, betas=tc.betas,
                weight_decay=tc.weight_decay)
    sched = CosineRestartSchedule(tc.base_lr, list(tc.periods),
                                  list(tc.restart_weights), list(tc.eta_mins))
    batch_rng = np.random.default_rng(cfg.seed + 777)
    _keep_heap()
    # the frozen teacher's z_tilde per sample index: the same no-grad
    # forward of the same input gives the same bytes, so it runs once
    teacher_z: dict[int, np.ndarray] = {}

    rows = [CSV_HEADER]
    totals: list[float] = []
    for step in range(tc.iterations):
        lr = sched.lr(step)
        opt.zero_grad()
        idx = batch_rng.integers(0, len(train_set), size=tc.batch_size)
        l1_acc = cor_acc = kl_acc = 0.0
        for i in map(int, idx):
            sample = train_set[i]
            if teacher is not None and i not in teacher_z:
                with no_grad():
                    teacher_z[i] = teacher(_ddem_input(sample, 1)).z_tilde.data
            l1, cor, kl = _sample_backward(
                model, sample, stage, 1.0 / tc.batch_size, teacher_z.get(i))
            l1_acc += l1
            cor_acc += cor
            kl_acc += kl
        l1_m = l1_acc / tc.batch_size
        cor_m = cor_acc / tc.batch_size
        kl_m = kl_acc / tc.batch_size
        total = l1_m + cor_m + (kl_m if stage == 2 else 0.0)
        if not np.isfinite(total):
            raise TrainingDivergedError(
                f"non-finite loss at step {step}: l1={l1_m} cor={cor_m} kl={kl_m}"
            )
        totals.append(total)
        if step % tc.log_every == 0 or step == tc.iterations - 1:
            kl_field = _fmt(kl_m) if stage == 2 else ""
            rows.append(f"{step},{_fmt(l1_m)},{_fmt(cor_m)},{kl_field},"
                        f"{_fmt(total)},{_fmt(lr)}")
        _check_gradients(params, step)
        opt.step(lr=lr)

    # the gradients and moments are dead weight from here on; the
    # checkpoint is written from the live weights, not from copies
    model.zero_grad()
    del opt
    csv_path = os.path.join(cfg.output_dir, f"loss_{tag}.csv")
    atomic_write_text(csv_path, "\n".join(rows) + "\n")
    ckpt_path = os.path.join(cfg.output_dir, f"{tag}.ckpt")
    save_checkpoint(ckpt_path, {k: p.data for k, p in model.parameters().items()},
                    stage=stage)

    p_deg, p_res, s_res = evaluate(model, heldout, stage)
    k = min(10, len(totals))
    return TrainResult(
        checkpoint_path=ckpt_path, csv_path=csv_path, steps=tc.iterations,
        loss_first=totals[0], loss_final=float(np.mean(totals[-k:])),
        psnr_degraded=p_deg, psnr_restored=p_res, ssim_restored=s_res,
    )


def _datasets(cfg: RunConfig) -> tuple[list[SynthSample], list[SynthSample]]:
    dc = cfg.data
    train_set = make_dataset(dc.n_train, dc.patch, dc.patch, dc.kinds,
                             dc.severity, cfg.seed)
    heldout = make_dataset(dc.n_heldout, dc.patch, dc.patch, dc.kinds,
                           dc.severity, cfg.seed + 10_000)
    return train_set, heldout


def train_stage1(cfg: RunConfig) -> TrainResult:
    """Stage 1: the estimation network reads the degraded image with its
    ground truth attached along the channel axis."""
    train_set, heldout = _datasets(cfg)
    model = build_model(cfg, stage=1)
    return _run_loop(cfg, model, 1, None, train_set, heldout, "stage1")


def train_stage2(cfg: RunConfig, stage1_ckpt: str) -> TrainResult:
    """Stage 2: a frozen copy of the stage-1 estimator teaches a student
    that sees only the degraded image; the student inherits the stage-1
    weights (stem input slices included) before fine-tuning."""
    tensors, stage = load_checkpoint(stage1_ckpt)
    if stage != 1:
        raise ValueError(f"expected a stage-1 checkpoint, got stage tag {stage}")

    # neither model draws an initialisation: both are filled from the
    # checkpoint, the teacher adopting its arrays, the student copying them
    teacher = DDEM(_ddem_config(cfg, 6), None)
    teacher.load_state({k[len("ddem."):]: v for k, v in tensors.items()
                        if k.startswith("ddem.")})
    teacher_digest = _digests(teacher)

    student = build_model(cfg, stage=2, draw=False)
    _inherit_stage1(student, tensors)
    del tensors  # the teacher holds its arrays, the student its copies

    train_set, heldout = _datasets(cfg)
    result = _run_loop(cfg, student, 2, teacher, train_set, heldout, "stage2")

    # the teacher must come out of training bit-identical
    for k, digest in _digests(teacher).items():
        if digest != teacher_digest[k]:
            raise RuntimeError(f"teacher parameter {k} changed during stage 2")
    return result


def _digests(module: DDEM) -> dict[str, bytes]:
    """SHA-256 of each parameter's C-ordered bytes: equal digests mean
    bit-identical weights, without keeping a copy of them."""
    import hashlib  # here: loading OpenSSL would slow every `modem` import
    return {k: hashlib.sha256(np.ascontiguousarray(v.data)).digest()
            for k, v in module.parameters().items()}
