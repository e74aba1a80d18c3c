"""Training losses: L1, Pearson-correlation, and softmax-KL distillation."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss shape mismatch: {pred.shape} vs {target.shape}")
    return (pred - target).abs().mean()


def correlation_loss(pred: Tensor, target: Tensor) -> tuple[Tensor, bool]:
    """(1 - rho)/2 over all elements jointly; returns (loss, fallback_flag).

    Zero-variance inputs fall back to rho = 0 (loss 0.5) instead of raising,
    since constant patches occur in synthetic data.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"correlation_loss shape mismatch: {pred.shape} vs {target.shape}")
    n = pred.size
    p = pred.reshape(n)
    t = target.reshape(n)
    pc = p - p.mean()
    tc = t - t.mean()
    var_p = (pc * pc).mean()
    var_t = (tc * tc).mean()
    if float(var_p.data) == 0.0 or float(var_t.data) == 0.0:
        return Tensor(0.5), True
    rho = (pc * tc).mean() / (var_p.sqrt() * var_t.sqrt())
    return (1.0 - rho) * 0.5, False


def kl_loss(z_teacher: np.ndarray | Tensor, z_student: Tensor) -> Tensor:
    """KL(softmax(teacher) || softmax(student)); gradient reaches only the
    student vector (the teacher side is constant)."""
    teacher = z_teacher.data if isinstance(z_teacher, Tensor) else np.asarray(z_teacher, float)
    if teacher.shape != z_student.shape:
        raise ShapeError(
            f"kl_loss length mismatch: {teacher.shape} vs {z_student.shape}"
        )
    zt = teacher - teacher.max()
    log_p = zt - np.log(np.exp(zt).sum())
    p = np.exp(log_p)
    log_q = z_student.log_softmax(axis=-1)
    return (Tensor(p) * (Tensor(log_p) - log_q)).sum()
