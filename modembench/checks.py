"""Output checks derived from the mathematics, not from recorded outputs.

Nothing here imports `modem.ssm`: the scan reference is written out from
the zero-order-hold equations, so a fault shared by the program's scan and
its own helpers cannot hide.
"""

from __future__ import annotations

import sys

import numpy as np

# Largest accepted max|y - y_ref| / max|y_ref| for a scan call. The program
# and the reference differ only in rounding order (about 1e-15); a scan
# perturbed by 1e-6 relative exceeds this by three orders of magnitude.
SCAN_RTOL = 1e-9

# Gradient check by central differences. A coordinate passes when
#   |analytic - numeric| <= FD_RTOL * max(|analytic|, |numeric|) + FD_ROUNDOFF / eps,
# the second term bounding the rounding error of a difference quotient of a
# loss near 0.1 in float64. The step starts where it moves the loss by
# about FD_LOSS_STEP (at most FD_EPS) and is halved while the loss has a
# kink inside [x - eps, x + eps].
FD_EPS = 1e-4
FD_LOSS_STEP = 1e-7
FD_HALVINGS = 8
FD_RTOL = 1e-5
FD_ROUNDOFF = 1e-14
FD_MIN_CHECKED = 6


class CheckLog:
    """Collects named pass/fail results; the run is correct iff none failed."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, ok: bool, name: str, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return bool(self.results) and all(ok for _, ok, _ in self.results)


# -- selective scan -------------------------------------------------------------

def reference_scan(x, delta, A, B, C, D) -> np.ndarray:
    """Sequential ZOH recurrence, one token at a time.

    x, delta: (d, L); A: (d, N); B, C: (L, N); D: (d,).
    Abar = exp(delta*A), Bbar = (Abar - 1)/A * B (its Taylor series
    delta*(1 + u/2)*B where |u| = |delta*A| is tiny),
    h_k = Abar_k h_{k-1} + Bbar_k x_k,  y_k = C_k . h_k + D x_k.
    """
    d, L = x.shape
    h = np.zeros(A.shape)
    y = np.empty((d, L))
    for k in range(L):
        u = delta[:, k, None] * A
        abar = np.exp(u)
        tiny = np.abs(u) < 1e-8
        phi = np.where(tiny, delta[:, k, None] * (1.0 + 0.5 * u),
                       np.expm1(u) / np.where(tiny, 1.0, A))
        h = abar * h + phi * B[k] * x[:, k, None]
        y[:, k] = h @ C[k] + D * x[:, k]
    return y


def scan_error(call: dict) -> float:
    """Relative max-norm distance of a captured scan output from the
    reference recurrence on the same inputs."""
    ref = reference_scan(call["x"], call["delta"], call["A"], call["B"],
                         call["C"], call["D"])
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(call["y"] - ref))) / (scale if scale > 0 else 1.0)


def check_scans(log: CheckLog, scans: dict) -> None:
    log.expect(len(scans) > 0, "scan.captured", "no scan call was captured")
    for (d, L, N), call in sorted(scans.items()):
        err = scan_error(call)
        log.expect(err <= SCAN_RTOL, f"scan.reference d={d} L={L} N={N}",
                   f"relative error {err:.3e} > {SCAN_RTOL:.0e}")


# -- gradients ------------------------------------------------------------------

def central_differences(loss_fn, params: dict, names: list[str],
                        no_grad) -> list[dict]:
    """Tape gradient against central differences at the largest-|gradient|
    coordinate of each named parameter.

    `loss_fn()` returns (scalar loss Tensor, kink probe array). The probe is
    the sign pattern of the residual inside any |.| in the loss; while it
    differs at the two perturbed points the loss is not differentiable on
    the interval, and the step is halved. `no_grad` is the program's
    context manager that turns the tape off for the perturbed evaluations.
    """
    for p in params.values():
        p.grad = None
    loss, probe0 = loss_fn()
    loss.backward()
    rows = []
    for name in names:
        p = params[name]
        grad = p.grad.reshape(-1)
        idx = int(np.argmax(np.abs(grad)))
        orig = p.data.flat[idx]
        eps = min(FD_EPS, FD_LOSS_STEP / max(abs(grad[idx]), 1e-300))
        for _ in range(FD_HALVINGS + 1):
            values, kink = [], False
            for step in (eps, -eps):
                p.data.flat[idx] = orig + step
                with no_grad():
                    lv, pr = loss_fn()
                values.append(float(lv.data))
                kink = kink or not np.array_equal(pr, probe0)
            p.data.flat[idx] = orig
            if not kink:
                break
            eps /= 2
        rows.append({"name": name, "index": idx, "eps": eps,
                     "analytic": float(grad[idx]),
                     "numeric": (values[0] - values[1]) / (2.0 * eps),
                     "skipped": kink})
    return rows


def gradient_excess(row: dict) -> float:
    """|analytic - numeric| over the accepted error; > 1 fails."""
    a, n = row["analytic"], row["numeric"]
    allowed = FD_RTOL * max(abs(a), abs(n)) + FD_ROUNDOFF / row["eps"]
    return abs(a - n) / allowed


def check_gradients(log: CheckLog, rows: list[dict]) -> None:
    checked = [r for r in rows if not r["skipped"]]
    log.expect(len(checked) >= FD_MIN_CHECKED, "grad.coordinates",
               f"only {len(checked)} differentiable coordinates checked")
    for r in checked:
        log.expect(gradient_excess(r) <= 1.0, f"grad.fd {r['name']}[{r['index']}]",
                   f"analytic {r['analytic']:.9e} numeric {r['numeric']:.9e} "
                   f"(eps {r['eps']:.1e}) outside the accepted error")


# -- images ---------------------------------------------------------------------

def psnr(pred: np.ndarray, target: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(pred, float) - target) ** 2))
    return float("inf") if mse == 0.0 else 10.0 * np.log10(1.0 / mse)


def check_restored(log: CheckLog, name: str, lq: np.ndarray,
                   out: np.ndarray) -> None:
    """A restored image keeps the input's dimensions and stays in range."""
    log.expect(out.shape == lq.shape, f"{name}.shape",
               f"output {out.shape} vs input {lq.shape}")
    log.expect(bool(np.all(np.isfinite(out))) and out.min() >= 0.0
               and out.max() <= 1.0, f"{name}.range", "non-finite or out of [0, 1]")


def check_nonidentity(log: CheckLog, out_conv_weight: np.ndarray) -> None:
    """A zero output convolution makes the network the identity map, whose
    restores prove nothing."""
    log.expect(bool(np.any(out_conv_weight != 0.0)), "checkpoint.out_conv_nonzero",
               "zero out_conv: the restore is the identity map")


def check_gain(log: CheckLog, name: str, degraded_psnr: float,
               restored_psnr: float) -> None:
    log.expect(restored_psnr > degraded_psnr, f"{name}.psnr_gain",
               f"restored {restored_psnr:.3f} dB <= degraded {degraded_psnr:.3f} dB")
