"""Command-line interface.

Exit codes: 0 success, 1 check/run failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import gradcheck, metrics
from .config import env_seed, load_config
from .fileio import atomic_write_text, read_ppm, write_ppm
from .model import load_checkpoint
from .scan_orders import SCAN_KINDS, build_order, locality_stats
from .tensor import Tensor, no_grad
from .train import build_model, train_stage1, train_stage2

USAGE_ERROR = 2
RUN_FAILURE = 1


def _cmd_scan_compare(args) -> int:
    import time

    kinds = args.kinds.split(",") if args.kinds else list(SCAN_KINDS)
    for kind in kinds:
        if kind not in SCAN_KINDS:
            raise ValueError(f"unknown scan kind {kind!r}")
    if args.out:
        _check_output(args.out, directory=False)
    grid = f"a {args.height}x{args.width} grid"
    rows = ["kind,height,width,build_seconds,mean,median,p95,block_depth"]
    for kind in kinds:
        times = []
        try:
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                perm = build_order(args.height, args.width, kind,
                                   window=args.window)
                times.append(time.perf_counter() - t0)
            stats = locality_stats(perm)
        except MemoryError as exc:
            raise ValueError(f"{grid} does not fit in memory") from exc
        except ValueError as exc:
            raise ValueError(f"{grid}: {exc}") from exc
        rows.append(
            f"{kind},{args.height},{args.width},{np.median(times):.6e},"
            f"{stats['mean']:.6e},{stats['median']:.6e},{stats['p95']:.6e},"
            f"{int(stats['block_depth'])}"
        )
        print(rows[-1])
    if args.out:
        atomic_write_text(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_gradcheck(args) -> int:
    seed = env_seed(args.seed)
    ok = True
    for name, fn in gradcheck.CHECKS.items():
        err = fn(seed=seed)
        passed = err < gradcheck.FD_TOLERANCE
        ok = ok and passed
        print(f"{name:12s} worst_rel_err={err:.3e} "
              f"{'PASS' if passed else 'FAIL'}")
    neg = gradcheck.negative_control(seed=seed)
    neg_ok = neg >= gradcheck.FD_TOLERANCE
    ok = ok and neg_ok
    print(f"{'neg-control':12s} worst_rel_err={neg:.3e} "
          f"{'PASS (detected)' if neg_ok else 'FAIL (missed)'}")
    return 0 if ok else RUN_FAILURE


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.stage == 1:
        result = train_stage1(cfg)
    elif not args.from_checkpoint:
        raise ValueError("--from STAGE1_CKPT is required for stage 2")
    else:
        result = train_stage2(cfg, args.from_checkpoint)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss_csv: {result.csv_path}")
    print(f"loss_first: {result.loss_first:.6f}")
    print(f"loss_final: {result.loss_final:.6f}")
    print(f"psnr_degraded: {result.psnr_degraded:.4f}")
    print(f"psnr_restored: {result.psnr_restored:.4f}")
    print(f"ssim_restored: {result.ssim_restored:.4f}")
    return 0


def _check_output(path: str, directory: bool) -> None:
    """Raise ValueError where `path` cannot take the output file (with
    `directory`, the output directory): checked before any work is done."""
    if os.path.exists(path) and os.path.isdir(path) != directory:
        raise ValueError(f"{path} is {'not ' if directory else ''}a directory")
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ValueError(f"{path}: {parent} is not a directory")


def _load_inputs(args, output: str, directory: bool = False):
    """(model, input image, reference or None, estimator input) for restore
    and decompose, once `output` is known to be writable."""
    _check_output(output, directory)
    cfg = load_config(args.config)
    tensors, stage = load_checkpoint(args.checkpoint)
    model = build_model(cfg, stage=stage, state=tensors)
    lq = read_ppm(args.input)
    ref = read_ppm(args.ref) if args.ref else None
    if ref is not None and ref.shape != lq.shape:
        raise ValueError(
            f"--ref is {ref.shape[2]}x{ref.shape[1]} but --in is "
            f"{lq.shape[2]}x{lq.shape[1]}; they must be the same size")
    if stage == 1 and ref is None:
        raise ValueError("a stage-1 checkpoint needs --ref (the estimator "
                         "reads the reference alongside the input)")
    ddem_in = np.concatenate([lq, ref], axis=0) if stage == 1 else lq
    return model, lq, ref, ddem_in


def _cmd_restore(args) -> int:
    model, lq, ref, ddem_in = _load_inputs(args, args.output)
    with no_grad():
        restored, _ = model(Tensor(lq), Tensor(ddem_in))
    out = np.clip(restored.data, 0.0, 1.0)
    write_ppm(args.output, out)
    print(f"restored: {args.output}")
    if ref is not None:
        print(f"psnr_in: {metrics.psnr(lq, ref):.4f}")
        print(f"psnr_out: {metrics.psnr(out, ref):.4f}")
        if min(out.shape[1:]) >= metrics.SSIM_WINDOW:
            print(f"ssim_out: {metrics.ssim(out, ref):.4f}")
    return 0


def _cmd_decompose(args) -> int:
    model, lq, _, ddem_in = _load_inputs(args, args.outdir, directory=True)
    with no_grad():
        priors = model.ddem(Tensor(ddem_in))
        _, feat, cond = model.backbone.front_end(Tensor(lq), priors)
        layer = model.backbone.enc_groups[0][0]
        longrange, local, y, deviation = layer.mos2d.decompose(
            feat, cond[0], layer.norm1)
    _, H, W = lq.shape

    def save_gray(name: str, m: np.ndarray) -> None:
        m = m[:H, :W]                   # drop the model's reflect padding
        lo, hi = m.min(), m.max()
        g = (m - lo) / (hi - lo) if hi > lo else np.zeros_like(m)
        write_ppm(os.path.join(args.outdir, name), np.stack([g, g, g]))

    os.makedirs(args.outdir, exist_ok=True)
    save_gray("longrange.ppm", longrange)
    save_gray("local.ppm", local)
    save_gray("output.ppm", y)
    print(f"maps: {args.outdir}/{{longrange,local,output}}.ppm")
    print(f"identity_deviation: {deviation:.3e}")
    return 0 if deviation < 1e-12 else RUN_FAILURE


def _cmd_params(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg, stage=args.stage, draw=False)
    counts = {"ddem": model.ddem.num_parameters(),
              "backbone": model.backbone.num_parameters()}
    total = sum(counts.values())
    for name, n in counts.items():
        print(f"{name}: {n}")
    print(f"total: {total}")
    reference = 19_960_000
    print(f"reference_total: {reference}")
    print(f"delta_vs_reference: {total - reference:+d}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)               # argparse reports a ValueError itself
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)               # argparse reports a ValueError itself
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="modem")
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scan-compare", help="scan-order locality and timing")
    sc.add_argument("--height", type=_positive_int, default=256)
    sc.add_argument("--width", type=_positive_int, default=256)
    sc.add_argument("--kinds", default="")
    sc.add_argument("--window", type=_positive_int, default=8)
    sc.add_argument("--repeats", type=_positive_int, default=3)
    sc.add_argument("--out", default="")
    sc.set_defaults(fn=_cmd_scan_compare)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    gc.add_argument("--seed", type=_seed, default=0)
    gc.set_defaults(fn=_cmd_gradcheck)

    tr = sub.add_parser("train", help="run a training stage")
    tr.add_argument("--stage", type=int, choices=(1, 2), required=True)
    tr.add_argument("--config", required=True)
    tr.add_argument("--from", dest="from_checkpoint", default="")
    tr.set_defaults(fn=_cmd_train)

    rs = sub.add_parser("restore", help="restore a PPM image")
    rs.add_argument("--checkpoint", required=True)
    rs.add_argument("--config", required=True)
    rs.add_argument("--in", dest="input", required=True)
    rs.add_argument("--out", dest="output", required=True)
    rs.add_argument("--ref", default="")
    rs.set_defaults(fn=_cmd_restore)

    dc = sub.add_parser("decompose", help="long-range / local scan maps")
    dc.add_argument("--checkpoint", required=True)
    dc.add_argument("--config", required=True)
    dc.add_argument("--in", dest="input", required=True)
    dc.add_argument("--outdir", required=True)
    dc.add_argument("--ref", default="")
    dc.set_defaults(fn=_cmd_decompose)

    pr = sub.add_parser("params", help="parameter counts")
    pr.add_argument("--config", required=True)
    pr.add_argument("--stage", type=int, choices=(1, 2), default=2)
    pr.set_defaults(fn=_cmd_params)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one command. Commands raise on failure, and only here does an
    exception become one `error:` line and an exit code: a run that failed
    (RuntimeError: divergence, a dead training worker, a moved teacher)
    exits 1, and a bad input (ValueError, OSError, KeyError for names a
    checkpoint lacks, MemoryError for sizes that do not fit) exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MemoryError as exc:      # sizes from the config or the input
        code = USAGE_ERROR
        message = f"out of memory: {exc}" if str(exc) else "out of memory"
    except RuntimeError as exc:
        code, message = RUN_FAILURE, str(exc)
    except KeyError as exc:         # str() would quote the message
        code, message = USAGE_ERROR, exc.args[0] if exc.args else ""
    except (OSError, ValueError) as exc:
        code, message = USAGE_ERROR, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
