"""Command-line interface.

Exit codes: 0 success, 1 check/run failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import gradcheck, metrics
from .blocks import LevelConditioning
from .config import ConfigError, env_seed, load_config
from .fileio import PPMFormatError, atomic_write_text, read_ppm, write_ppm
from .model import CheckpointFormatError, load_checkpoint
from .scan_orders import SCAN_KINDS, build_order, locality_stats
from .tensor import Tensor, no_grad
from .train import (TrainingDivergedError, build_model, train_stage1,
                    train_stage2)

USAGE_ERROR = 2
RUN_FAILURE = 1


def _cmd_scan_compare(args) -> int:
    import time

    kinds = args.kinds.split(",") if args.kinds else list(SCAN_KINDS)
    for kind in kinds:
        if kind not in SCAN_KINDS:
            print(f"error: unknown scan kind {kind!r}", file=sys.stderr)
            return USAGE_ERROR
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
        except MemoryError:
            print(f"error: a {args.height}x{args.width} grid does not fit "
                  "in memory", file=sys.stderr)
            return USAGE_ERROR
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
    try:
        seed = env_seed(args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
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
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.stage == 1:
            result = train_stage1(cfg)
        else:
            if not args.from_checkpoint:
                print("error: --from STAGE1_CKPT is required for stage 2",
                      file=sys.stderr)
                return USAGE_ERROR
            result = train_stage2(cfg, args.from_checkpoint)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_FAILURE
    except (CheckpointFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss_csv: {result.csv_path}")
    print(f"loss_first: {result.loss_first:.6f}")
    print(f"loss_final: {result.loss_final:.6f}")
    print(f"psnr_degraded: {result.psnr_degraded:.4f}")
    print(f"psnr_restored: {result.psnr_restored:.4f}")
    print(f"ssim_restored: {result.ssim_restored:.4f}")
    return 0


def _load_inputs(args):
    """(model, input image, reference or None, estimator input) for restore
    and decompose; prints the error and returns None on bad input."""
    try:
        cfg = load_config(args.config)
        tensors, stage = load_checkpoint(args.checkpoint)
        model = build_model(cfg, stage=stage, state=tensors)
        lq = read_ppm(args.input)
        ref = read_ppm(args.ref) if args.ref else None
    except (OSError, ConfigError, CheckpointFormatError, PPMFormatError,
            KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if ref is not None and ref.shape != lq.shape:
        print(f"error: --ref is {ref.shape[2]}x{ref.shape[1]} but --in is "
              f"{lq.shape[2]}x{lq.shape[1]}; they must be the same size",
              file=sys.stderr)
        return None
    if stage == 1 and ref is None:
        print("error: a stage-1 checkpoint needs --ref (the estimator reads "
              "the reference alongside the input)", file=sys.stderr)
        return None
    ddem_in = np.concatenate([lq, ref], axis=0) if stage == 1 else lq
    return model, lq, ref, ddem_in


def _cmd_restore(args) -> int:
    inputs = _load_inputs(args)
    if inputs is None:
        return USAGE_ERROR
    model, lq, ref, ddem_in = inputs
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
    inputs = _load_inputs(args)
    if inputs is None:
        return USAGE_ERROR
    model, lq, _, ddem_in = inputs
    with no_grad():
        priors = model.ddem(Tensor(ddem_in))
        mult = 1 << (model.backbone_cfg.levels - 1)
        _, H, W = lq.shape
        x = Tensor(lq).reflect_pad2d((-H) % mult, (-W) % mult)
        feat = model.backbone.embed(x)
        bb = model.backbone
        cond = LevelConditioning.from_priors(bb.dafm_adapters[0],
                                             bb.dsam_mods[0], priors)
        layer = bb.enc_groups[0][0]
        longrange, local, y, deviation = layer.mos2d.decompose(
            layer.norm1(feat), cond)
    os.makedirs(args.outdir, exist_ok=True)

    def save_gray(name: str, m: np.ndarray) -> None:
        lo, hi = m.min(), m.max()
        g = (m - lo) / (hi - lo) if hi > lo else np.zeros_like(m)
        write_ppm(os.path.join(args.outdir, name), np.stack([g, g, g]))

    save_gray("longrange.ppm", longrange)
    save_gray("local.ppm", local)
    save_gray("output.ppm", y)
    print(f"maps: {args.outdir}/{{longrange,local,output}}.ppm")
    print(f"identity_deviation: {deviation:.3e}")
    return 0 if deviation < 1e-12 else RUN_FAILURE


def _cmd_params(args) -> int:
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
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
    gc.add_argument("--seed", type=int, default=0)
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
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
