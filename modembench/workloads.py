"""The workloads: what each runs, in whole rounds, and what it checks.

Every workload trains a checkpoint in two stages and restores images with
it through `modem restore`, so every end-to-end metric is measured on
every workload. Where the training happens sets what the workload stresses:

* train-toy trains in each timed round (stage 1, then stage 2 from its
  checkpoint) and then restores a mix of image sizes with the result;
* restore-paper trains once, in set-up, and its timed rounds are restore
  calls only: nothing runs backward there.

Each restore call runs in-process through `modem.cli.main` with an empty
scan-order cache, so it reads the config, builds the model, loads the
checkpoint, reads the PPM, restores and writes the PPM as a fresh process
would.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks

# The toy widths of the test suite (tests/conftest.py).
TOY_WIDTHS = {
    "ddem": {"channels": 8, "num_groups": 1, "mdsl_per_group": 1,
             "d_state": 4, "dt_rank": 2},
    "backbone": {"base_channels": 8, "group_depths": [1, 1, 1],
                 "refinement_depth": 1, "c_d": 16, "c_d1": 8, "c_d2": 8,
                 "d_state": 4, "dt_rank": 2},
}


@dataclass(frozen=True)
class Spec:
    widths: dict              # config sections; {} keeps the paper defaults
    patch: int                # training patch side
    kinds: tuple              # degradation kinds, training and restore inputs
    severity: tuple
    n_train: int
    n_heldout: int
    batch: int
    steps1: int
    steps2: int
    lr1: float
    lr2: float
    images: tuple             # (H, W) of each restore input
    calls: tuple              # image index of each restore call, in order; an
                              # image restored twice must give the same bytes
    train_in_setup: bool      # train once in set-up, not in every round


# Restore inputs of train-toy: a fixed mix of sizes up to 256x256, square
# and not, sides powers of two and not. Small and large calls alternate, so
# the median call is not taken from one stretch of the round, and the mix
# is restored twice: the second pass must give the same bytes, and the
# throughput is taken over twice the time.
SIZE_MIX = ((256, 256), (190, 250), (128, 96), (100, 37), (64, 64),
            (45, 45), (23, 61), (7, 5))

SPECS = {
    "train-toy": Spec(
        widths=TOY_WIDTHS, patch=64, kinds=("mixed",),
        severity=(0.4, 0.7), n_train=8, n_heldout=2, batch=2,
        steps1=10, steps2=6, lr1=2e-3, lr2=2e-3,
        images=SIZE_MIX, calls=(4, 0, 5, 1, 3, 2, 6, 7) * 2,
        train_in_setup=False),
    "restore-paper": Spec(
        widths={}, patch=16, kinds=("haze", "streaks"),
        severity=(0.4, 0.7), n_train=2, n_heldout=1, batch=1,
        steps1=6, steps2=4, lr1=1e-3, lr2=1e-3,
        images=((64, 64), (64, 64)), calls=(0, 1), train_in_setup=True),
}


# -- PPM IO of the benchmark's own (inputs and checks never use modem.fileio) --

def write_ppm(path: str, image: np.ndarray) -> None:
    _, H, W = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{W} {H}\n255\n".encode("ascii"))
        f.write(pixels.transpose(1, 2, 0).tobytes())


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    fields = blob.split(maxsplit=4)
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 file")
    W, H = int(fields[1]), int(fields[2])
    body = fields[4]
    if len(body) != 3 * H * W:
        raise ValueError(f"{path}: {len(body)} pixel bytes for {H}x{W}")
    return np.frombuffer(body, np.uint8).reshape(H, W, 3).transpose(2, 0, 1) / 255.0


def clear_scan_order_cache() -> None:
    """Empty the program's scan-order cache, as a fresh process has it."""
    from modem import blocks
    blocks._PERM_CACHE.clear()


class Workload:
    """One workload bound to a seed and a work directory."""

    def __init__(self, spec: Spec, seed: int, workdir: str, tracer, probes):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.probes = probes
        self.cfg_path = os.path.join(workdir, "config.json")
        self.train_s: list[float] = []
        self.distill_s: list[float] = []
        self.restore_s: list[float] = []
        self.restore_px = 0
        self.attempted = 0
        self.failed = 0
        self.timed_ops = 0        # operations of the timed rounds
        self.rounds: list[dict] = []
        self.trained: tuple | None = None   # (stage-1, stage-2) TrainResult
        self.ckpt_result = None             # set-up training's stage-2 result

    # -- inputs -----------------------------------------------------------------

    def payload(self, stage: int, out: str) -> dict:
        s = self.spec
        steps, lr = (s.steps1, s.lr1) if stage == 1 else (s.steps2, s.lr2)
        return {
            "seed": self.seed, "output_dir": out,
            "data": {"n_train": s.n_train, "n_heldout": s.n_heldout,
                     "patch": s.patch, "kinds": list(s.kinds),
                     "severity": list(s.severity)},
            "train": {"stage": stage, "iterations": steps,
                      "batch_size": s.batch, "base_lr": lr,
                      "periods": [steps], "restart_weights": [1.0],
                      "eta_mins": [lr / 10]},
            **copy.deepcopy(s.widths),
        }

    def setup(self) -> None:
        """Make the restore inputs from the seed and write the config."""
        from modem.data import make_clean_image, synth_degrade
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for i, (H, W) in enumerate(self.spec.images):
            kind = self.spec.kinds[i % len(self.spec.kinds)]
            sev = float(rng.uniform(*self.spec.severity))
            img_seed = 1_000 * self.seed + 2 * i
            clean = make_clean_image(img_seed, H, W)
            sample = synth_degrade(clean, kind, sev, img_seed + 1)
            path = os.path.join(self.workdir, f"in_{i}.ppm")
            write_ppm(path, sample.degraded)
            self.inputs.append({"path": path, "clean": clean, "size": (H, W)})
        with open(self.cfg_path, "w") as f:
            json.dump(self.payload(2, os.path.join(self.workdir, "cfg-out")), f)

    # -- training -------------------------------------------------------------

    def _stage(self, tag: str, fn, *args):
        """Run one training stage; returns (result, per-step seconds)."""
        p = self.probes
        n0, m0 = len(p.step_starts), len(p.step_ends)
        self.tracer.op = f"{tag}.0"
        result = fn(*args)
        starts, ends = p.step_starts[n0:], p.step_ends[m0:]
        if len(starts) != len(ends):
            raise RuntimeError(f"{len(starts)} step starts, {len(ends)} ends")
        return result, [e - s for s, e in zip(starts, ends)]

    def train(self, tag: str, outdir: str):
        """Stage 1, then stage 2 from its checkpoint. Returns the stage-2
        result, or None when training raised (every step counts failed)."""
        from modem import train
        from modem.config import config_from_dict
        s = self.spec
        steps = s.steps1 + s.steps2
        self.attempted += steps
        try:
            cfg1 = config_from_dict(self.payload(1, os.path.join(outdir, "s1")))
            r1, t1 = self._stage(f"{tag}:s1", train.train_stage1, cfg1)
            cfg2 = config_from_dict(self.payload(2, os.path.join(outdir, "s2")))
            r2, t2 = self._stage(f"{tag}:s2", train.train_stage2, cfg2,
                                 r1.checkpoint_path)
        except Exception as exc:
            print(f"{tag}: training failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self.failed += steps
            return None
        if len(t1) != s.steps1 or len(t2) != s.steps2:
            raise RuntimeError(f"timed {len(t1)}+{len(t2)} steps, expected "
                               f"{s.steps1}+{s.steps2}")
        self.train_s += t1
        self.distill_s += t2
        if self.trained is None:
            self.trained = (r1, r2)
        return r2

    def prepare(self) -> None:
        """Set-up training of restore-paper (once per run)."""
        if self.spec.train_in_setup:
            self.ckpt_result = self.train("setup:train",
                                          os.path.join(self.workdir, "train"))

    # -- one round --------------------------------------------------------------

    def round(self, r: int) -> None:
        s = self.spec
        rdir = os.path.join(self.workdir, f"round{r}")
        rec = {"outputs": []}
        self.rounds.append(rec)
        if s.train_in_setup:
            r2 = self.ckpt_result
        else:
            r2 = self.train(f"measure:r{r}", rdir)
            self.timed_ops += s.steps1 + s.steps2
        self.attempted += len(s.calls)
        self.timed_ops += len(s.calls)
        if r2 is None:
            self.failed += len(s.calls)
            return
        for c, i in enumerate(s.calls):
            self.tracer.op = f"measure:r{r}:restore.{c}"
            out = os.path.join(rdir, f"out_{c}.ppm")
            rc, dt, msg = self.restore(r2.checkpoint_path, i, out)
            if rc != 0:
                print(f"round {r}: restore {i} exit {rc}: {msg.strip()}",
                      file=sys.stderr)
                self.failed += 1
                continue
            self.restore_s.append(dt)
            H, W = s.images[i]
            self.restore_px += H * W
            rec["outputs"].append((i, out))

    def restore(self, ckpt: str, i: int, out: str) -> tuple[int, float, str]:
        from modem import cli
        clear_scan_order_cache()
        args = ["restore", "--checkpoint", ckpt, "--config", self.cfg_path,
                "--in", self.inputs[i]["path"], "--out", out]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(args)
        except Exception as exc:  # a traceback is a failed operation
            rc = -1
            sink.write(f"{type(exc).__name__}: {exc}")
        return rc, time.perf_counter() - t0, sink.getvalue()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        return {
            "train_step_s": float(np.median(self.train_s)),
            "distill_step_s": float(np.median(self.distill_s)),
            "restore_s": float(np.median(self.restore_s)),
            "restore_mpix_per_s": self.restore_px / 1e6 / float(np.sum(self.restore_s)),
        }

    def check(self, log: checks.CheckLog) -> None:
        from modem import losses, train
        from modem.config import config_from_dict
        from modem.data import make_dataset
        from modem.model import load_checkpoint
        from modem.tensor import Tensor, no_grad
        s = self.spec
        if not log.expect(self.trained is not None, "training.completed",
                          "the first training failed"):
            return
        r1, r2 = self.trained
        rec = self.rounds[0]
        log.expect(self.probes.nonfinite_outputs == 0, "backbone.finite",
                   f"{self.probes.nonfinite_outputs} of "
                   f"{self.probes.backbone_outputs} outputs non-finite")
        # PSNR gains (held-out after both stages, every restored image) and
        # central differences on the stage-1 loss need a workload that trains
        # in its rounds: restore-paper's brief 16x16 set-up training is too
        # short to make either meaningful
        quality_checks = not s.train_in_setup
        if quality_checks:
            checks.check_gain(log, "heldout.stage1", r1.psnr_degraded, r1.psnr_restored)
            checks.check_gain(log, "heldout.stage2", r2.psnr_degraded, r2.psnr_restored)

        # restored images: shape, range, PSNR gain, and byte identity of
        # every repeated restore (within the round and across rounds)
        log.expect(len(rec["outputs"]) == len(s.calls), "restore.completed",
                   f"{len(rec['outputs'])} of {len(s.calls)} restores succeeded")
        first: dict[int, bytes] = {}
        for i, out in rec["outputs"]:
            with open(out, "rb") as f:
                blob = f.read()
            if i in first:
                log.expect(blob == first[i], f"restore.{i}.byte_identical",
                           "a second restore of the same input differs")
                continue
            first[i] = blob
            inp = self.inputs[i]
            lq, restored = read_ppm(inp["path"]), read_ppm(out)
            H, W = inp["size"]
            checks.check_restored(log, f"restore.{i}.{H}x{W}", lq, restored)
            if quality_checks and restored.shape == lq.shape:
                checks.check_gain(log, f"restore.{i}.{H}x{W}",
                                  checks.psnr(lq, inp["clean"]),
                                  checks.psnr(restored, inp["clean"]))
            log.expect(not np.array_equal(restored, lq),
                       f"restore.{i}.not_identity",
                       "output equals input: the model is the identity map")
        for later in self.rounds[1:]:
            for i, out in later["outputs"]:
                with open(out, "rb") as f:
                    log.expect(f.read() == first.get(i), f"restore.{i}.rounds_identical",
                               "rounds disagree")

        tensors, _ = load_checkpoint(r2.checkpoint_path)
        checks.check_nonidentity(log, tensors["backbone.out_conv.weight"])

        checks.check_scans(log, self.probes.scans)

        if quality_checks:
            cfg1 = config_from_dict(self.payload(1, os.path.join(self.workdir, "fd")))
            model = train.build_model(cfg1, stage=1)
            state, _ = load_checkpoint(r1.checkpoint_path)
            model.load_state(state)
            sample = make_dataset(1, s.patch, s.patch, s.kinds, s.severity,
                                  self.seed)[0]
            ddem_in = Tensor(np.concatenate([sample.degraded, sample.clean]))

            def loss_fn():
                restored, _ = model(Tensor(sample.degraded), ddem_in)
                target = Tensor(sample.clean)
                loss = (losses.l1_loss(restored, target)
                        + losses.correlation_loss(restored, target)[0])
                return loss, np.sign(restored.data - sample.clean)

            rows = checks.central_differences(loss_fn, model.parameters(),
                                              FD_PARAMS, no_grad)
            checks.check_gradients(log, rows)


# Parameters probed by central differences: the estimator's prior head,
# the image embedding, each input of one scan (x through in_proj, delta
# through dt_bias, B through b_proj, C through c_proj, A through a_log, D as
# skip_gain) and the output convolution.
FD_PARAMS = [
    "ddem.z0_proj.bias",
    "backbone.embed.weight",
    "backbone.dec_groups.0.0.mos2d.in_proj.weight",
    "backbone.dec_groups.0.0.mos2d.head.dt_bias",
    "backbone.dec_groups.0.0.mos2d.head.b_proj.weight",
    "backbone.dec_groups.0.0.mos2d.head.c_proj.weight",
    "backbone.dec_groups.0.0.mos2d.a_log",
    "backbone.dec_groups.0.0.mos2d.skip_gain",
    "backbone.out_conv.weight",
]
