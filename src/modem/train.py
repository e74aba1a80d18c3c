"""Two-stage training: prior estimation with the ground truth attached,
then distillation into a student that sees only the degraded image."""

from __future__ import annotations

import contextlib
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
from .model import DDEM, RestorationModel, load_checkpoint, save_checkpoint
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


def build_model(cfg: RunConfig, stage: int,
                state: dict[str, np.ndarray] | None = None,
                draw: bool = True) -> RestorationModel:
    """The stage's model. With `state`, its weights are those arrays, which
    `load_state` adopts after checking every name and shape, and no random
    number is drawn. Otherwise they are drawn from default_rng(cfg.seed),
    or, with draw=False, left at zero for a model that is only counted or
    filled by the caller."""
    seed = cfg.seed if draw and state is None else None
    model = RestorationModel(cfg.ddem, cfg.backbone, stage, seed=seed)
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


def _lanes(batch_size: int) -> int:
    """How many samples of a batch run at once: one per CPU this process
    may run on, up to the batch size, where the process can fork; else 1."""
    if batch_size < 2 or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:           # no affinity call on this platform
        return 1
    return min(batch_size, cpus)


def _memory_available() -> int | None:
    """Bytes this process may still take: /proc/meminfo's MemAvailable,
    less where its cgroup's memory.max leaves less; None where the host's
    figure cannot be read."""
    try:
        with open("/proc/meminfo") as f:
            free = next(int(line.split()[1]) * 1024 for line in f
                        if line.startswith("MemAvailable:"))
    except (OSError, StopIteration, ValueError):
        return None
    try:
        with open("/sys/fs/cgroup/memory.max") as f, \
                open("/sys/fs/cgroup/memory.current") as g:
            limit, used = f.read().strip(), int(g.read())
        if limit != "max":
            free = min(free, int(limit) - used)
    except (OSError, ValueError):
        pass                         # no cgroup v2 limit to read
    return max(0, free)


def _lanes_in_memory(lanes: int, trained: list[Tensor]) -> int:
    """`lanes`, or fewer where the memory available holds fewer workers.
    Called after a step: a worker forked then grows by at most what this
    process grew to (its peak RSS, which holds one sample's tape and a
    full set of gradients), plus its shared gradient slot."""
    import resource
    free = _memory_available()
    if free is None:
        return 1
    need = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            + sum(p.data.nbytes for p in trained))
    return 1 + min(lanes - 1, free // need)


def _arena(shapes: list[tuple]) -> list[np.ndarray]:
    """Zeroed C-contiguous float64 arrays of `shapes`, each 64-byte aligned,
    in one anonymous shared mapping: a forked child and its parent see each
    other's writes to them instead of copies."""
    import mmap  # here and below: only a batch run in lanes needs them
    sizes = [int(np.prod(s)) for s in shapes]
    offsets = np.cumsum([0] + [-(-8 * n // 64) * 64 for n in sizes])
    buf = mmap.mmap(-1, max(1, int(offsets[-1])))
    return [np.frombuffer(buf, np.float64, n, int(o)).reshape(s)
            for s, n, o in zip(shapes, sizes, offsets)]


class _Worker:
    """The parent's handle on one forked training worker: it sends the
    worker a sample index and folds the worker's gradients, which arrive in
    `slot` (one array per trained parameter), into the parameters'."""

    def __init__(self, conn, pid: int, lane: int, slot: list[np.ndarray]):
        self.conn, self.pid, self.lane, self.slot = conn, pid, lane, slot

    def _died(self) -> RuntimeError:
        return RuntimeError(f"training worker {self.pid} (lane {self.lane}) "
                            "ended before returning its sample")

    def send(self, i: int, t_z: np.ndarray | None) -> None:
        try:
            self.conn.send((i, t_z))
        except OSError as exc:
            raise self._died() from exc

    def add_gradients(self, trained: list[Tensor]) -> tuple[float, float, float]:
        """Wait for the sample sent last, add its gradients to `trained`'s
        as Tensor.backward would have, and return its (l1, cor, kl)."""
        try:
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died() from exc
        if isinstance(reply, Exception):
            raise reply from RuntimeError(
                f"raised in training worker {self.pid} (lane {self.lane})")
        for p, g in zip(trained, self.slot):
            if p.grad is None:       # g is the worker's first write, 0.0 + g
                p.grad = g.copy()
            else:
                p.grad += g
        return reply

    def stop(self) -> None:
        import signal
        self.conn.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _serve(conn, model: RestorationModel, trained: list[Tensor],
           slot: list[np.ndarray], stage: int, train_set: list[SynthSample],
           scale: float) -> None:
    """A worker's loop: backpropagate each sample index it is sent into
    `slot`, zeroed and bound as the trained parameters' gradients, so that
    Tensor.backward writes them there, and reply with the losses; an
    exception is replied instead. Returns at EOF, once the parent has
    closed its end or died."""
    while True:
        try:
            i, t_z = conn.recv()
        except EOFError:
            return
        for p, g in zip(trained, slot):
            g.fill(0.0)
            p.grad = g
        try:
            reply = _sample_backward(model, train_set[i], stage, scale, t_z)
        except Exception as exc:
            reply = exc
        conn.send(reply)


@functools.cache
def _openblas():
    """numpy's OpenBLAS thread-count calls (get, set), found among the
    libraries mapped into this process, or None where there is none."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in f
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the names of a plain, a scipy-openblas64 and a scipy-openblas32 build
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("scipy_", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def _forked(model: RestorationModel, trained: list[Tensor], stage: int,
            train_set: list[SynthSample], scale: float, lanes: int):
    """Move the trained parameters into one shared mapping, so that AdamW's
    in-place step is what every worker reads next; give each of the `lanes`
    lanes an equal share (at least one) of OpenBLAS's threads, so that the
    lanes do not oversubscribe the CPUs its pool was sized for; and fork
    `lanes - 1` workers. Yields the workers. On every way out they are
    killed and reaped, and the thread count is restored."""
    import signal
    from multiprocessing.connection import Pipe
    workers: list[_Worker] = []
    blas = _openblas()
    threads = blas[0]() if blas else 0
    try:
        if blas:
            blas[1](max(1, threads // lanes))
        for p, a in zip(trained, _arena([p.data.shape for p in trained])):
            a[...] = p.data
            p.data = a
        for lane in range(1, lanes):
            slot = _arena([p.data.shape for p in trained])
            ours, theirs = Pipe()
            pid = os.fork()
            if pid == 0:             # the worker never returns to the caller
                code = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    ours.close()
                    for w in workers:
                        w.conn.close()
                    _serve(theirs, model, trained, slot, stage, train_set, scale)
                    code = 0
                finally:
                    os._exit(code)
            theirs.close()
            workers.append(_Worker(ours, pid, lane, slot))
        yield workers
    finally:
        for w in workers:
            w.stop()
        if blas:
            blas[1](threads)


def _run_loop(cfg: RunConfig, model: RestorationModel, stage: int,
              teacher: DDEM | None, train_set: list[SynthSample],
              heldout: list[SynthSample], tag: str) -> TrainResult:
    """Train `model` for cfg.train.iterations AdamW steps. From step 1 on,
    a batch runs in `_lanes` lanes, as many as `_lanes_in_memory` finds
    room for after step 0: the calling process and, with two or more,
    forked workers, each backpropagating one of every round of `lanes`
    consecutive samples. The workers' gradients are added round by round in
    sample order, so every sum, loss row and checkpoint keeps the bytes of
    one lane. A `teacher` must come out of training bit-identical; it is
    checked before anything is written."""
    tc = cfg.train
    teacher_digest = _digests(teacher) if teacher is not None else {}
    params = model.parameters()
    frozen = [params.pop(k) for k in list(params) if stage == 2
              and tc.freeze_backbone and k.startswith("backbone.")]
    opt = AdamW(params, lr=tc.base_lr, betas=tc.betas,
                weight_decay=tc.weight_decay)
    sched = CosineRestartSchedule(tc.base_lr, list(tc.periods),
                                  list(tc.restart_weights), list(tc.eta_mins))
    trained = list(params.values())
    scale = 1.0 / tc.batch_size
    wanted = _lanes(tc.batch_size)
    batch_rng = np.random.default_rng(cfg.seed + 777)
    _keep_heap()
    # the frozen teacher's z_tilde per sample index: the same no-grad
    # forward of the same input gives the same bytes, so it runs once, here
    teacher_z: dict[int, np.ndarray] = {}

    def taught(i: int) -> np.ndarray | None:
        if teacher is not None and i not in teacher_z:
            with no_grad():
                teacher_z[i] = teacher(_ddem_input(train_set[i], 1)).z_tilde.data
        return teacher_z.get(i)

    rows = [CSV_HEADER]
    totals: list[float] = []
    with contextlib.ExitStack() as stack:
        # a frozen backbone takes no gradient in this process or its
        # workers; the flag comes back on every way out, before the
        # checkpoint is written, since Module.parameters selects on it
        for p in frozen:
            p.requires_grad = False
            stack.callback(setattr, p, "requires_grad", True)
        workers: list[_Worker] = []
        lanes = 1
        for step in range(tc.iterations):
            if step == 1 and wanted > 1:
                # step 0 ran in this process alone, so what it grew to
                # bounds what each worker forked from it will need
                lanes = _lanes_in_memory(wanted, trained)
                if lanes > 1:
                    workers = stack.enter_context(_forked(
                        model, trained, stage, train_set, scale, lanes))
            lr = sched.lr(step)
            opt.zero_grad()
            idx = list(map(int, batch_rng.integers(0, len(train_set),
                                                   size=tc.batch_size)))
            l1_acc = cor_acc = kl_acc = 0.0
            for r in range(0, len(idx), lanes):
                first, *rest = idx[r:r + lanes]
                for w, i in zip(workers, rest):
                    w.send(i, taught(i))
                losses = [_sample_backward(model, train_set[first], stage,
                                           scale, taught(first))]
                losses += [w.add_gradients(trained) for w in workers[:len(rest)]]
                for l1, cor, kl in losses:
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
    if teacher is not None:
        for k, digest in _digests(teacher).items():
            if digest != teacher_digest[k]:
                raise RuntimeError(f"teacher parameter {k} changed during stage 2")
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
    # with its stem cut to the input slices that read the degraded image
    teacher = build_model(cfg, 1, state=tensors).ddem
    student = build_model(cfg, 2, state={
        k: (v[:, :3] if k == "ddem.stem.weight" else v).copy()
        for k, v in tensors.items()})
    del tensors  # the teacher holds its arrays, the student its copies

    train_set, heldout = _datasets(cfg)
    return _run_loop(cfg, student, 2, teacher, train_set, heldout, "stage2")


def _digests(module: DDEM) -> dict[str, bytes]:
    """SHA-256 of each parameter's C-ordered bytes: equal digests mean
    bit-identical weights, without keeping a copy of them."""
    import hashlib  # here: loading OpenSSL would slow every `modem` import
    return {k: hashlib.sha256(np.ascontiguousarray(v.data)).digest()
            for k, v in module.parameters().items()}
