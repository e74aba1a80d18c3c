"""Optimizer arithmetic, schedule shape, and the two training stages."""

import hashlib
import os
import platform
import signal
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import nudge_teacher_mid_run, run_script, toy_run_config
from modem import train
from modem.config import RunConfig, config_from_dict
from modem.data import make_dataset
from modem.model import DDEM, RestorationModel, load_checkpoint
from modem.optim import CHUNK, AdamW, CosineRestartSchedule
from modem.tensor import Tensor
from modem.train import (TrainingDivergedError, build_model, train_stage1,
                         train_stage2)


def whole_array_adamw(p, g, m, v, t, lr, betas, eps, wd):
    """The whole-array AdamW rule the chunked step must reproduce bit for
    bit: new (p, m, v), with a missing gradient taken as zeros."""
    b1, b2 = betas
    g = np.zeros_like(p) if g is None else g
    m = m * b1
    m += (1 - b1) * g
    v = v * b2
    v += (1 - b2) * g * g
    update = (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return p - lr * (update + wd * p), m, v


class TestAdamW:
    def test_single_step_formula_oracle(self):
        p0 = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        p = Tensor(p0.copy(), requires_grad=True)
        p.grad = g.copy()
        opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), eps=1e-8,
                    weight_decay=0.01)
        opt.step()
        # hand expansion: t=1, m_hat = g, v_hat = g^2
        update = g / (np.sqrt(g * g) + 1e-8)
        expect = p0 - 0.1 * (update + 0.01 * p0)
        np.testing.assert_allclose(p.data, expect, rtol=1e-12)

    def test_decay_is_decoupled(self):
        # with zero gradient the only motion is -lr*wd*p
        p = Tensor(np.array([4.0]), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW({"p": p}, lr=0.5, weight_decay=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [4.0 - 0.5 * 0.1 * 4.0])

    def test_two_steps_match_reference_recurrence(self, rng):
        p0 = rng.normal(size=5)
        g1 = rng.normal(size=5)
        g2 = rng.normal(size=5)
        p = Tensor(p0.copy(), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
        m = v = np.zeros(5)
        ref = p0.copy()
        for t, g in ((1, g1), (2, g2)):
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
        np.testing.assert_allclose(p.data, ref, rtol=1e-12)


class TestChunkedAdamW:
    HYPER = dict(lr=3e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-2)

    def run_both(self, p0, grads):
        """Three (or more) steps of AdamW and of the whole-array rule from
        the same start; returns both (p, m, v) triples."""
        h = self.HYPER
        p = Tensor(p0.copy(), requires_grad=True)
        opt = AdamW({"p": p}, **h)
        p_ref, m_ref, v_ref = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
        for t, g in enumerate(grads, start=1):
            p.grad = None if g is None else g.copy(order="K")
            opt.step()
            p_ref, m_ref, v_ref = whole_array_adamw(
                p_ref, g, m_ref, v_ref, t, h["lr"], h["betas"], h["eps"],
                h["weight_decay"])
        return (p.data, opt.m["p"], opt.v["p"]), (p_ref, m_ref, v_ref)

    def assert_same_bits(self, got, ref):
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                      3 * CHUNK + 5])
    def test_bit_identical_to_whole_array_rule(self, rng, size):
        p0 = rng.normal(size=size)
        grads = [rng.normal(size=size) * 10.0**k for k in (-3, 0, 2)]
        grads[1][::7] = -0.0
        self.assert_same_bits(*self.run_both(p0, grads))

    def test_f_ordered_gradient(self, rng):
        shape = (CHUNK // 40 + 3, 41)
        p0 = rng.normal(size=shape)
        grads = [np.asfortranarray(rng.normal(size=shape)) for _ in range(3)]
        assert not grads[0].flags.c_contiguous
        self.assert_same_bits(*self.run_both(p0, grads))

    def test_missing_gradient_counts_as_zero(self, rng):
        size = 2 * CHUNK + 3
        p0 = rng.normal(size=size)
        grads = [rng.normal(size=size), None, rng.normal(size=size)]
        self.assert_same_bits(*self.run_both(p0, grads))

    def test_updates_in_place(self, rng):
        p = Tensor(rng.normal(size=(5, CHUNK // 3)), requires_grad=True)
        data = p.data
        opt = AdamW({"p": p})
        m, v = opt.m["p"], opt.v["p"]
        before = data.copy()
        p.grad = rng.normal(size=data.shape)
        opt.step()
        assert p.data is data and opt.m["p"] is m and opt.v["p"] is v
        assert not np.array_equal(data, before)

    @pytest.mark.parametrize("make", [
        lambda a: a[:, ::2],
        lambda a: np.asfortranarray(a),
        lambda a: a.astype(np.float32),
    ], ids=["strided", "f-order", "float32"])
    def test_parameter_of_another_layout_rejected(self, rng, make):
        p = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        p.data = make(p.data)
        with pytest.raises(ValueError, match="C-contiguous"):
            AdamW({"p": p})

    def test_read_only_parameter_rejected(self, rng):
        p = Tensor(rng.normal(size=8), requires_grad=True)
        p.data.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            AdamW({"p": p})

    def test_step_memory_is_two_chunks(self, rng):
        n = 4 * 1024 * 1024                  # one 32 MB parameter
        p = Tensor(rng.normal(size=n), requires_grad=True)
        p.grad = rng.normal(size=n)
        opt = AdamW({"p": p})
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * CHUNK + 64 * 1024


class TestSchedule:
    def test_peak_and_floor(self):
        s = CosineRestartSchedule(1.0, [10, 20], [1.0, 0.5], [0.1, 0.01])
        assert s.lr(0) == pytest.approx(1.0)
        assert s.lr(10) == pytest.approx(0.5)            # restart at half peak
        assert s.lr(9) == pytest.approx(
            0.1 + 0.9 * 0.5 * (1 + np.cos(np.pi * 9 / 10)))
        assert s.lr(100) == pytest.approx(0.01)          # clamped past the end

    def test_monotone_within_period(self):
        s = CosineRestartSchedule(3e-4, [50], [1.0], [1e-6])
        lrs = [s.lr(t) for t in range(50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CosineRestartSchedule(1.0, [10], [1.0, 0.5], [0.1])


@pytest.fixture(scope="module")
def stage1_result(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("stage1"))
    cfg = config_from_dict(toy_run_config(out))
    return cfg, train_stage1(cfg)


class TestStage1:
    def test_loss_decreases(self, stage1_result):
        _, r = stage1_result
        assert r.loss_final < r.loss_first

    def test_checkpoint_tagged_stage1(self, stage1_result):
        _, r = stage1_result
        tensors, stage = load_checkpoint(r.checkpoint_path)
        assert stage == 1
        assert any(k.startswith("ddem.") for k in tensors)
        assert any(k.startswith("backbone.") for k in tensors)

    def test_csv_columns(self, stage1_result):
        _, r = stage1_result
        lines = open(r.csv_path).read().splitlines()
        assert lines[0] == "step,l1,l_cor,l_kl,total,lr"
        assert len(lines) == 1 + 10
        # stage 1 logs an empty KL column
        assert lines[1].split(",")[3] == ""

    def test_deterministic_rerun_byte_identical(self, stage1_result, tmp_path):
        cfg1, r1 = stage1_result
        cfg2 = config_from_dict(toy_run_config(str(tmp_path / "rerun")))
        r2 = train_stage1(cfg2)
        assert open(r1.csv_path, "rb").read() == open(r2.csv_path, "rb").read()
        a, _ = load_checkpoint(r1.checkpoint_path)
        b, _ = load_checkpoint(r2.checkpoint_path)
        for k in a:
            assert a[k].tobytes() == b[k].tobytes()


class TestGradientGuard:
    def test_nan_gradient_stops_before_any_write(self, tmp_path, monkeypatch):
        """A NaN in one gradient at step 1 raises, naming the parameter and
        step, and leaves every weight and moment as step 0 left it."""
        cfg = config_from_dict(toy_run_config(str(tmp_path), train={
            "iterations": 3, "periods": [3]}))
        model = build_model(cfg, stage=1)
        target = "backbone.out_conv.weight"
        opts, snap = [], {}

        class RecordingAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        orig_backward = Tensor.backward
        calls = []

        def backward(self):
            orig_backward(self)
            calls.append(None)
            if len(calls) == 4:             # the second sample of step 1
                params = model.parameters()
                params[target].grad.reshape(-1)[5] = np.nan
                snap["p"] = {k: p.data.copy() for k, p in params.items()}
                snap["m"] = {k: a.copy() for k, a in opts[0].m.items()}
                snap["v"] = {k: a.copy() for k, a in opts[0].v.items()}

        monkeypatch.setattr(train, "AdamW", RecordingAdamW)
        monkeypatch.setattr(Tensor, "backward", backward)
        monkeypatch.setattr(train, "_lanes", lambda batch_size: 1)
        train_set, heldout = train._datasets(cfg)
        with pytest.raises(TrainingDivergedError,
                           match=rf"{target} at step 1"):
            train._run_loop(cfg, model, 1, None, train_set, heldout, "stage1")
        (opt,) = opts
        assert opt.t == 1
        for k, p in model.parameters().items():
            assert p.data.tobytes() == snap["p"][k].tobytes()
            assert opt.m[k].tobytes() == snap["m"][k].tobytes()
            assert opt.v[k].tobytes() == snap["v"][k].tobytes()
        assert not os.path.exists(tmp_path / "stage1.ckpt")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_every_non_finite_value_caught(self, bad):
        p = Tensor(np.zeros(5), requires_grad=True)
        p.grad = np.ones(5)
        p.grad[2] = bad
        with pytest.raises(TrainingDivergedError, match="w at step 7"):
            train._check_gradients({"w": p}, 7)

    def test_large_finite_gradient_passes(self):
        # the sum of squares overflows, but every value is finite
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.array([1e200, -1e300, 0.0])
        q = Tensor(np.zeros(2), requires_grad=True)   # no gradient yet
        train._check_gradients({"p": p, "q": q}, 0)

    def test_one_optimizer_zero_grad_per_step(self, tmp_path, monkeypatch):
        calls = []
        orig = AdamW.zero_grad
        monkeypatch.setattr(AdamW, "zero_grad",
                            lambda self: (calls.append(None), orig(self)))
        cfg = config_from_dict(toy_run_config(str(tmp_path), train={
            "iterations": 3, "periods": [3]}))
        train_stage1(cfg)
        assert len(calls) == 3


class TestSampleGraphRelease:
    """Each sample's graph is dropped once its loss floats are read: none
    is alive when the next sample's forward starts or the optimizer
    steps."""

    def spy(self, monkeypatch):
        refs, checks = [], []

        def assert_released():
            checks.append(None)
            assert all(r() is None for r in refs), "a sample graph is alive"

        orig_forward = RestorationModel.forward

        def forward(self, *args):
            assert_released()
            restored, priors = orig_forward(self, *args)
            if restored.requires_grad:
                refs.append(weakref.ref(restored.data))
            return restored, priors

        orig_step = AdamW.step

        def step(self, *args, **kwargs):
            assert_released()
            return orig_step(self, *args, **kwargs)

        monkeypatch.setattr(RestorationModel, "forward", forward)
        monkeypatch.setattr(AdamW, "step", step)
        monkeypatch.setattr(train, "_lanes", lambda batch_size: 1)
        return refs, checks

    def test_stage1(self, tmp_path, monkeypatch):
        refs, checks = self.spy(monkeypatch)
        cfg = config_from_dict(toy_run_config(str(tmp_path), train={
            "iterations": 2, "periods": [2]}))
        train_stage1(cfg)
        assert len(refs) == 4 and len(checks) >= 6

    def test_stage2(self, stage1_result, tmp_path, monkeypatch):
        _, r1 = stage1_result
        refs, checks = self.spy(monkeypatch)
        cfg = config_from_dict(toy_run_config(str(tmp_path), train={
            "stage": 2, "iterations": 2, "periods": [2]}))
        train_stage2(cfg, r1.checkpoint_path)
        assert len(refs) == 4 and len(checks) >= 6


class TestTapeSize:
    """The tape a toy 64x64 stage-1 sample holds when its backward starts:
    LayerNorm2d and MOS2D's gate are one node each and store no full-size
    intermediate (640 nodes and 47.3 MiB when they were composed)."""

    MAX_NODES = 500
    MAX_MIB = 36.0

    def test_toy_sample_tape(self, tmp_path, monkeypatch):
        cfg = config_from_dict(toy_run_config(str(tmp_path),
                                              data={"patch": 64}))
        model = build_model(cfg, 1)
        (sample,) = make_dataset(1, 64, 64, ["haze"], [0.4, 0.6], 0)
        seen, orig = {}, Tensor.backward

        def backward(self):
            seen["mib"] = (tracemalloc.get_traced_memory()[0] - base) / 2**20
            nodes, stack = set(), [self]
            while stack:
                node = stack.pop()
                if id(node) not in nodes:
                    nodes.add(id(node))
                    stack.extend(node._parents)
            seen["nodes"] = len(nodes)
            return orig(self)

        monkeypatch.setattr(Tensor, "backward", backward)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train._sample_backward(model, sample, 1, 0.5, None)
        finally:
            tracemalloc.stop()
        assert seen["nodes"] <= self.MAX_NODES, seen
        assert seen["mib"] < self.MAX_MIB, seen


# minor page faults of each toy stage-1 step at patch 64, from the
# optimizer's zero_grad to the end of its step
STEP_FAULTS = """
import json, resource, sys
from conftest import toy_run_config
from modem import optim, train
from modem.config import config_from_dict

faults, start = [], []
zero_grad, step = optim.AdamW.zero_grad, optim.AdamW.step

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def timed_zero_grad(self):
    start.append(minflt())
    zero_grad(self)

def timed_step(self, **kwargs):
    step(self, **kwargs)
    faults.append(minflt() - start[-1])

optim.AdamW.zero_grad, optim.AdamW.step = timed_zero_grad, timed_step
train.train_stage1(config_from_dict(toy_run_config(
    sys.argv[1], data={"patch": 64})))
print(json.dumps(faults))
"""

# every mallopt call made through ctypes' handle on the process, after the
# imports, after a restore, a decompose and a scan-compare, and after both
# training stages
MALLOPT_CALLS = """
import ctypes, json, os, sys, types
calls, handle = [], ctypes.CDLL

def mallopt(param, value):
    calls.append((param, value))
    return 1

def cdll(name, *args, **kwargs):
    if name is None:
        return types.SimpleNamespace(mallopt=mallopt)
    return handle(name, *args, **kwargs)

ctypes.CDLL = cdll

import modem.cli, modem.train
from conftest import toy_run_config
from modem.config import config_from_dict
from modem.fileio import write_ppm
from modem.model import save_checkpoint
import numpy as np

out = sys.argv[1]
seen = {"import": list(calls)}
cfg = config_from_dict(toy_run_config(out, train={"iterations": 1,
                                                  "periods": [1]}))
model = modem.train.build_model(cfg, stage=2)
ckpt = os.path.join(out, "drawn.ckpt")
save_checkpoint(ckpt, {k: p.data for k, p in model.parameters().items()}, 2)
cfg_path = os.path.join(out, "cfg.json")
with open(cfg_path, "w") as f:
    json.dump(toy_run_config(out), f)
lq = os.path.join(out, "lq.ppm")
write_ppm(lq, np.random.default_rng(0).random((3, 20, 24)))
common = ["--checkpoint", ckpt, "--config", cfg_path, "--in", lq]
assert modem.cli.main(["restore", *common, "--out", lq + ".out"]) == 0
maps = os.path.join(out, "maps")
assert modem.cli.main(["decompose", *common, "--outdir", maps]) == 0
assert modem.cli.main(["scan-compare", "--height", "8", "--width", "8",
                       "--repeats", "1"]) == 0
seen["restore"] = list(calls)
r1 = modem.train.train_stage1(cfg)
modem.train.train_stage2(cfg, r1.checkpoint_path)
seen["training"] = list(calls)
print(json.dumps(seen))
"""


class TestKeepHeap:
    """Training pins glibc's allocator thresholds once per process, so a
    step reuses the pages the last sample freed; nothing else touches the
    allocator."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the thresholds are pinned only under glibc")
    def test_steps_do_not_refault_the_heap(self, tmp_path):
        faults = run_script(STEP_FAULTS, str(tmp_path))
        assert len(faults) == 10
        # without the pinning, each step faults ~12k pages back in
        assert np.median(faults[1:]) < 200, faults

    def test_mallopt_only_at_training_and_once(self, tmp_path):
        seen = run_script(MALLOPT_CALLS, str(tmp_path))
        assert seen["import"] == [] and seen["restore"] == []
        assert seen["training"] == [
            [train.M_MMAP_THRESHOLD, train.MMAP_THRESHOLD],
            [train.M_TRIM_THRESHOLD, train.TRIM_THRESHOLD]]


# the restore-paper set-up training of the benchmark, written out: seed 1,
# paper widths, two 16x16 training patches of haze and streaks, batch 1
PAPER_SETUP = """
import hashlib, json, os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"   # the bytes depend on it
from modem import train
from modem.config import config_from_dict

def payload(stage, steps, out):
    return {"seed": 1, "output_dir": out,
            "data": {"n_train": 2, "n_heldout": 1, "patch": 16,
                     "kinds": ["haze", "streaks"], "severity": [0.4, 0.7]},
            "train": {"stage": stage, "iterations": steps, "batch_size": 1,
                      "base_lr": 1e-3, "periods": [steps],
                      "restart_weights": [1.0], "eta_mins": [1e-4]}}

out = sys.argv[1]
r1 = train.train_stage1(config_from_dict(payload(1, 6, os.path.join(out, "s1"))))
r2 = train.train_stage2(config_from_dict(payload(2, 4, os.path.join(out, "s2"))),
                        r1.checkpoint_path)
print(json.dumps({name: hashlib.sha256(open(r.checkpoint_path, "rb").read())
                  .hexdigest() for name, r in (("stage1", r1), ("stage2", r2))}))
"""


def test_paper_setup_golden_bytes(tmp_path):
    """Paper-width training keeps its bytes at one BLAS thread; a change
    that moves them must say why and re-pin both digests."""
    assert run_script(PAPER_SETUP, str(tmp_path)) == {
        "stage1": "8b2f7981e3b5315a0f9c7aaffc717530"
                  "507b78a4cc79b8882b3f93a83cf442d5",
        "stage2": "6a27683fa85d932dc4421f3c9a7d6d99"
                  "c33bda3431c79ccaecfed9b79fd8c11a"}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_worker(parent_pid: int) -> bool:
    return os.getpid() != parent_pid


@pytest.mark.skipif(not hasattr(os, "fork"), reason="lanes fork workers")
class TestLanes:
    """A batch's samples run in forked lanes with the bytes of one lane,
    and every worker is reaped on every path. Memory is taken as ample
    unless a test says otherwise, so the lane count is the one pinned."""

    @pytest.fixture(autouse=True)
    def ample_memory(self, monkeypatch):
        monkeypatch.setattr(train, "_memory_available", lambda: 1 << 50)

    @staticmethod
    def count_forks(monkeypatch) -> list[int]:
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forks

    def train_both(self, out, monkeypatch, lanes, batch):
        monkeypatch.setattr(train, "_lanes", lambda batch_size: lanes)
        forks = self.count_forks(monkeypatch)
        cfg1 = config_from_dict(toy_run_config(str(out), train={
            "batch_size": batch}))
        r1 = train_stage1(cfg1)
        cfg2 = config_from_dict(toy_run_config(str(out), train={
            "stage": 2, "batch_size": batch}))
        train_stage2(cfg2, r1.checkpoint_path)
        assert_no_child_left()
        assert len(forks) == 2 * (lanes - 1)    # per stage, lanes - 1
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("stage1.ckpt", "loss_stage1.csv",
                             "stage2.ckpt", "loss_stage2.csv")}

    @pytest.mark.parametrize("batch", [2, 3])
    def test_same_bytes_as_one_lane(self, tmp_path, monkeypatch, batch):
        # batch 3 in 2 lanes ends on a round of one sample; in 3 lanes it
        # runs more processes than this host may have CPUs
        one = self.train_both(tmp_path / "one", monkeypatch, 1, batch)
        for lanes in range(2, batch + 1):
            got = self.train_both(tmp_path / f"lanes{lanes}", monkeypatch,
                                  lanes, batch)
            assert got == one, lanes

    def lane_run(self, tmp_path, monkeypatch, sample_backward):
        monkeypatch.setattr(train, "_lanes", lambda batch_size: 2)
        monkeypatch.setattr(train, "_sample_backward", sample_backward)
        cfg = config_from_dict(toy_run_config(str(tmp_path), train={
            "iterations": 3, "periods": [3]}))
        return train_stage1(cfg)

    def test_worker_exception_reaches_parent(self, tmp_path, monkeypatch):
        parent, orig = os.getpid(), train._sample_backward

        def sample_backward(*args):
            if in_worker(parent):
                raise ZeroDivisionError("boom in a worker")
            return orig(*args)

        with pytest.raises(ZeroDivisionError, match="boom in a worker") as exc:
            self.lane_run(tmp_path, monkeypatch, sample_backward)
        assert "training worker" in str(exc.value.__cause__)
        assert_no_child_left()

    def test_interrupt_reaps_workers(self, tmp_path, monkeypatch):
        parent, orig = os.getpid(), train._sample_backward
        calls, forks = [], self.count_forks(monkeypatch)

        def sample_backward(*args):
            if not in_worker(parent):
                calls.append(None)
                if len(calls) == 3:          # step 1's, its worker running
                    raise KeyboardInterrupt
            return orig(*args)

        with pytest.raises(KeyboardInterrupt):
            self.lane_run(tmp_path, monkeypatch, sample_backward)
        assert len(forks) == 1
        assert_no_child_left()

    def test_killed_worker_named(self, tmp_path, monkeypatch):
        parent, orig = os.getpid(), train._sample_backward
        calls = []

        def sample_backward(*args):
            if in_worker(parent):
                calls.append(None)           # the worker's own list
                if len(calls) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return orig(*args)

        with pytest.raises(RuntimeError,
                           match=r"training worker \d+ \(lane 1\) ended"):
            self.lane_run(tmp_path, monkeypatch, sample_backward)
        assert_no_child_left()

    def test_nan_in_worker_sample_stops_before_any_write(self, tmp_path,
                                                         monkeypatch):
        """A NaN in the gradient of the sample a worker runs at step 1
        raises at step 1, with every weight and moment as step 0 left it."""
        parent, orig = os.getpid(), train._sample_backward
        target = "backbone.out_conv.weight"
        calls, opts, snaps = [], [], []

        def sample_backward(model, *args):
            losses = orig(model, *args)
            if in_worker(parent):
                calls.append(None)
                if len(calls) == 1:          # the worker's sample of step 1
                    model.parameters()[target].grad.reshape(-1)[5] = np.nan
            return losses

        class RecordingAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

            def zero_grad(self):
                snaps.append(({k: p.data.copy() for k, p in self.params.items()},
                              {k: a.copy() for k, a in self.m.items()},
                              {k: a.copy() for k, a in self.v.items()}))
                super().zero_grad()

        monkeypatch.setattr(train, "AdamW", RecordingAdamW)
        with pytest.raises(TrainingDivergedError,
                           match=rf"{target} at step 1"):
            self.lane_run(tmp_path, monkeypatch, sample_backward)
        assert_no_child_left()
        (opt,), (p0, m0, v0) = opts, snaps[-1]
        assert opt.t == 1 and len(snaps) == 2
        for k, p in opt.params.items():
            assert p.data.tobytes() == p0[k].tobytes()
            assert opt.m[k].tobytes() == m0[k].tobytes()
            assert opt.v[k].tobytes() == v0[k].tobytes()
        assert not os.path.exists(tmp_path / "stage1.ckpt")

    def test_teacher_runs_once_per_sample_in_parent(self, stage1_result,
                                                    tmp_path, monkeypatch):
        _, r1 = stage1_result
        parent, taught = os.getpid(), []
        orig_forward = DDEM.forward

        def forward(self, x):
            if x.shape[0] == 6:             # the teacher reads (lq, gt)
                if in_worker(parent):
                    raise AssertionError("the teacher ran in a worker")
                taught.append(hash(x.data.tobytes()))
            return orig_forward(self, x)

        monkeypatch.setattr(DDEM, "forward", forward)
        monkeypatch.setattr(train, "_lanes", lambda batch_size: 2)
        cfg = config_from_dict(toy_run_config(str(tmp_path), train={
            "stage": 2}))
        train_stage2(cfg, r1.checkpoint_path)
        assert_no_child_left()
        rng = np.random.default_rng(cfg.seed + 777)
        drawn = {int(i) for _ in range(cfg.train.iterations)
                 for i in rng.integers(0, cfg.data.n_train,
                                       size=cfg.train.batch_size)}
        assert len(taught) == len(set(taught)) == len(drawn) > 1

    def test_blas_threads_shared_then_restored(self, tmp_path, monkeypatch):
        # two lanes of a four-thread pool run two threads each
        if train._openblas() is None:
            pytest.skip("no OpenBLAS found in this process")
        get, put = train._openblas()
        parent, orig, seen = os.getpid(), train._sample_backward, []

        def sample_backward(*args):
            if not in_worker(parent):
                seen.append(get())
            return orig(*args)

        before = get()
        put(4)
        try:
            self.lane_run(tmp_path, monkeypatch, sample_backward)
            # step 0 runs alone with the whole pool, steps 1 and 2 in lanes
            assert seen == [4, 4, 2, 2] and get() == 4
        finally:
            put(before)
        assert_no_child_left()

    def test_lanes_fit_memory(self, monkeypatch):
        # a worker needs the training process's peak RSS plus its slot
        import resource

        class Usage:
            ru_maxrss = 1000                 # KiB
        monkeypatch.setattr(resource, "getrusage", lambda who: Usage)
        trained = [Tensor(np.zeros(3))]
        need = 1000 * 1024 + 24
        for free, wanted, lanes in [(2 * need, 3, 3), (2 * need - 1, 3, 2),
                                    (need, 2, 2), (need - 1, 2, 1),
                                    (0, 4, 1), (None, 2, 1)]:
            monkeypatch.setattr(train, "_memory_available", lambda: free)
            assert train._lanes_in_memory(wanted, trained) == lanes, free

    def test_no_room_runs_one_lane(self, tmp_path, monkeypatch):
        monkeypatch.setattr(train, "_memory_available", lambda: 0)
        forks = self.count_forks(monkeypatch)
        self.lane_run(tmp_path, monkeypatch, train._sample_backward)
        assert forks == []
        assert_no_child_left()

    def test_memory_available_read(self, monkeypatch):
        monkeypatch.undo()                   # the real reading
        if not os.path.exists("/proc/meminfo"):
            assert train._memory_available() is None
            return
        with open("/proc/meminfo") as f:
            total = next(int(line.split()[1]) * 1024 for line in f
                         if line.startswith("MemTotal:"))
        assert 0 < train._memory_available() <= total

    def test_lane_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert [train._lanes(b) for b in (1, 2, 3, 8)] == [1, 2, 3, 3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert train._lanes(4) == 1
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert train._lanes(4) == 1


def test_worker_binds_its_slot_as_gradients():
    """One toy sample through a worker's loop, driven in a thread over a
    pipe: the worker zeroes its slot and binds it as the gradients, so the
    backward writes there, with the bytes of a backward into fresh ones."""
    from multiprocessing.connection import Pipe
    model = build_model(config_from_dict(toy_run_config("unused")), stage=1)
    train_set = make_dataset(1, 16, 16, ("haze",), (0.4, 0.6), 0)
    trained = list(model.parameters().values())
    slot = [np.full_like(p.data, np.nan) for p in trained]
    ours, theirs = Pipe()
    worker = threading.Thread(target=train._serve, args=(
        theirs, model, trained, slot, 1, train_set, 0.5))
    worker.start()
    try:
        ours.send((0, None))
        assert ours.poll(120), "the worker sent no reply"
        losses = ours.recv()
    finally:
        ours.close()                 # EOF: the worker's loop returns
        worker.join(timeout=120)
    assert not worker.is_alive()
    theirs.close()
    assert all(p.grad is g for p, g in zip(trained, slot))
    for p in trained:
        p.grad = None
    assert train._sample_backward(model, train_set[0], 1, 0.5, None) == losses
    for p, g in zip(trained, slot):
        assert p.grad.tobytes() == g.tobytes()


class TestStage2:
    def test_distillation_run(self, stage1_result, tmp_path):
        cfg1, r1 = stage1_result
        out = str(tmp_path / "stage2")
        payload = toy_run_config(out)
        payload["train"]["stage"] = 2
        payload["train"]["iterations"] = 5
        payload["train"]["periods"] = [5]
        cfg = config_from_dict(payload)
        r2 = train_stage2(cfg, r1.checkpoint_path)
        tensors, stage = load_checkpoint(r2.checkpoint_path)
        assert stage == 2
        # 3-channel student stem
        assert tensors["ddem.stem.weight"].shape[1] == 3
        # KL column populated
        lines = open(r2.csv_path).read().splitlines()
        assert all(line.split(",")[3] != "" for line in lines[1:])

    def test_student_inherits_stage1_weights(self, stage1_result,
                                             monkeypatch):
        cfg1, r1 = stage1_result
        tensors, _ = load_checkpoint(r1.checkpoint_path)
        students = []
        monkeypatch.setattr(train, "_run_loop",
                            lambda cfg, model, *args: students.append(model))
        train_stage2(cfg1, r1.checkpoint_path)
        params = students[0].parameters()
        np.testing.assert_array_equal(
            params["ddem.stem.weight"].data,
            tensors["ddem.stem.weight"][:, :3])
        np.testing.assert_array_equal(
            params["backbone.embed.weight"].data,
            tensors["backbone.embed.weight"])

    def test_freeze_backbone_flag(self, stage1_result, tmp_path):
        cfg1, r1 = stage1_result
        payload = toy_run_config(str(tmp_path / "frozen"))
        payload["train"].update(stage=2, iterations=3, periods=[3],
                                freeze_backbone=True)
        cfg = config_from_dict(payload)
        r2 = train_stage2(cfg, r1.checkpoint_path)
        trained, _ = load_checkpoint(r2.checkpoint_path)
        start, _ = load_checkpoint(r1.checkpoint_path)
        for k in trained:
            if k.startswith("backbone."):
                assert trained[k].tobytes() == start[k].tobytes(), k
        # the student estimator did move
        moved = any(
            trained[k].tobytes() != start[k][:, :3].tobytes()
            if k == "ddem.stem.weight"
            else trained[k].tobytes() != start[k].tobytes()
            for k in trained if k.startswith("ddem."))
        assert moved

    # SHA-256 of the 3-step frozen run's outputs, pinned before the frozen
    # backbone stopped taking gradients: the same with one lane and two
    FROZEN_GOLDEN = {
        "stage2.ckpt":
            "7dcc55b39c269fd3ec457f1ae5e7e44d3db7e0d907508f8e86bf660628034be7",
        "loss_stage2.csv":
            "bf5cc05fcd98324f7d09eea9ce7ceabce4245911bc0e7a03f2f1bdeb9bdac13d",
    }

    @pytest.mark.parametrize("lanes", [1, pytest.param(2, marks=(
        pytest.mark.skipif(not hasattr(os, "fork"), reason="lanes fork")))])
    def test_frozen_backbone_takes_no_gradient(self, stage1_result, tmp_path,
                                               monkeypatch, lanes):
        _, r1 = stage1_result
        backbones, held = [], []
        orig_run_loop, orig_step = train._run_loop, AdamW.step

        def run_loop(cfg, model, *args):
            backbones.append(list(model.backbone.parameters().values()))
            return orig_run_loop(cfg, model, *args)

        def step(self, *args, **kwargs):
            held.append(sum(p.grad is not None for p in backbones[0]))
            return orig_step(self, *args, **kwargs)

        monkeypatch.setattr(train, "_run_loop", run_loop)
        monkeypatch.setattr(AdamW, "step", step)
        monkeypatch.setattr(train, "_lanes", lambda batch_size: lanes)
        monkeypatch.setattr(train, "_memory_available", lambda: 1 << 50)
        out = tmp_path / "frozen"
        cfg = config_from_dict(toy_run_config(str(out), train={
            "stage": 2, "iterations": 3, "periods": [3],
            "freeze_backbone": True}))
        train_stage2(cfg, r1.checkpoint_path)
        assert held == [0, 0, 0]
        assert all(p.requires_grad for p in backbones[0])
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in self.FROZEN_GOLDEN} == self.FROZEN_GOLDEN

    def test_teacher_change_detected(self, stage1_result, tmp_path,
                                     monkeypatch):
        # a teacher weight nudged in place during stage 2 ends the run with
        # an error naming it
        _, r1 = stage1_result
        name = "groups.0.0.mos2d.a_log"
        nudge_teacher_mid_run(monkeypatch, name)
        cfg = config_from_dict(toy_run_config(str(tmp_path), train={
            "stage": 2, "iterations": 1, "periods": [1]}))
        with pytest.raises(RuntimeError,
                           match=rf"teacher parameter {name} changed"):
            train_stage2(cfg, r1.checkpoint_path)

    def test_teacher_runs_once_per_sample(self, stage1_result, tmp_path,
                                          monkeypatch):
        # 10 steps of 2 draws from 6 samples: the frozen teacher's forward
        # runs once for each distinct sample drawn, never twice for one
        _, r1 = stage1_result
        drawn, taught = set(), []
        orig_forward, orig_sample = DDEM.forward, train._sample_backward

        def forward(self, x):
            if x.shape[0] == 6:             # the teacher reads (lq, gt)
                taught.append(hash(x.data.tobytes()))
            return orig_forward(self, x)

        def sample_backward(model, s, *args):
            drawn.add(id(s))
            return orig_sample(model, s, *args)

        monkeypatch.setattr(DDEM, "forward", forward)
        monkeypatch.setattr(train, "_sample_backward", sample_backward)
        monkeypatch.setattr(train, "_lanes", lambda batch_size: 1)
        cfg = config_from_dict(toy_run_config(str(tmp_path), train={
            "stage": 2}))
        assert (cfg.data.n_train, cfg.train.iterations,
                cfg.train.batch_size) == (6, 10, 2)
        train_stage2(cfg, r1.checkpoint_path)
        assert len(taught) == len(set(taught)) == len(drawn) > 1

    def test_rejects_wrong_stage_checkpoint(self, stage1_result, tmp_path):
        cfg1, r1 = stage1_result
        from modem.model import save_checkpoint
        tensors, _ = load_checkpoint(r1.checkpoint_path)
        bad = str(tmp_path / "bad.ckpt")
        save_checkpoint(bad, tensors, stage=2)
        with pytest.raises(ValueError):
            train_stage2(cfg1, bad)


class TestBuildModel:
    @pytest.mark.parametrize("stage, ddem, backbone", [
        (1, 719_936, 24_211_332),
        (2, 717_344, 24_211_332),
    ])
    def test_paper_default_parameter_counts(self, stage, ddem, backbone):
        model = build_model(RunConfig(), stage=stage, draw=False)
        assert model.ddem.num_parameters() == ddem
        assert model.backbone.num_parameters() == backbone
        if stage == 2:
            assert model.num_parameters() == 24_928_676

    def test_undrawn_builds_draw_no_random_numbers(self, stage1_result,
                                                   monkeypatch):
        cfg, r = stage1_result
        tensors, stage = load_checkpoint(r.checkpoint_path)

        def no_rng(*args, **kwargs):
            raise AssertionError("a random initialisation was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        build_model(RunConfig(), stage=2, draw=False)
        model = build_model(cfg, stage=stage, state=tensors)
        for name, p in model.parameters().items():
            assert p.data is tensors[name]

    def test_state_build_equals_drawn_build_then_load(self, stage1_result):
        cfg, r = stage1_result
        tensors, stage = load_checkpoint(r.checkpoint_path)
        drawn = build_model(cfg, stage=stage)
        drawn.load_state({k: v.copy() for k, v in tensors.items()})
        loaded = build_model(cfg, stage=stage, state=tensors)
        x = Tensor(np.random.default_rng(1).uniform(size=(3, 12, 20)))
        pair = Tensor(np.random.default_rng(2).uniform(size=(6, 12, 20)))
        a, _ = drawn(x, pair)
        b, _ = loaded(x, pair)
        assert a.data.tobytes() == b.data.tobytes()

    def test_state_with_missing_or_extra_names_rejected(self, stage1_result):
        cfg, r = stage1_result
        tensors, stage = load_checkpoint(r.checkpoint_path)
        extra = dict(tensors, **{"bogus.weight": np.zeros(3)})
        with pytest.raises(KeyError, match="bogus"):
            build_model(cfg, stage=stage, state=extra)
        missing = dict(tensors)
        del missing["backbone.out_conv.bias"]
        with pytest.raises(KeyError, match="out_conv"):
            build_model(cfg, stage=stage, state=missing)

    def test_state_of_the_other_stage_rejected(self, stage1_result):
        cfg, r = stage1_result
        tensors, _ = load_checkpoint(r.checkpoint_path)
        with pytest.raises(ValueError, match="ddem.stem.weight"):
            build_model(cfg, stage=2, state=tensors)
