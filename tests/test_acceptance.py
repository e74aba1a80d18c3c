"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single PASS line when it completes; pytest -v adds the
per-test verdict.
"""

import time

import mpmath
import numpy as np
import pytest

from conftest import toy_run_config
from modem import gradcheck
from modem.cli import main as cli_main
from modem.config import config_from_dict
from modem.losses import correlation_loss, kl_loss
from modem.model import load_checkpoint
from modem.scan_orders import build_order, morton_encode_array
from modem.ssm import scan_terms, _zoh_factors
from modem.tensor import Tensor
from modem.train import train_stage1, train_stage2
from scan_refs import deinterleave_oracle, interleave_oracle
from test_ssm import random_instance, unrolled_oracle


def report(n, name):
    print(f"[ACCEPTANCE {n}] {name}: PASS")


def test_criterion_01_morton_correctness():
    t0 = time.monotonic()
    # exhaustive 1024x1024: codes form a bijection onto 0..2^20-1
    n = 1024
    ii, jj = np.meshgrid(np.arange(n, dtype=np.uint64),
                         np.arange(n, dtype=np.uint64), indexing="ij")
    codes = morton_encode_array(ii.ravel(), jj.ravel())
    assert np.array_equal(np.sort(codes), np.arange(n * n, dtype=np.uint64))
    ri, rj = deinterleave_oracle(codes)
    assert np.array_equal(ri, ii.ravel()) and np.array_equal(rj, jj.ravel())
    # loop-based bit-interleave oracle on 1e5 random pairs
    rng = np.random.default_rng(0)
    i = rng.integers(0, 1 << 20, size=100_000)
    j = rng.integers(0, 1 << 20, size=100_000)
    vec = morton_encode_array(i.astype(np.uint64), j.astype(np.uint64))
    for k in range(100_000):
        assert int(vec[k]) == interleave_oracle(int(i[k]), int(j[k]))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, "morton correctness")


def test_criterion_02_morton_block_contiguity():
    t0 = time.monotonic()
    for n in range(1, 7):
        side = 1 << n
        inv = build_order(side, side, "morton").inverse.reshape(side, side)
        for k in range(1, n + 1):
            b = 1 << k
            blocks = inv.reshape(side // b, b, side // b, b)
            blocks = blocks.transpose(0, 2, 1, 3).reshape(-1, b * b)
            span = blocks.max(axis=1) - blocks.min(axis=1)
            assert np.all(span == b * b - 1), f"n={n} k={k}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(2, "morton block contiguity")


def test_criterion_03_morton_builds_faster_than_hilbert():
    def median_build(kind):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            build_order(1024, 1024, kind)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    tm = median_build("morton")
    th = median_build("hilbert")
    assert tm < th, f"morton {tm:.4f}s vs hilbert {th:.4f}s"
    report(3, f"scan-speed direction (morton {tm:.4f}s < hilbert {th:.4f}s)")


def test_criterion_04_selective_scan_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        x, delta, A, B, C, D = random_instance(rng)
        Abar, phi = _zoh_factors(A, delta)
        y, _, _ = scan_terms(x, delta, A, B, C, D)
        expect = unrolled_oracle(x, Abar, phi * B, C, D)
        worst = max(worst, float(np.max(np.abs(y - expect))))
    assert worst < 1e-10, f"worst {worst:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(4, f"selective-scan oracle (worst {worst:.2e})")


def test_criterion_05_zoh_analytic():
    Abar, phi = _zoh_factors(np.array([[-1.0]]), np.array([[np.log(2.0)]]))
    Bbar = phi * np.array([[1.0]])
    assert abs(Abar[0, 0, 0] - 0.5) < 1e-14
    assert abs(Bbar[0, 0, 0] - 0.5) < 1e-14
    # delta -> 0 limits are exact
    Abar0, phi0 = _zoh_factors(np.array([[-2.0]]), np.array([[0.0]]))
    assert Abar0[0, 0, 0] == 1.0 and phi0[0, 0, 0] == 0.0
    # series branch against 128-bit-precision evaluation
    mpmath.mp.prec = 128
    A = np.array([[-1.0, -3.0]])
    for dval in (1e-9, 1e-11, 1e-13):
        _, phi = _zoh_factors(A, np.array([[dval]]))
        for col in range(2):
            a = mpmath.mpf(float(A[0, col]))
            exact = (mpmath.exp(mpmath.mpf(dval) * a) - 1) / a
            rel = abs(phi[0, 0, col] - float(exact)) / abs(float(exact))
            assert rel < 1e-12, f"delta={dval} rel={rel:.2e}"
    report(5, "ZOH analytic and series-branch checks")


def test_criterion_06_decomposition_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, delta, A, B, C, D = random_instance(rng)
        y, longrange, local = scan_terms(x, delta, A, B, C, D)
        assert np.max(np.abs(longrange + local + D[:, None] * x - y)) < 1e-14
        assert np.all(longrange[:, 0] == 0.0)
    report(6, "long-range/local decomposition identity")


def test_criterion_07_gradient_suite():
    t0 = time.monotonic()
    results = {name: fn(seed=0) for name, fn in gradcheck.CHECKS.items()}
    for name, err in results.items():
        assert err < gradcheck.FD_TOLERANCE, f"{name}: {err:.2e}"
    assert cli_main(["gradcheck", "--seed", "0"]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    worst = max(results.values())
    report(7, f"gradient suite (worst {worst:.2e})")


def test_criterion_08_loss_properties():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 8, 8)))
    y = rng.normal(size=(3, 8, 8))
    base, _ = correlation_loss(x, Tensor(y))
    for a, b in [(2.0, 0.0), (0.3, -1.0), (10.0, 5.0)]:
        scaled, _ = correlation_loss(x, Tensor(a * y + b))
        assert abs(float(scaled.data) - float(base.data)) < 1e-12
    anti, _ = correlation_loss(x, Tensor(-x.data))
    assert abs(float(anti.data) - 1.0) < 1e-12
    for _ in range(1000):
        t = rng.normal(size=6)
        s = rng.normal(size=6)
        assert float(kl_loss(t, Tensor(s)).data) >= -1e-12
    z = rng.normal(size=9)
    assert abs(float(kl_loss(z, Tensor(z.copy())).data)) < 1e-12
    pinned = float(kl_loss(np.array([0.0, 0.0]),
                           Tensor(np.array([0.0, np.log(3.0)]))).data)
    assert abs(pinned - 0.1438) < 1e-4
    report(8, "loss properties")


@pytest.fixture(scope="module")
def toy_end_to_end(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accept9"))
    payload = toy_run_config(out)
    payload["data"] = {"n_train": 12, "n_heldout": 4, "patch": 64,
                       "kinds": ["streaks", "haze"], "severity": [0.4, 0.7]}
    payload["train"] = {"stage": 1, "iterations": 500, "batch_size": 2,
                        "base_lr": 3e-4, "periods": [500],
                        "restart_weights": [1.0], "eta_mins": [3e-5]}
    t0 = time.monotonic()
    cfg1 = config_from_dict(payload)
    r1 = train_stage1(cfg1)
    payload["train"].update(stage=2, iterations=60, periods=[60],
                            base_lr=1e-4, eta_mins=[1e-5])
    payload["output_dir"] = out + "/s2"
    r2 = train_stage2(config_from_dict(payload), r1.checkpoint_path)
    return r1, r2, time.monotonic() - t0


def test_criterion_09_toy_end_to_end(toy_end_to_end):
    r1, r2, elapsed = toy_end_to_end
    assert r1.loss_final <= 0.5 * r1.loss_first, \
        f"loss {r1.loss_first:.4f} -> {r1.loss_final:.4f}"
    gain = r1.psnr_restored - r1.psnr_degraded
    assert gain >= 3.0, f"held-out PSNR gain {gain:.2f} dB"
    # stage 2 completed (frozen teacher verified inside train_stage2)
    # and logged a populated KL column
    lines = open(r2.csv_path).read().splitlines()
    assert all(line.split(",")[3] != "" for line in lines[1:])
    assert elapsed < 1800.0, f"took {elapsed:.0f}s"
    report(9, f"toy end-to-end (loss x{r1.loss_final / r1.loss_first:.2f}, "
              f"+{gain:.2f} dB, {elapsed:.0f}s)")


def test_criterion_10_determinism_and_persistence(tmp_path):
    runs = []
    for name in ("a", "b"):
        cfg = config_from_dict(toy_run_config(str(tmp_path / name)))
        runs.append(train_stage1(cfg))
    assert open(runs[0].csv_path, "rb").read() == \
        open(runs[1].csv_path, "rb").read()
    t0, _ = load_checkpoint(runs[0].checkpoint_path)
    t1, _ = load_checkpoint(runs[1].checkpoint_path)
    assert set(t0) == set(t1)
    for k in t0:
        assert t0[k].tobytes() == t1[k].tobytes()
    # restore output dimensions equal input dimensions
    from modem.data import make_clean_image, synth_degrade
    from modem.fileio import read_ppm, write_ppm
    s = synth_degrade(make_clean_image(4, 22, 30), "haze", 0.5, seed=5)
    lq = str(tmp_path / "lq.ppm")
    gt = str(tmp_path / "gt.ppm")
    write_ppm(lq, s.degraded)
    write_ppm(gt, s.clean)
    out = str(tmp_path / "out.ppm")
    cfg_path = tmp_path / "cfg.json"
    import json
    cfg_path.write_text(json.dumps(toy_run_config(str(tmp_path / "a"))))
    assert cli_main(["restore", "--checkpoint", runs[0].checkpoint_path,
                     "--config", str(cfg_path), "--in", lq, "--out", out,
                     "--ref", gt]) == 0
    assert read_ppm(out).shape == (3, 22, 30)
    report(10, "determinism and persistence")
