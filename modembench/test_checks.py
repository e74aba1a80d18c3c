"""Negative controls for the benchmark's output checks.

    python3 -m pytest -q modembench/test_checks.py

Each check must pass on the program as it is and fail on a scan perturbed
by 1e-6 relative, on a deliberately wrong gradient rule, and on a broken
restored image.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from modem import losses, ssm, train  # noqa: E402
from modem.config import config_from_dict  # noqa: E402
from modem.data import make_dataset  # noqa: E402
from modem.tensor import Tensor, no_grad  # noqa: E402


# -- scan -----------------------------------------------------------------------

def captured_scans():
    """Run two scan shapes through the instrumented program and return the
    captured calls."""
    probes = tr.Probes()
    instr = tr.Instrumentation(tr.Tracer(False), probes)
    instr.install()
    probes.capture = True
    rng = np.random.default_rng(0)
    try:
        for d, L, N in ((3, 64, 4), (5, 37, 2)):
            x = Tensor(rng.normal(size=(d, L)))
            delta = Tensor(rng.uniform(1e-3, 0.5, size=(d, L)))
            A = Tensor(-rng.uniform(0.5, 4.0, size=(d, N)))
            B = Tensor(rng.normal(size=(L, N)))
            C = Tensor(rng.normal(size=(L, N)))
            D = Tensor(rng.normal(size=d))
            ssm.selective_scan_op(x, delta, A, B, C, D)
    finally:
        instr.restore()
    return probes.scans


def scan_log():
    log = checks.CheckLog()
    checks.check_scans(log, captured_scans())
    return log


def test_scan_check_passes_on_program():
    log = scan_log()
    assert log.correct, log.results
    assert len(log.results) == 3


def test_scan_check_fails_on_perturbed_output(monkeypatch):
    orig = ssm._scan_forward

    def perturbed(*args):
        y, *rest = orig(*args)
        return (y * (1.0 + 1e-6), *rest)

    monkeypatch.setattr(ssm, "_scan_forward", perturbed)
    assert not scan_log().correct


def test_scan_check_fails_on_perturbed_decay(monkeypatch):
    orig = ssm._zoh_factors

    def perturbed(A, delta):
        abar, phi = orig(A, delta)
        return abar * (1.0 - 1e-6), phi

    monkeypatch.setattr(ssm, "_zoh_factors", perturbed)
    assert not scan_log().correct


# -- gradient -------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_problem(tmp_path_factory):
    """A toy-width stage-1 model with a non-zero output convolution (a
    fresh model is the identity map and passes no gradient upstream)."""
    spec = workloads.SPECS["train-toy"]
    wl = workloads.Workload(spec, 3, str(tmp_path_factory.mktemp("fd")),
                            None, None)
    payload = wl.payload(1, wl.workdir)
    payload["data"]["patch"] = 16
    model = train.build_model(config_from_dict(payload), stage=1)
    rng = np.random.default_rng(1)
    w = model.backbone.out_conv.weight
    w.data = rng.normal(0.0, 0.1, size=w.shape)
    sample = make_dataset(1, 16, 16, spec.kinds, spec.severity, 3)[0]
    ddem_in = Tensor(np.concatenate([sample.degraded, sample.clean]))

    def loss_fn():
        restored, _ = model(Tensor(sample.degraded), ddem_in)
        target = Tensor(sample.clean)
        loss = (losses.l1_loss(restored, target)
                + losses.correlation_loss(restored, target)[0])
        return loss, np.sign(restored.data - sample.clean)

    return model, loss_fn


def gradient_log(toy_problem):
    model, loss_fn = toy_problem
    rows = checks.central_differences(loss_fn, model.parameters(),
                                      workloads.FD_PARAMS, no_grad)
    log = checks.CheckLog()
    checks.check_gradients(log, rows)
    return log


def test_gradient_check_passes_on_tape(toy_problem):
    log = gradient_log(toy_problem)
    assert log.correct, [r for r in log.results if not r[1]]


# scan_backward returns (dx, ddelta, dA, dB, dC, dD); a 1 % error in any
# one of its rules must be caught.
@pytest.mark.parametrize("which", [0, 1, 2, 3, 4, 5])
def test_gradient_check_fails_on_wrong_scan_gradient(toy_problem, monkeypatch,
                                                     which):
    orig = ssm.scan_backward

    def wrong(*args):
        grads = list(orig(*args))
        grads[which] = grads[which] * 1.01
        return tuple(grads)

    monkeypatch.setattr(ssm, "scan_backward", wrong)
    assert not gradient_log(toy_problem).correct


def test_gradient_check_fails_on_wrong_analytic_value():
    row = {"name": "p", "index": 0, "eps": 1e-6, "analytic": 1.0,
           "numeric": 1.0 + 1e-4, "skipped": False}
    rows = [dict(row, name=f"p{i}") for i in range(checks.FD_MIN_CHECKED)]
    log = checks.CheckLog()
    checks.check_gradients(log, rows)
    assert not log.correct
    log = checks.CheckLog()
    checks.check_gradients(log, [dict(r, numeric=1.0) for r in rows])
    assert log.correct


def test_gradient_check_needs_enough_coordinates():
    row = {"name": "p", "index": 0, "eps": 1e-6, "analytic": 1.0,
           "numeric": 1.0, "skipped": True}
    log = checks.CheckLog()
    checks.check_gradients(log, [row] * 8)
    assert not log.correct


# -- images ---------------------------------------------------------------------

def test_restored_image_checks():
    lq = np.full((3, 5, 7), 0.5)
    good = checks.CheckLog()
    checks.check_restored(good, "x", lq, lq * 0.9)
    assert good.correct
    for bad in (np.full((3, 7, 5), 0.5), np.full((3, 5, 7), np.nan),
                np.full((3, 5, 7), 1.5)):
        log = checks.CheckLog()
        checks.check_restored(log, "x", lq, bad)
        assert not log.correct


def test_gain_check():
    log = checks.CheckLog()
    checks.check_gain(log, "x", 20.0, 20.5)
    assert log.correct
    for restored in (20.0, 19.0):
        log = checks.CheckLog()
        checks.check_gain(log, "x", 20.0, restored)
        assert not log.correct


def test_out_conv_check():
    log = checks.CheckLog()
    checks.check_nonidentity(log, np.zeros((3, 8, 3, 3)))
    assert not log.correct
    log = checks.CheckLog()
    checks.check_nonidentity(log, np.full((3, 8, 3, 3), 1e-3))
    assert log.correct


def test_ppm_roundtrip(tmp_path):
    img = np.random.default_rng(0).uniform(size=(3, 5, 7))
    path = str(tmp_path / "x.ppm")
    workloads.write_ppm(path, img)
    back = workloads.read_ppm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12
