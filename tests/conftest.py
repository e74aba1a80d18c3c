import json
import os
import subprocess
import sys

import numpy as np
import pytest


def toy_run_config(output_dir: str, **overrides) -> dict:
    """Small-model run config used across training and CLI tests."""
    cfg = {
        "seed": 0,
        "output_dir": output_dir,
        "data": {"n_train": 6, "n_heldout": 2, "patch": 32,
                 "kinds": ["haze"], "severity": [0.4, 0.6]},
        "train": {"stage": 1, "iterations": 10, "batch_size": 2,
                  "periods": [10], "restart_weights": [1.0],
                  "eta_mins": [3e-5]},
        "ddem": {"channels": 8, "num_groups": 1, "mdsl_per_group": 1,
                 "d_state": 4, "dt_rank": 2},
        "backbone": {"base_channels": 8, "group_depths": [1, 1, 1],
                     "refinement_depth": 1, "c_d": 16, "c_d1": 8, "c_d2": 8,
                     "d_state": 4, "dt_rank": 2},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def run_script(script: str, *args: str):
    """The last line of standard output, read as JSON, of `script` run in a
    fresh interpreter that imports this checkout's modem and the tests'
    conftest."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def nudge_teacher_mid_run(monkeypatch, name: str) -> None:
    """Make every optimizer step of stage 2 move the frozen teacher's
    parameter `name` by one ulp, in place, as a stray write during training
    would."""
    from modem import train
    from modem.optim import AdamW
    orig_run_loop, orig_step = train._run_loop, AdamW.step

    def run_loop(cfg, model, stage, teacher, *args):
        def step(self, *a, **k):
            w = teacher.parameters()[name].data.reshape(-1)
            w[3] = np.nextafter(w[3], np.inf)
            return orig_step(self, *a, **k)

        monkeypatch.setattr(AdamW, "step", step)
        return orig_run_loop(cfg, model, stage, teacher, *args)

    monkeypatch.setattr(train, "_run_loop", run_loop)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
