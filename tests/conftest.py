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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
