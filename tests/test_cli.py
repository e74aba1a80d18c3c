"""Command-line interface: every subcommand, exit codes, output files."""

import contextlib
import hashlib
import io
import json
import os
import signal

import numpy as np
import pytest

from conftest import nudge_teacher_mid_run, run_script, toy_run_config
from modem import cli, train
from modem.cli import main
from modem.data import make_clean_image, synth_degrade
from modem.fileio import read_ppm, write_ppm


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One stage-1 + stage-2 CLI training pass shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    payload = toy_run_config(str(root / "run"))
    cfg_path = write_cfg(root, payload)
    assert main(["train", "--stage", "1", "--config", cfg_path]) == 0
    stage1 = str(root / "run" / "stage1.ckpt")
    assert main(["train", "--stage", "2", "--config", cfg_path,
                 "--from", stage1]) == 0
    return root, cfg_path, stage1, str(root / "run" / "stage2.ckpt")


class TestScanCompare:
    def test_writes_csv(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        assert main(["scan-compare", "--height", "32", "--width", "32",
                     "--repeats", "1", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == ("kind,height,width,build_seconds,mean,median,"
                            "p95,block_depth")
        assert len(lines) == 6  # header + five scan kinds

    def test_unknown_kind_is_usage_error(self):
        assert main(["scan-compare", "--kinds", "zigzag"]) == 2

    def test_out_naming_a_directory_is_usage_error(self, tmp_path, capsys,
                                                   monkeypatch):
        # found before any order is built or timed
        built, real = [], cli.build_order

        def build_order(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_order", build_order)
        assert main(["scan-compare", "--height", "8", "--width", "8",
                     "--kinds", "raster", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert built == []

    @pytest.mark.parametrize("argv", [
        ["--height", "0"], ["--width", "-3"], ["--window", "0", "--kinds",
                                              "local"],
        ["--repeats", "0"], ["--height", "2.5"]])
    def test_non_positive_size_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan-compare", "--height", "8", "--width", "8", *argv])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv,grid", [(["--height", "1"], "1x8"),
                                           (["--width", "1"], "8x1")])
    def test_grid_without_neighbours_is_usage_error(self, argv, grid, capsys):
        # locality statistics need both extents >= 2
        assert main(["scan-compare", "--height", "8", "--width", "8",
                     *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and grid in err

    def test_grid_too_large_is_usage_error(self, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("modem.cli.build_order", no_memory)
        assert main(["scan-compare", "--height", "3000000", "--width",
                     "3000000", "--kinds", "raster"]) == 2
        assert "3000000x3000000" in capsys.readouterr().err


class TestGradcheck:
    def test_exits_zero(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        # 10 blocks and ops + detected negative control
        assert out.count("PASS") == 11
        assert "FAIL" not in out
        assert "layernorm " in out and "gate " in out
        assert "neg-control" in out and "PASS (detected)" in out


class TestTrain:
    def test_missing_config_usage_error(self, tmp_path):
        assert main(["train", "--stage", "1", "--config",
                     str(tmp_path / "nope.json")]) == 2

    def test_unknown_key_usage_error(self, tmp_path):
        payload = toy_run_config(str(tmp_path / "run"))
        payload["optimizer"] = "sgd"
        assert main(["train", "--stage", "1",
                     "--config", write_cfg(tmp_path, payload)]) == 2

    def test_patch_below_ssim_window_usage_error(self, tmp_path, capsys):
        payload = toy_run_config(str(tmp_path / "run"))
        payload["data"]["patch"] = 8
        assert main(["train", "--stage", "1",
                     "--config", write_cfg(tmp_path, payload)]) == 2
        assert "data.patch" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "run"))

    def test_string_iterations_usage_error(self, tmp_path, capsys):
        payload = toy_run_config(str(tmp_path / "run"))
        payload["train"]["iterations"] = "2"
        assert main(["train", "--stage", "1",
                     "--config", write_cfg(tmp_path, payload)]) == 2
        assert "train.iterations" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "run"))

    @pytest.mark.parametrize("section, key, value", [
        ("train", "batch_size", 0),       # was ZeroDivisionError, exit 1
        ("train", "iterations", 0),       # was IndexError, exit 1
        ("train", "log_every", 0),        # was ZeroDivisionError, exit 1
        ("train", "betas", [1.0, 0.999]),  # was exit 0 with NaN weights
        ("data", "n_heldout", 0),         # was exit 0 with psnr nan
        ("data", "n_train", 0),           # was "error: high <= 0"
    ])
    def test_setting_that_breaks_a_run_usage_error(self, tmp_path, capsys,
                                                   section, key, value):
        payload = toy_run_config(str(tmp_path / "run"))
        payload[section][key] = value
        assert main(["train", "--stage", "1",
                     "--config", write_cfg(tmp_path, payload)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "run"))

    def test_non_integer_seed_usage_error(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("MODEM_SEED", "abc")
        payload = toy_run_config(str(tmp_path / "run"))
        cfg_path = write_cfg(tmp_path, payload)
        for argv in (["train", "--stage", "1", "--config", cfg_path],
                     ["params", "--config", cfg_path],
                     ["gradcheck"]):
            assert main(argv) == 2
            assert "MODEM_SEED" in capsys.readouterr().err

    def test_negative_seed_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MODEM_SEED", raising=False)
        payload = toy_run_config(str(tmp_path / "run"), seed=-3)
        assert main(["train", "--stage", "1",
                     "--config", write_cfg(tmp_path, payload)]) == 2
        assert "seed: -3 is negative" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "run"))
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        monkeypatch.setenv("MODEM_SEED", "-2")
        assert main(["gradcheck"]) == 2
        assert "MODEM_SEED: -2 is negative" in capsys.readouterr().err

    def test_stage2_requires_from(self, tmp_path):
        payload = toy_run_config(str(tmp_path / "run"))
        assert main(["train", "--stage", "2",
                     "--config", write_cfg(tmp_path, payload)]) == 2

    @pytest.mark.parametrize("section, key", [("ddem", "num_groups"),
                                              ("backbone", "refinement_depth")])
    def test_stage1_checkpoint_of_another_model_usage_error(
            self, trained, tmp_path, capsys, section, key):
        # was a KeyError traceback, exit 1
        _, _, stage1, _ = trained
        payload = toy_run_config(str(tmp_path / "run"))
        payload["train"]["stage"] = 2
        payload[section][key] = 2
        capsys.readouterr()
        assert main(["train", "--stage", "2", "--config",
                     write_cfg(tmp_path, payload), "--from", stage1]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not os.path.exists(str(tmp_path / "run"))
        # the names are counted, a few shown, and not quoted as a repr
        assert len(err[0]) < 300 and not err[0].startswith(("error: '",
                                                           'error: "')), err

    def run_failure(self, trained, tmp_path, capsys, **train_options):
        """The one `error:` line of a toy stage 2 from the shared stage-1
        checkpoint that must exit 1, not end in a traceback."""
        _, _, stage1, _ = trained
        payload = toy_run_config(str(tmp_path / "run"), train={
            "stage": 2, **train_options})
        capsys.readouterr()
        assert main(["train", "--stage", "2", "--config",
                     write_cfg(tmp_path, payload), "--from", stage1]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_moved_teacher_is_run_failure(self, trained, tmp_path, capsys,
                                          monkeypatch):
        # was a RuntimeError traceback
        name = "groups.0.0.mos2d.a_log"
        nudge_teacher_mid_run(monkeypatch, name)
        err = self.run_failure(trained, tmp_path, capsys, iterations=1,
                               periods=[1])
        assert err == (f"error: teacher parameter {name} changed during "
                       "stage 2\n")

    def test_moved_teacher_writes_nothing(self, trained, tmp_path, capsys,
                                          monkeypatch):
        # the teacher is checked before the checkpoint and the loss log are
        # written, so a failed run leaves neither behind
        nudge_teacher_mid_run(monkeypatch, "groups.0.0.mos2d.a_log")
        self.run_failure(trained, tmp_path, capsys, iterations=2,
                         periods=[2])
        run = tmp_path / "run"
        assert not (run / "stage2.ckpt").exists()
        assert not (run / "loss_stage2.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="lanes fork workers")
    def test_killed_worker_is_run_failure(self, trained, tmp_path, capsys,
                                          monkeypatch):
        # was a RuntimeError traceback; killed as in
        # tests/test_training.py::TestLanes::test_killed_worker_named
        parent, orig = os.getpid(), train._sample_backward
        calls = []

        def sample_backward(*args):
            if os.getpid() != parent:
                calls.append(None)           # the worker's own list
                if len(calls) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return orig(*args)

        monkeypatch.setattr(train, "_lanes", lambda batch_size: 2)
        monkeypatch.setattr(train, "_memory_available", lambda: 1 << 50)
        monkeypatch.setattr(train, "_sample_backward", sample_backward)
        err = self.run_failure(trained, tmp_path, capsys, iterations=3,
                               periods=[3])
        assert "training worker" in err and "(lane 1) ended" in err
        with pytest.raises(ChildProcessError):    # every worker reaped
            os.waitpid(-1, os.WNOHANG)

    def test_out_of_memory_usage_error(self, tmp_path, capsys, monkeypatch):
        # was numpy's _ArrayMemoryError traceback, exit 1, for a patch too
        # large to allocate; raised here without allocating anything
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 894. GiB")

        monkeypatch.setattr("modem.train.make_dataset", no_memory)
        payload = toy_run_config(str(tmp_path / "run"))
        assert main(["train", "--stage", "1",
                     "--config", write_cfg(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 894. GiB\n")

    def test_outputs_exist(self, trained):
        root, _, stage1, stage2 = trained
        assert os.path.exists(stage1)
        assert os.path.exists(stage2)
        assert os.path.exists(str(root / "run" / "loss_stage1.csv"))
        assert os.path.exists(str(root / "run" / "loss_stage2.csv"))


# SHA-256 of the outputs of the `trained` run (tests/conftest.py toy config,
# seed 0) and of a 45x61 restore and decompose from its stage-2 checkpoint,
# pinned on an x86-64 host with numpy's OpenBLAS at one thread; at the toy
# widths two threads and the default give the same bytes there
GOLDEN = {
    "stage1.ckpt":
        "3e0fa81e14651fdb35bee97f45b70bab69a9cc51887920c14144451be68bdf77",
    "loss_stage1.csv":
        "7d790dcb53e7384e491349c6af4d5aacf681bacf2bebf6064497365013255d0e",
    "stage2.ckpt":
        "ca52767130f84693fbc6760f1aadba05d79f56a346312347f66d67ae5ef6db16",
    "loss_stage2.csv":
        "1dfcc981e9d3336e5765cd75db2bcb8d74479e9cdefe6316269a96f68c667eed",
    "restored.ppm":
        "4d493b869d2aa6d08212e94ad4ffd9d8ad8c9ab6fd9445e33fb2c8029f210c18",
    "longrange.ppm":
        "7dcda26341a049244fb693b6fc971f0d0c2b39b8914b499b3c3d749dfe3f7a61",
    "local.ppm":
        "5da83cf37a06a3407f6c2d0d9fa3200e41098effc2125683f17866b923765d88",
    "output.ppm":
        "5e90d3553e8161c0a01ad1e353b74142a395408700902cb20c11ff5c7a0f0ee9",
}


def test_golden_bytes(trained, tmp_path):
    """Training, restore and decompose keep their bytes: a change that moves
    any of them must say why and re-pin GOLDEN."""
    root, cfg_path, _, stage2 = trained
    lq = str(tmp_path / "lq.ppm")
    write_ppm(lq, np.random.default_rng(5).random((3, 45, 61)))
    restored = str(tmp_path / "restored.ppm")
    assert main(["restore", "--checkpoint", stage2, "--config", cfg_path,
                 "--in", lq, "--out", restored]) == 0
    assert main(["decompose", "--checkpoint", stage2, "--config", cfg_path,
                 "--in", lq, "--outdir", str(tmp_path)]) == 0

    def digest(name):
        folder = tmp_path if name.endswith(".ppm") else root / "run"
        return hashlib.sha256((folder / name).read_bytes()).hexdigest()

    got = {name: digest(name) for name in GOLDEN}
    moved = {name: got[name] for name in GOLDEN if got[name] != GOLDEN[name]}
    if moved:
        blas = io.StringIO()
        with contextlib.redirect_stdout(blas):
            np.show_config()
        pytest.fail(
            f"bytes moved: {moved}\nOPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS')}\n{blas.getvalue()}\n"
            "On another BLAS build or CPU the kernels may round differently. "
            "If the bytes moved on purpose, state why and by how much, then "
            "re-pin GOLDEN with the digests above.")


PAPER_RESTORE = """
import hashlib, json, os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"   # the bytes depend on it
import contextlib, io
import numpy as np
from modem.cli import main
from modem.config import RunConfig
from modem.fileio import write_ppm
from modem.model import save_checkpoint
from modem.train import build_model

out = sys.argv[1]
ckpt, cfg, lq = (os.path.join(out, n) for n in ("s2.ckpt", "cfg.json", "lq.ppm"))
state = {k: p.data for k, p in build_model(RunConfig(), 2).parameters().items()}
w = "backbone.out_conv.weight"   # off its zero init: not the identity map
state[w] = np.random.default_rng(1).normal(scale=0.05, size=state[w].shape)
save_checkpoint(ckpt, state, 2)
with open(cfg, "w") as f:
    f.write("{}")
write_ppm(lq, np.random.default_rng(2).random((3, 64, 64)))
log = io.StringIO()
with contextlib.redirect_stdout(log):
    codes = [main(["restore", "--checkpoint", ckpt, "--config", cfg, "--in", lq,
                   "--out", os.path.join(out, "restored.ppm")]),
             main(["decompose", "--checkpoint", ckpt, "--config", cfg,
                   "--in", lq, "--outdir", out])]
names = ("s2.ckpt", "lq.ppm", "restored.ppm", "longrange.ppm", "local.ppm",
         "output.ppm")
print(json.dumps({"codes": codes, "log": log.getvalue().splitlines()[-1],
                  **{n: hashlib.sha256(open(os.path.join(out, n), "rb").read())
                     .hexdigest() for n in names}}))
"""


def test_paper_default_restore_golden_bytes(tmp_path):
    """A 64x64 restore and decompose at the paper-default widths keep their
    bytes at one BLAS thread; a change that moves them must say why and
    re-pin the digests."""
    assert run_script(PAPER_RESTORE, str(tmp_path)) == {
        "codes": [0, 0],
        "log": "identity_deviation: 0.000e+00",
        "s2.ckpt":
            "7479b5651503251f4f115ea14e338acabc1abed734fa88de6314ca87b41cb2bb",
        "lq.ppm":
            "3c2ae424cd16da3df87fdc87ff7dd7d28bc4aec3bae4aba93cd1a1cfe628a1f3",
        "restored.ppm":
            "000e3b00d30dc573263a1905b532afde44dbf571438f5adb8dd47b9cc41da0c0",
        "longrange.ppm":
            "3a2ef1da4970f6d7e3085e9aa1c18c9fa0f13990d5a1d7815af87efe5b26e8d6",
        "local.ppm":
            "b10016f929ca4c239eab83256139695e0493d33712f01965812e851cfc09cf1d",
        "output.ppm":
            "c06a50e62c15b7834cb43035264de079d39bca9dc905fe22bd1307dbfcfdf5b5"}


def make_ppm_pair(tmp_path, patch=32):
    clean = make_clean_image(21, patch, patch)
    s = synth_degrade(clean, "haze", 0.5, seed=33)
    lq = str(tmp_path / "lq.ppm")
    gt = str(tmp_path / "gt.ppm")
    write_ppm(lq, s.degraded)
    write_ppm(gt, s.clean)
    return lq, gt


class TestRestore:
    def test_restores_and_reports(self, trained, tmp_path, capsys):
        _, cfg_path, _, stage2 = trained
        lq, gt = make_ppm_pair(tmp_path)
        out = str(tmp_path / "restored.ppm")
        assert main(["restore", "--checkpoint", stage2, "--config", cfg_path,
                     "--in", lq, "--out", out, "--ref", gt]) == 0
        text = capsys.readouterr().out
        assert "psnr_out:" in text
        restored = read_ppm(out)
        assert restored.shape == read_ppm(lq).shape

    def test_dimensions_follow_input(self, trained, tmp_path):
        _, cfg_path, _, stage2 = trained
        clean = make_clean_image(8, 20, 28)  # not a multiple of 4
        s = synth_degrade(clean, "haze", 0.5, seed=3)
        lq = str(tmp_path / "odd.ppm")
        write_ppm(lq, s.degraded)
        out = str(tmp_path / "odd_out.ppm")
        assert main(["restore", "--checkpoint", stage2, "--config", cfg_path,
                     "--in", lq, "--out", out]) == 0
        assert read_ppm(out).shape == (3, 20, 28)

    def test_stage1_checkpoint_needs_ref(self, trained, tmp_path):
        _, cfg_path, stage1, _ = trained
        lq, gt = make_ppm_pair(tmp_path)
        out = str(tmp_path / "r.ppm")
        assert main(["restore", "--checkpoint", stage1, "--config", cfg_path,
                     "--in", lq, "--out", out]) == 2
        assert main(["restore", "--checkpoint", stage1, "--config", cfg_path,
                     "--in", lq, "--out", out, "--ref", gt]) == 0

    def test_ref_of_another_size_usage_error(self, trained, tmp_path,
                                             capsys):
        _, cfg_path, stage1, stage2 = trained
        lq, _ = make_ppm_pair(tmp_path, patch=16)
        small = str(tmp_path / "small.ppm")
        write_ppm(small, np.full((3, 5, 7), 0.5))
        out = str(tmp_path / "r.ppm")
        for ckpt in (stage1, stage2):
            assert main(["restore", "--checkpoint", ckpt, "--config",
                         cfg_path, "--in", lq, "--out", out,
                         "--ref", small]) == 2
            assert "same size" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_small_image_omits_ssim(self, trained, tmp_path, capsys):
        _, cfg_path, stage1, _ = trained
        small = str(tmp_path / "small.ppm")
        write_ppm(small, np.full((3, 5, 7), 0.5))
        out = str(tmp_path / "r.ppm")
        assert main(["restore", "--checkpoint", stage1, "--config", cfg_path,
                     "--in", small, "--out", out, "--ref", small]) == 0
        text = capsys.readouterr().out
        assert "psnr_out:" in text and "ssim_out:" not in text
        assert read_ppm(out).shape == (3, 5, 7)

    def test_same_bytes_as_drawn_model_then_load_state(self, trained,
                                                       tmp_path):
        # the restore builds its model straight from the checkpoint; the
        # output equals that of a randomly initialised model overwritten
        # with copies of the checkpoint's weights
        from modem.config import load_config
        from modem.model import load_checkpoint
        from modem.tensor import Tensor, no_grad
        from modem.train import build_model
        _, cfg_path, _, stage2 = trained
        lq, _ = make_ppm_pair(tmp_path)
        out = str(tmp_path / "restored.ppm")
        assert main(["restore", "--checkpoint", stage2, "--config", cfg_path,
                     "--in", lq, "--out", out]) == 0
        tensors, stage = load_checkpoint(stage2)
        model = build_model(load_config(cfg_path), stage=stage)
        model.load_state({k: v.copy() for k, v in tensors.items()})
        with no_grad():
            restored, _ = model(Tensor(read_ppm(lq)), Tensor(read_ppm(lq)))
        want = str(tmp_path / "want.ppm")
        write_ppm(want, np.clip(restored.data, 0.0, 1.0))
        assert open(out, "rb").read() == open(want, "rb").read()

    @pytest.mark.parametrize("damage", ["stage", "nan", "huge"])
    def test_malformed_checkpoint_usage_error(self, trained, tmp_path,
                                              damage, capsys):
        import struct
        _, cfg_path, _, stage2 = trained
        blob = bytearray(open(stage2, "rb").read())
        if damage == "stage":
            blob[12] = 7
        elif damage == "nan":
            blob[-8:] = struct.pack("<d", float("nan"))
        else:   # first tensor: rank after magic, header and name
            name_len = struct.unpack_from("<H", blob, 13)[0]
            rank_at = 15 + name_len
            struct.pack_into("<Q", blob, rank_at + 1, 2 ** 40)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        lq, _ = make_ppm_pair(tmp_path)
        out = str(tmp_path / "o.ppm")
        assert main(["restore", "--checkpoint", str(bad), "--config",
                     cfg_path, "--in", lq, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_checkpoint_usage_error(self, trained, tmp_path):
        _, cfg_path, _, _ = trained
        lq, _ = make_ppm_pair(tmp_path)
        assert main(["restore", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--config", cfg_path, "--in", lq,
                     "--out", str(tmp_path / "o.ppm")]) == 2


class TestDecompose:
    def test_writes_three_maps(self, trained, tmp_path, capsys):
        _, cfg_path, _, stage2 = trained
        lq, _ = make_ppm_pair(tmp_path)
        outdir = str(tmp_path / "maps")
        assert main(["decompose", "--checkpoint", stage2, "--config",
                     cfg_path, "--in", lq, "--outdir", outdir]) == 0
        for name in ("longrange.ppm", "local.ppm", "output.ppm"):
            assert os.path.exists(os.path.join(outdir, name))
        text = capsys.readouterr().out
        assert "identity_deviation: 0.000e+00" in text

    def test_input_larger_than_a_band(self, trained, tmp_path, capsys):
        # 66 x 66 pixels are more than one band (tensor.STREAM_TOKENS = 4096)
        _, cfg_path, _, stage2 = trained
        lq, _ = make_ppm_pair(tmp_path, patch=66)
        outdir = str(tmp_path / "maps")
        assert main(["decompose", "--checkpoint", stage2, "--config",
                     cfg_path, "--in", lq, "--outdir", outdir]) == 0
        for name in ("longrange.ppm", "local.ppm", "output.ppm"):
            assert read_ppm(os.path.join(outdir, name)).shape == (3, 66, 66)
        text = capsys.readouterr().out
        assert "identity_deviation: 0.000e+00" in text


    def test_maps_are_input_sized(self, trained, tmp_path, capsys):
        # 45 x 61 is reflect-padded to a multiple of 2^(levels-1) inside
        # the backbone; the maps are cropped back to the input, as restore's
        # output is
        _, cfg_path, _, stage2 = trained
        lq = str(tmp_path / "lq.ppm")
        write_ppm(lq, make_clean_image(21, 45, 61))
        outdir = str(tmp_path / "maps")
        assert main(["decompose", "--checkpoint", stage2, "--config",
                     cfg_path, "--in", lq, "--outdir", outdir]) == 0
        for name in ("longrange.ppm", "local.ppm", "output.ppm"):
            assert read_ppm(os.path.join(outdir, name)).shape == (3, 45, 61)
        assert "identity_deviation: 0.000e+00" in capsys.readouterr().out


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error (exit 2) with
    one `error:` line, found before the config, checkpoint or model is
    loaded."""

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []

        def track(orig):
            def wrapper(*args, **kwargs):
                calls.append(orig.__name__)
                return orig(*args, **kwargs)
            return wrapper

        for name in ("load_config", "load_checkpoint", "build_model"):
            monkeypatch.setattr(cli, name, track(getattr(cli, name)))
        return calls

    @pytest.mark.parametrize("command, flag, target", [
        ("restore", "--out", "taken"),
        ("restore", "--out", "plain/o.ppm"),
        ("decompose", "--outdir", "plain"),
    ], ids=["restore-out-is-directory", "restore-out-under-file",
            "decompose-outdir-is-file"])
    def test_usage_error_before_loading(self, trained, tmp_path, capsys, loads,
                                        command, flag, target):
        _, cfg_path, _, stage2 = trained
        lq, _ = make_ppm_pair(tmp_path)
        (tmp_path / "taken").mkdir()
        (tmp_path / "plain").write_text("x")
        assert main([command, "--checkpoint", stage2, "--config", cfg_path,
                     "--in", lq, flag, str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert loads == []

    def test_failed_final_write_is_usage_error(self, trained, tmp_path,
                                               capsys, monkeypatch):
        _, cfg_path, _, stage2 = trained
        lq, _ = make_ppm_pair(tmp_path)

        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_ppm", full_disk)
        assert main(["restore", "--checkpoint", stage2, "--config", cfg_path,
                     "--in", lq, "--out", str(tmp_path / "o.ppm")]) == 2
        assert "error: [Errno 28] No space left" in capsys.readouterr().err


class TestParams:
    def test_counts_and_reference_delta(self, trained, capsys):
        _, cfg_path, _, _ = trained
        assert main(["params", "--config", cfg_path]) == 0
        text = capsys.readouterr().out
        assert "ddem:" in text and "backbone:" in text
        assert "delta_vs_reference:" in text

    def test_paper_default_counts(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {})
        assert main(["params", "--config", cfg_path]) == 0
        text = capsys.readouterr().out
        assert "ddem: 717344\n" in text
        assert "backbone: 24211332\n" in text
        assert "total: 24928676\n" in text
        assert "delta_vs_reference: +4968676\n" in text

    def test_unknown_scan_kind_usage_error(self, tmp_path, capsys):
        payload = toy_run_config(str(tmp_path / "run"))
        payload["backbone"]["scan_kind"] = "zigzag"
        assert main(["params", "--config", write_cfg(tmp_path, payload)]) == 2
        assert "backbone.scan_kind" in capsys.readouterr().err

    def test_count_invariant_to_seed(self, trained, tmp_path, capsys,
                                     monkeypatch):
        _, cfg_path, _, _ = trained
        main(["params", "--config", cfg_path])
        first = capsys.readouterr().out
        monkeypatch.setenv("MODEM_SEED", "99")
        main(["params", "--config", cfg_path])
        second = capsys.readouterr().out
        assert first == second


class TestPPM:
    def test_roundtrip_8bit_exact(self, tmp_path, rng):
        img = np.round(rng.uniform(size=(3, 9, 7)) * 255) / 255
        path = str(tmp_path / "img.ppm")
        write_ppm(path, img)
        np.testing.assert_allclose(read_ppm(path), img, atol=1e-12)

    def test_rejects_non_p6(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        from modem.fileio import PPMFormatError
        with pytest.raises(PPMFormatError):
            read_ppm(str(path))

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        from modem.fileio import PPMFormatError
        with pytest.raises(PPMFormatError):
            read_ppm(str(path))

    @pytest.mark.parametrize("header", [b"P6\n100000000 100000000\n255\n",
                                        b"P6\n0 4\n255\n",
                                        b"P6\n4 0\n255\n",
                                        b"P6\n-4 4\n255\n",
                                        b"P6\n4 x\n255\n"])
    def test_rejects_impossible_sizes(self, tmp_path, header):
        path = tmp_path / "bad.ppm"
        path.write_bytes(header + b"\x00" * 48)
        from modem.fileio import PPMFormatError
        with pytest.raises(PPMFormatError):
            read_ppm(str(path))

    def test_restore_of_huge_header_usage_error(self, trained, tmp_path):
        _, cfg_path, _, stage2 = trained
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6\n100000000 100000000\n255\n" + b"\x00" * 48)
        assert main(["restore", "--checkpoint", stage2, "--config", cfg_path,
                     "--in", str(path), "--out", str(tmp_path / "o.ppm")]) == 2
