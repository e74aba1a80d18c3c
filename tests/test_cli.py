"""Command-line interface: every subcommand, exit codes, output files."""

import json
import os

import numpy as np
import pytest

from conftest import toy_run_config
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

    @pytest.mark.parametrize("argv", [
        ["--height", "0"], ["--width", "-3"], ["--window", "0", "--kinds",
                                              "local"],
        ["--repeats", "0"], ["--height", "2.5"]])
    def test_non_positive_size_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan-compare", "--height", "8", "--width", "8", *argv])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err

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
        assert out.count("PASS") == 9  # 8 blocks + detected negative control
        assert "FAIL" not in out


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

    def test_stage2_requires_from(self, tmp_path):
        payload = toy_run_config(str(tmp_path / "run"))
        assert main(["train", "--stage", "2",
                     "--config", write_cfg(tmp_path, payload)]) == 2

    def test_outputs_exist(self, trained):
        root, _, stage1, stage2 = trained
        assert os.path.exists(stage1)
        assert os.path.exists(stage2)
        assert os.path.exists(str(root / "run" / "loss_stage1.csv"))
        assert os.path.exists(str(root / "run" / "loss_stage2.csv"))


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
