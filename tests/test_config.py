"""Strict JSON run configuration."""

import json

import pytest

from modem.config import (ConfigError, DataConfig, RunConfig,
                          config_from_dict, load_config)
from conftest import toy_run_config


def write_cfg(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestStrictParsing:
    def test_full_toy_config_parses(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, toy_run_config("out")))
        assert isinstance(cfg, RunConfig)
        assert cfg.data.patch == 32
        assert cfg.backbone.base_channels == 8

    def test_unknown_top_level_key_rejected(self, tmp_path):
        payload = toy_run_config("out")
        payload["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(write_cfg(tmp_path, payload))

    def test_unknown_nested_key_rejected(self, tmp_path):
        payload = toy_run_config("out")
        payload["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match=r"train: unknown keys.*momentum"):
            load_config(write_cfg(tmp_path, payload))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_stage_rejected(self):
        payload = toy_run_config("out")
        payload["train"]["stage"] = 3
        with pytest.raises(ConfigError):
            config_from_dict(payload)

    def test_patch_below_ssim_window_rejected(self):
        payload = toy_run_config("out")
        payload["data"]["patch"] = 10
        with pytest.raises(ConfigError, match=r"data\.patch"):
            config_from_dict(payload)
        payload["data"]["patch"] = 11
        assert config_from_dict(payload).data.patch == 11

    def test_defaults_fill_missing_sections(self):
        cfg = config_from_dict({"seed": 4})
        assert cfg.seed == 4
        assert cfg.data == DataConfig()

    def test_list_fields_become_tuples(self):
        cfg = config_from_dict(toy_run_config("out"))
        assert cfg.train.periods == (10,)
        assert cfg.data.kinds == ("haze",)


class TestTypes:
    @pytest.mark.parametrize("section, key, value, path", [
        ("train", "iterations", "2", r"train\.iterations"),
        ("train", "iterations", 2.0, r"train\.iterations"),
        ("train", "iterations", True, r"train\.iterations"),
        ("train", "base_lr", "3e-4", r"train\.base_lr"),
        ("train", "freeze_backbone", 1, r"train\.freeze_backbone"),
        ("train", "periods", 10, r"train\.periods"),
        ("train", "periods", [10, "5"], r"train\.periods\[1\]"),
        ("train", "betas", [0.9], r"train\.betas"),
        ("data", "severity", [0.4, 0.5, 0.6], r"data\.severity"),
        ("data", "kinds", ["haze", "fog"], r"data\.kinds"),
        ("ddem", "scan_kind", "zigzag", r"ddem\.scan_kind"),
        ("backbone", "scan_kind", "zigzag", r"backbone\.scan_kind"),
        ("backbone", "group_depths", [1, 1], r"backbone"),
        ("backbone", "base_channels", None, r"backbone\.base_channels"),
    ])
    def test_wrong_type_or_value_names_the_key(self, section, key, value,
                                               path):
        payload = toy_run_config("out")
        payload[section][key] = value
        with pytest.raises(ConfigError, match=path):
            config_from_dict(payload)

    @pytest.mark.parametrize("section, key, value, path", [
        ("train", "batch_size", 0, r"train\.batch_size"),
        ("train", "iterations", 0, r"train\.iterations"),
        ("train", "iterations", -3, r"train\.iterations"),
        ("train", "log_every", 0, r"train\.log_every"),
        ("train", "betas", [1.0, 0.999], r"train\.betas\[0\]"),
        ("train", "betas", [0.9, 1], r"train\.betas\[1\]"),
        ("train", "betas", [-0.1, 0.999], r"train\.betas\[0\]"),
        ("data", "n_heldout", 0, r"data\.n_heldout"),
        ("data", "n_train", 0, r"data\.n_train"),
    ])
    def test_setting_that_breaks_a_run_names_the_key(self, section, key,
                                                     value, path):
        payload = toy_run_config("out")
        payload[section][key] = value
        with pytest.raises(ConfigError, match=path):
            config_from_dict(payload)

    def test_smallest_working_settings_accepted(self):
        payload = toy_run_config("out")
        payload["train"].update(batch_size=1, iterations=1, log_every=1,
                                betas=[0, 0.5])
        payload["data"].update(n_train=1, n_heldout=1)
        cfg = config_from_dict(payload)
        assert cfg.train.betas == (0, 0.5) and cfg.data.n_train == 1

    def test_wrong_top_level_types(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": "3"})
        with pytest.raises(ConfigError, match="output_dir"):
            config_from_dict({"output_dir": 5})
        with pytest.raises(ConfigError, match="train"):
            config_from_dict({"train": [1]})

    def test_int_accepted_where_a_float_is_expected(self):
        payload = toy_run_config("out")
        payload["train"]["base_lr"] = 1
        payload["data"]["severity"] = [0, 1]
        cfg = config_from_dict(payload)
        assert cfg.train.base_lr == 1 and cfg.data.severity == (0, 1)

    def test_every_scan_kind_accepted(self):
        from modem.scan_orders import SCAN_KINDS
        for kind in SCAN_KINDS:
            payload = toy_run_config("out")
            payload["backbone"]["scan_kind"] = kind
            assert config_from_dict(payload).backbone.scan_kind == kind


class TestSeedOverride:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, toy_run_config("out", seed=1))
        monkeypatch.setenv("MODEM_SEED", "42")
        assert load_config(path).seed == 42

    def test_no_env_keeps_config_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MODEM_SEED", raising=False)
        path = write_cfg(tmp_path, toy_run_config("out", seed=7))
        assert load_config(path).seed == 7

    def test_non_integer_env_seed_rejected(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, toy_run_config("out"))
        monkeypatch.setenv("MODEM_SEED", "abc")
        with pytest.raises(ConfigError, match="MODEM_SEED"):
            load_config(path)

    def test_negative_seed_rejected(self, tmp_path, monkeypatch):
        # numpy's generator takes no negative seed: it is a usage error
        # that names the key, not a ValueError from deep in a run
        monkeypatch.delenv("MODEM_SEED", raising=False)
        with pytest.raises(ConfigError, match="seed: -3 is negative"):
            load_config(write_cfg(tmp_path, toy_run_config("out", seed=-3)))
        with pytest.raises(ConfigError, match="seed: -1 is negative"):
            config_from_dict({"seed": -1})
        monkeypatch.setenv("MODEM_SEED", "-2")
        with pytest.raises(ConfigError, match="MODEM_SEED: -2 is negative"):
            load_config(write_cfg(tmp_path, toy_run_config("out")))
        monkeypatch.setenv("MODEM_SEED", "0")
        assert load_config(write_cfg(tmp_path, toy_run_config("out"))).seed == 0
