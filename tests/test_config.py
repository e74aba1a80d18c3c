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


class TestSeedOverride:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, toy_run_config("out", seed=1))
        monkeypatch.setenv("MODEM_SEED", "42")
        assert load_config(path).seed == 42

    def test_no_env_keeps_config_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MODEM_SEED", raising=False)
        path = write_cfg(tmp_path, toy_run_config("out", seed=7))
        assert load_config(path).seed == 7
