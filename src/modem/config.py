"""JSON run configuration with strict (unknown-key-rejecting) parsing."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from .metrics import SSIM_WINDOW
from .model import BackboneConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DataConfig:
    n_train: int = 8
    n_heldout: int = 4
    patch: int = 64
    kinds: tuple[str, ...] = ("streaks", "haze")
    severity: tuple[float, float] = (0.3, 0.6)

    def __post_init__(self):
        if self.patch < SSIM_WINDOW:
            raise ConfigError(f"data.patch: {self.patch} is below {SSIM_WINDOW}, "
                              "the SSIM window held-out patches are scored with")


@dataclass(frozen=True)
class DDEMOptions:
    channels: int = 96
    num_groups: int = 2
    mdsl_per_group: int = 2
    d_state: int = 8
    dt_rank: int = 0
    scan_kind: str = "morton"


@dataclass(frozen=True)
class TrainConfig:
    stage: int = 1
    iterations: int = 300
    batch_size: int = 2
    base_lr: float = 3e-4
    weight_decay: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    periods: tuple[int, ...] = (150, 150)
    restart_weights: tuple[float, ...] = (1.0, 1.0)
    eta_mins: tuple[float, ...] = (3e-5, 1e-6)
    freeze_backbone: bool = False
    log_every: int = 1

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ConfigError("stage must be 1 or 2")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/out"
    data: DataConfig = dataclasses.field(default_factory=DataConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    ddem: DDEMOptions = dataclasses.field(default_factory=DDEMOptions)
    backbone: BackboneConfig = dataclasses.field(default_factory=BackboneConfig)


_LIST_FIELDS = {"kinds", "severity", "betas", "periods", "restart_weights",
                "eta_mins", "group_depths"}


def _from_dict(cls, payload: dict, path: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(field_map))
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {unknown}")
    kwargs = {}
    for name, value in payload.items():
        sub = f"{path}.{name}" if path else name
        if name in ("data", "train", "ddem", "backbone"):
            target = {"data": DataConfig, "train": TrainConfig,
                      "ddem": DDEMOptions, "backbone": BackboneConfig}[name]
            kwargs[name] = _from_dict(target, value, sub)
        elif name in _LIST_FIELDS:
            if not isinstance(value, list):
                raise ConfigError(f"{sub}: expected a list")
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    with open(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    cfg = _from_dict(RunConfig, payload, "")
    env_seed = os.environ.get("MODEM_SEED")
    if env_seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(env_seed))
    return cfg


def config_from_dict(payload: dict) -> RunConfig:
    return _from_dict(RunConfig, payload, "")
