"""JSON run configuration with strict (unknown-key-rejecting) parsing."""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass

from .data import DEGRADATION_KINDS
from .metrics import SSIM_WINDOW
from .model import BackboneConfig, DDEMConfig
from .scan_orders import SCAN_KINDS


class ConfigError(ValueError):
    pass


def _at_least_one(section, path: str, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(section, name)
        if value < 1:
            raise ConfigError(f"{path}.{name}: {value} is below 1")


@dataclass(frozen=True)
class DataConfig:
    n_train: int = 8
    n_heldout: int = 4
    patch: int = 64
    kinds: tuple[str, ...] = ("streaks", "haze")
    severity: tuple[float, float] = (0.3, 0.6)

    def __post_init__(self):
        _at_least_one(self, "data", ("n_train", "n_heldout"))
        if self.patch < SSIM_WINDOW:
            raise ConfigError(f"data.patch: {self.patch} is below {SSIM_WINDOW}, "
                              "the SSIM window held-out patches are scored with")


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
            raise ConfigError(f"train.stage: {self.stage} is not 1 or 2")
        _at_least_one(self, "train", ("iterations", "batch_size", "log_every"))
        for i, b in enumerate(self.betas):
            # a beta of 1 zeroes AdamW's bias correction: every weight NaN
            if not 0.0 <= b < 1.0:
                raise ConfigError(f"train.betas[{i}]: {b} is not in [0, 1)")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/out"
    data: DataConfig = dataclasses.field(default_factory=DataConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    ddem: DDEMConfig = dataclasses.field(default_factory=DDEMConfig)
    backbone: BackboneConfig = dataclasses.field(default_factory=BackboneConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} is negative")


# fields whose values come from a fixed set
_CHOICES = {"scan_kind": SCAN_KINDS, "kinds": DEGRADATION_KINDS}


def _typed(value, tp, path: str):
    """`value` checked against the field annotation `tp` (int, float, bool,
    str, a config dataclass or a tuple of these, given as a JSON list)."""
    if dataclasses.is_dataclass(tp):
        return _from_dict(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, "
                              f"got {len(value)}")
        return tuple(_typed(v, t, f"{path}[{i}]")
                     for i, (v, t) in enumerate(zip(value, args)))
    # bool is an int in Python but not a number here; an int is a float
    ok = (float, int) if tp is float else tp
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, ok):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    return value


def _from_dict(cls, payload: dict, path: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    hints = typing.get_type_hints(cls)
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {unknown}")
    kwargs = {}
    for name, value in payload.items():
        sub = f"{path}.{name}" if path else name
        typed = kwargs[name] = _typed(value, hints[name], sub)
        if name in _CHOICES:
            given = typed if isinstance(typed, tuple) else (typed,)
            if not set(given) <= set(_CHOICES[name]):
                raise ConfigError(f"{sub}: {value!r} is not one of "
                                  f"{list(_CHOICES[name])}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def env_seed(default: int) -> int:
    """MODEM_SEED when set, else `default`."""
    raw = os.environ.get("MODEM_SEED")
    if raw is None:
        return default
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"MODEM_SEED: {raw!r} is not an integer") from None
    if seed < 0:
        raise ConfigError(f"MODEM_SEED: {seed} is negative")
    return seed


def load_config(path: str) -> RunConfig:
    with open(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    cfg = _from_dict(RunConfig, payload, "")
    return dataclasses.replace(cfg, seed=env_seed(cfg.seed))


def config_from_dict(payload: dict) -> RunConfig:
    return _from_dict(RunConfig, payload, "")
