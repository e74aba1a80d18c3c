"""The estimation network, the U-shaped restoration backbone, and
checkpoint serialization."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import ops
from .blocks import (DSAM, MDSL, DAFMAdapter, DegradationPriors,
                     LevelConditioning, MOS2DConfig)
from .fileio import atomic_write_bytes
from .nn import Conv2d, Linear, Module
from .tensor import ContractError, Tensor


@dataclass(frozen=True)
class DDEMConfig:
    in_channels: int = 6          # 6 with ground truth attached, else 3
    channels: int = 96
    num_groups: int = 2
    mdsl_per_group: int = 2
    c_d: int = 96
    c_d1: int = 48
    c_d2: int = 48
    d_state: int = 8
    dt_rank: int = 0
    scan_kind: str = "morton"


@dataclass(frozen=True)
class BackboneConfig:
    base_channels: int = 36
    group_depths: tuple[int, ...] = (4, 4, 6, 8, 6, 4, 4)
    refinement_depth: int = 4
    c_d: int = 96
    c_d1: int = 48
    c_d2: int = 48
    d_state: int = 8
    dt_rank: int = 0
    scan_kind: str = "morton"
    bidirectional: bool = False

    def __post_init__(self):
        if len(self.group_depths) % 2 == 0:
            raise ValueError("group_depths must have odd length (enc+bottleneck+dec)")

    @property
    def levels(self) -> int:
        return (len(self.group_depths) + 1) // 2


class DDEM(Module):
    """Estimates degradation priors from an image (optionally paired with
    its ground truth along the channel axis)."""

    def __init__(self, cfg: DDEMConfig, rng: np.random.Generator):
        self.cfg = cfg
        ch = cfg.channels
        block_cfg = MOS2DConfig(
            channels=ch, d_state=cfg.d_state, dt_rank=cfg.dt_rank,
            scan_kind=cfg.scan_kind, conditioned=False,
        )
        self.stem = Conv2d(cfg.in_channels, ch, 3, rng)
        self.groups = [
            [MDSL(block_cfg, rng) for _ in range(cfg.mdsl_per_group)]
            for _ in range(cfg.num_groups)
        ]
        self.mlp1 = Linear(ch, 4 * cfg.c_d, rng)
        self.mlp2 = Linear(4 * cfg.c_d, 4 * cfg.c_d, rng)
        self.z0_proj = Linear(4 * cfg.c_d, cfg.c_d, rng)
        self.kernel_proj1 = Conv2d(ch, cfg.c_d1, 1, rng)
        self.kernel_proj2 = Conv2d(ch, cfg.c_d2, 1, rng)

    def forward(self, image: Tensor) -> DegradationPriors:
        if image.shape[0] != self.cfg.in_channels:
            raise ContractError(
                f"expected {self.cfg.in_channels} input channels, got {image.shape[0]}"
            )
        feat = self.stem(image)
        for group in self.groups:
            res = feat
            for layer in group:
                feat = layer(feat)
            feat = feat + res
        z_tilde = self.mlp2(self.mlp1(ops.global_avg_pool(feat)).silu())
        z0 = self.z0_proj(z_tilde).silu()
        _, H, W = feat.shape
        p1 = self.kernel_proj1(feat).reshape(self.cfg.c_d1, H * W)
        p2 = self.kernel_proj2(feat).reshape(self.cfg.c_d2, H * W)
        z1 = (p1 @ p2.T) * (1.0 / (H * W))
        return DegradationPriors(z_tilde=z_tilde, z0=z0, z1=z1)


class Backbone(Module):
    """3-channel restoration U-net of conditioned MDSL groups with a global
    input residual."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        self.cfg = cfg
        lv = cfg.levels
        chans = [cfg.base_channels * (1 << i) for i in range(lv)]

        def block_cfg(c: int) -> MOS2DConfig:
            return MOS2DConfig(
                channels=c, d_state=cfg.d_state, dt_rank=cfg.dt_rank,
                scan_kind=cfg.scan_kind, conditioned=True,
                bidirectional=cfg.bidirectional,
            )

        # one prior adapter pair per level: Z0 -> (scale, bias) and the
        # shared attention projection from Z1, reused by every MDSL there
        self.dafm_adapters = []
        self.dsam_mods = []
        for i in range(lv):
            bc = block_cfg(chans[i])
            self.dafm_adapters.append(DAFMAdapter(cfg.c_d, chans[i]))
            self.dsam_mods.append(
                DSAM(chans[i], bc.d_attn, cfg.c_d1, cfg.c_d2, rng))

        self.embed = Conv2d(3, chans[0], 3, rng)
        self.enc_groups = [
            [MDSL(block_cfg(chans[i]), rng) for _ in range(cfg.group_depths[i])]
            for i in range(lv - 1)
        ]
        self.down = [
            Conv2d(4 * chans[i], chans[i + 1], 1, rng) for i in range(lv - 1)
        ]
        self.bottleneck = [
            MDSL(block_cfg(chans[-1]), rng)
            for _ in range(cfg.group_depths[lv - 1])
        ]
        self.up = [
            Conv2d(chans[i + 1], 4 * chans[i], 1, rng) for i in range(lv - 1)
        ]
        self.fuse = [
            Conv2d(2 * chans[i], chans[i], 1, rng) for i in range(lv - 1)
        ]
        self.dec_groups = [
            [MDSL(block_cfg(chans[i]), rng)
             for _ in range(cfg.group_depths[2 * lv - 2 - i])]
            for i in range(lv - 1)
        ]
        self.refine = [
            MDSL(block_cfg(chans[0]), rng) for _ in range(cfg.refinement_depth)
        ]
        # Zero output conv (rng None draws nothing): the network is the
        # identity map at initialization.
        self.out_conv = Conv2d(chans[0], 3, 3, None)

    def forward(self, image: Tensor, priors: DegradationPriors) -> Tensor:
        if priors is None:
            raise ContractError("backbone requires degradation priors")
        _, H, W = image.shape
        mult = 1 << (self.cfg.levels - 1)
        pad_h = (-H) % mult
        pad_w = (-W) % mult
        x = image.reflect_pad2d(pad_h, pad_w)
        residual = x

        cond = [
            LevelConditioning.from_priors(self.dafm_adapters[i],
                                          self.dsam_mods[i], priors)
            for i in range(self.cfg.levels)
        ]
        feat = self.embed(x)
        skips = []
        for i, group in enumerate(self.enc_groups):
            for layer in group:
                feat = layer(feat, cond[i])
            skips.append(feat)
            feat = self.down[i](ops.pixel_unshuffle(feat, 2))
        for layer in self.bottleneck:
            feat = layer(feat, cond[-1])
        for i in range(len(self.dec_groups) - 1, -1, -1):
            feat = ops.pixel_shuffle(self.up[i](feat), 2)
            feat = self.fuse[i](Tensor.concat([feat, skips[i]], axis=0))
            for layer in self.dec_groups[i]:
                feat = layer(feat, cond[i])
        for layer in self.refine:
            feat = layer(feat, cond[0])
        out = self.out_conv(feat) + residual
        if pad_h or pad_w:
            out = out.slice_axis(1, 0, H).slice_axis(2, 0, W)
        return out


class RestorationModel(Module):
    """DDEM + backbone pair trained together."""

    def __init__(self, ddem_cfg: DDEMConfig, backbone_cfg: BackboneConfig,
                 seed: int | None = 0):
        # seed None draws no random numbers: the weights start at zero, for
        # a model whose weights are loaded next or only counted
        rng = None if seed is None else np.random.default_rng(seed)
        self.ddem = DDEM(ddem_cfg, rng)
        self.backbone = Backbone(backbone_cfg, rng)
        self.ddem_cfg = ddem_cfg
        self.backbone_cfg = backbone_cfg

    def forward(self, lq: Tensor, ddem_input: Tensor) -> tuple[Tensor, DegradationPriors]:
        priors = self.ddem(ddem_input)
        return self.backbone(lq, priors), priors


# -- checkpoint format ---------------------------------------------------------
# little-endian; header: magic "MODM", u32 version, u32 tensor count,
# u8 stage tag; per tensor: u16 name length, UTF-8 name, u8 rank,
# u64 dims, raw f64 data.

MAGIC = b"MODM"
VERSION = 1


class CheckpointFormatError(ValueError):
    pass


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], stage: int) -> None:
    """Atomic write (temp + rename, creating the directory); load(save(x))
    is bit-exact, shapes included.

    Each array goes into the payload through its buffer, so the payload is
    the only copy of the data made (0-d arrays stay 0-d)."""
    parts = [MAGIC, struct.pack("<II B", VERSION, len(tensors), stage)]
    for name, arr in tensors.items():
        data = np.require(arr, "<f8", "C")
        raw_name = name.encode("utf-8")
        parts += [struct.pack("<H", len(raw_name)), raw_name,
                  struct.pack("<B", data.ndim),
                  struct.pack(f"<{data.ndim}Q", *data.shape), data]
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Read a checkpoint: (name -> float64 array, stage tag).

    Header fields are read in small pieces, each declared size is checked
    against the bytes left in the file before anything is allocated, and
    each tensor's bytes go from the file into its own array with one
    `readinto`. The arrays are new and the caller's to keep. A malformed
    file (truncated, trailing bytes, stage tag not 1 or 2, duplicate or
    non-UTF-8 name, non-finite value) raises CheckpointFormatError.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int) -> bytes:
            chunk = f.read(n)
            if len(chunk) != n:
                raise CheckpointFormatError("truncated checkpoint file")
            return chunk

        if read(4) != MAGIC:
            raise CheckpointFormatError("bad magic; not a checkpoint file")
        version, count, stage = struct.unpack("<II B", read(9))
        if version != VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        if stage not in (1, 2):
            raise CheckpointFormatError(f"stage tag {stage} is not 1 or 2")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointFormatError("tensor name is not UTF-8") from None
            if name in tensors:
                raise CheckpointFormatError(f"duplicate tensor name {name!r}")
            (rank,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{rank}Q", read(8 * rank))
            n_bytes = 8 * math.prod(shape)
            left = size - f.tell()
            if n_bytes > left:
                raise CheckpointFormatError(
                    f"tensor {name!r} (rank {rank}) declares more data than "
                    f"the {left} bytes left in the file")
            data = np.empty(shape, dtype="<f8")
            if f.readinto(data.reshape(-1).view(np.uint8)) != n_bytes:
                raise CheckpointFormatError("truncated checkpoint file")
            if not np.isfinite(data).all():
                raise CheckpointFormatError(f"tensor {name!r} has non-finite values")
            tensors[name] = data if data.dtype.isnative else data.astype(np.float64)
        if f.read(1):
            raise CheckpointFormatError("trailing bytes after last tensor")
    return tensors, stage
