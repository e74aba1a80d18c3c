"""Atomic file writes and PPM (P6, 8-bit) image IO."""

from __future__ import annotations

import os
import stat
import tempfile
from collections.abc import Iterable

import numpy as np


def atomic_write(path: str, parts: Iterable) -> None:
    """Write the bytes-like `parts` (bytes, C-contiguous arrays), one after
    another, to a temp file in the target directory, then rename it over
    path. Each part goes to the file from its own buffer: no joined copy
    of the payload is made."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write(path, [text.encode("utf-8")])


class PPMFormatError(ValueError):
    pass


def write_ppm(path: str, image: np.ndarray) -> None:
    """Save a (3, H, W) float image in [0, 1] as binary PPM (P6, maxval 255)."""
    image = np.asarray(image, float)
    if image.ndim != 3 or image.shape[0] != 3:
        raise PPMFormatError(f"expected (3, H, W) image, got {image.shape}")
    _, H, W = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{W} {H}\n255\n".encode("ascii")
    body = pixels.transpose(1, 2, 0).tobytes()
    atomic_write(path, [header, body])


def _read_token(f) -> bytes:
    # skip whitespace and '#' comments between header tokens
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise PPMFormatError("unexpected end of PPM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_int(f, what: str) -> int:
    tok = _read_token(f)
    try:
        return int(tok)
    except ValueError:
        raise PPMFormatError(f"PPM {what} {tok!r} is not an integer") from None


def read_ppm(path: str) -> np.ndarray:
    """Load a binary PPM (P6, maxval 255) as a (3, H, W) float image in [0, 1]."""
    with open(path, "rb") as f:
        if f.read(2) != b"P6":
            raise PPMFormatError("not a P6 PPM file")
        W = _read_int(f, "width")
        H = _read_int(f, "height")
        maxval = _read_int(f, "maxval")
        if maxval != 255:
            raise PPMFormatError(f"unsupported maxval {maxval}; expected 255")
        if W <= 0 or H <= 0:
            raise PPMFormatError(f"PPM size {W}x{H} is not positive")
        size = 3 * H * W
        st = os.fstat(f.fileno())
        left = st.st_size - f.tell()
        if stat.S_ISREG(st.st_mode) and size > left:
            raise PPMFormatError(f"truncated PPM pixel data: {W}x{H} needs "
                                 f"{size} bytes, {left} left")
        body = f.read(size)
        if len(body) != size:
            raise PPMFormatError("truncated PPM pixel data")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(H, W, 3)
    return pixels.transpose(2, 0, 1).astype(float) / 255.0
