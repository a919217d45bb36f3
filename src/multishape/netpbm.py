"""Reading and writing binary masks and overlays in netpbm formats.

Masks go to binary PGM (P5) with foreground 255 and background 0; the
reader also accepts ASCII PGM (P2) and treats any nonzero value as
foreground.  Color overlays go to binary PPM (P6).  Every file the package
writes, images and JSON or CSV documents alike, goes through
:func:`atomic_write`: a temporary file and an atomic rename.  Every JSON
document goes through :func:`write_json`, the one format that keeps reruns
byte identical.  Numbers read from outside documents go through
:func:`finite_number`.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import DatasetIOError


def atomic_write(path, data):
    """Replace ``path`` with ``data`` (bytes, or text encoded as ASCII)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_json(path, doc):
    """Write ``doc`` as JSON with sorted keys and a one-space indent."""
    atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def finite_number(kind, value):
    """``value`` as a finite number of type ``kind``, whole for an int.

    The one rule for numbers read from outside documents (configuration,
    ``scene.json``, model JSON); a value that breaks it raises ValueError.
    """
    try:
        number = kind(value)
        # a JSON true/false is no number, and a JSON 72.9 must not become 72
        if isinstance(value, bool) or not math.isfinite(number) or (
                isinstance(value, float) and number != value):
            raise ValueError(value)
    except OverflowError as exc:
        raise ValueError(value) from exc
    return number


def write_pgm(path, mask):
    """Write a boolean mask as binary PGM, foreground 255."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    atomic_write(path, header + (mask.astype(np.uint8) * 255).tobytes())


def _tokenize_header(data):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    while True:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield data[start:pos], pos


def read_pgm(path):
    """Read a P5 or P2 PGM file as a boolean mask (nonzero = foreground)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc
    tokens = _tokenize_header(data)
    try:
        magic, _ = next(tokens)
        if magic not in (b"P5", b"P2"):
            raise DatasetIOError(f"{path}: unsupported magic {magic!r}")
        # plain next() calls: a StopIteration raised inside a generator
        # expression would surface as RuntimeError
        (width, _), (height, _), (maxval, end) = (next(tokens),
                                                  next(tokens),
                                                  next(tokens))
        width, height, maxval = int(width), int(height), int(maxval)
    except (StopIteration, ValueError) as exc:
        raise DatasetIOError(f"{path}: malformed PGM header") from exc
    if width <= 0 or height <= 0:
        raise DatasetIOError(f"{path}: non-positive size {width}x{height}")
    if maxval <= 0 or maxval > 255:
        raise DatasetIOError(f"{path}: unsupported maxval {maxval}")
    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        raster = data[end + 1:end + 1 + count]
        if len(raster) < count:
            raise DatasetIOError(f"{path}: truncated raster")
        values = np.frombuffer(raster, dtype=np.uint8, count=count)
    else:
        fields = data[end:].split()
        if len(fields) < count:
            raise DatasetIOError(f"{path}: truncated raster")
        try:
            values = np.array([int(v) for v in fields[:count]],
                              dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DatasetIOError(f"{path}: malformed raster value") from exc
    return (values != 0).reshape(height, width)


def write_ppm(path, rgb):
    """Write an (height, width, 3) uint8 image as binary PPM."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    height, width, _ = rgb.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    atomic_write(path, header + rgb.tobytes())
