"""Binary model checkpoints: the parameter arena on disk as one block.

Layout (all integers little-endian):

* magic ``KGTC``
* u32 format version (2)
* u64 header length, then that many bytes of UTF-8 JSON with sorted keys:
  ``{"config": <model config>, "params": [[name, [dims]], ...]}``, where
  ``params`` lists the parameters in arena order, the order of
  ``parameter_shapes(config)``
* the parameter arena: every parameter's little-endian float32 data, end to
  end, in that order

Identical parameters always produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .graph import write_atomic
from .model import Model, ModelConfig, parameter_shapes
from .optim import _arena, parameter_arena

MAGIC = b"KGTC"
VERSION = 2


def save_checkpoint(model: Model, path: str | Path) -> None:
    data, _ = _arena(model.params)
    header = {"config": model.config.to_dict(), "params": [[name, list(t.shape)] for name, t in model.params.items()]}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    write_atomic(path, MAGIC + struct.pack("<IQ", VERSION, len(header_bytes)) + header_bytes, data.astype("<f4", copy=False))


def _read_exact(fh, n: int, path, what: str) -> bytes:
    # a corrupt length must not make read() allocate more than the file holds
    data = fh.read(min(n, os.fstat(fh.fileno()).st_size))
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated while reading {what}")
    return data


def _mismatch(stored: list[tuple], expected: dict[str, tuple[int, ...]]) -> str:
    """Why the header's parameter list is not ``expected``, in arena order."""
    names = [name for name, _ in stored]
    missing = sorted(set(expected) - set(names))
    extra = sorted(set(names) - set(expected))
    if missing or extra:
        return f"parameter set mismatch (missing {missing}, extra {extra})"
    for name, shape in stored:
        if shape != expected[name]:
            return f"tensor {name!r} has shape {shape}, config implies {expected[name]}"
    return "parameters are not listed once each in arena order"


def load_checkpoint(path: str | Path) -> Model:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "header length"))
        try:
            header = json.loads(_read_exact(fh, header_len, path, "header"))
            config = ModelConfig.from_dict(header["config"])
            stored = [(str(name), tuple(dims)) for name, dims in header["params"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad config block: {exc}") from None

        expected = parameter_shapes(config)
        if stored != list(expected.items()):
            raise CheckpointError(f"{path}: {_mismatch(stored, expected)}")
        # check the size before mapping an arena as large as the header claims
        declared = 4 * sum(math.prod(shape) for shape in expected.values())
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared > left:
            raise CheckpointError(f"{path}: truncated while reading the parameter arena")
        if declared < left:
            raise CheckpointError(f"{path}: trailing bytes after the parameter arena")
        params = parameter_arena(expected, "<f4")
        data, _ = _arena(params)
        if fh.readinto(data) != data.nbytes:
            raise CheckpointError(f"{path}: truncated while reading the parameter arena")
    if not np.isfinite(data).all():
        name = next(name for name, t in params.items() if not np.isfinite(t.data).all())
        raise CheckpointError(f"{path}: parameter {name!r} holds a non-finite value")
    return Model(config=config, params=params)
