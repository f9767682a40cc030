"""Binary model checkpoints.

Layout (all integers little-endian):

* magic ``KGTC``
* u32 format version
* u64 config length, then that many bytes of UTF-8 JSON (the model config)
* per-tensor records until EOF: u64 name length, name bytes, u64 rank,
  rank u64 dims, then the raw little-endian float32 payload

Records are written in sorted name order, so identical parameters always
produce identical bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .model import Model, ModelConfig, parameter_shapes
from .optim import parameter_arena

MAGIC = b"KGTC"
VERSION = 1


def save_checkpoint(model: Model, path: str | Path) -> None:
    config_bytes = json.dumps(model.config.to_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(config_bytes)))
        fh.write(config_bytes)
        for name in sorted(model.params):
            arr = np.ascontiguousarray(model.params[name].data, dtype="<f4")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<Q", arr.ndim))
            if arr.ndim:
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def _read_exact(fh, n: int, path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated while reading {what}")
    return data


def load_checkpoint(path: str | Path) -> Model:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (config_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "config length"))
        try:
            config = ModelConfig.from_dict(json.loads(_read_exact(fh, config_len, path, "config")))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad config block: {exc}") from None

        expected = parameter_shapes(config)
        params = parameter_arena(expected)
        seen: set[str] = set()
        wrong_shapes: dict[str, tuple[int, ...]] = {}
        while True:
            head = fh.read(8)
            if not head:
                break
            if len(head) != 8:
                raise CheckpointError(f"{path}: truncated record header")
            (name_len,) = struct.unpack("<Q", head)
            name = _read_exact(fh, name_len, path, "tensor name").decode("utf-8")
            if name in seen:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            seen.add(name)
            (rank,) = struct.unpack("<Q", _read_exact(fh, 8, path, f"{name} rank"))
            shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, path, f"{name} dims")) if rank else ()
            size = int(np.prod(shape, dtype=np.int64)) if rank else 1
            payload = _read_exact(fh, 4 * size, path, f"{name} payload")
            if name not in params:
                continue
            if shape != params[name].shape:
                wrong_shapes[name] = shape
                continue
            # one tensor at a time into the arena, so no second copy of the model is held
            params[name].data[...] = np.frombuffer(payload, dtype="<f4").reshape(shape)

    missing = sorted(set(expected) - seen)
    extra = sorted(seen - set(expected))
    if missing or extra:
        raise CheckpointError(f"{path}: parameter set mismatch (missing {missing}, extra {extra})")
    for name, shape in expected.items():
        if name in wrong_shapes:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {wrong_shapes[name]}, config implies {shape}")
    return Model(config=config, params=params)
