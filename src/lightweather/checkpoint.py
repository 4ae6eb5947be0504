"""Binary checkpoint container.

Layout: magic bytes "LWCKPT1", a little-endian uint32 manifest length, a
UTF-8 JSON manifest (model config plus one entry per tensor: name, shape,
element type), then the raw tensor data little-endian in manifest order.
The writer lists tensors in model.tensor_spec order; the reader accepts
them in any order and returns them in spec order. Round-trips are
bit-exact; a truncated or inconsistent file fails before anything is
loaded.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .errors import CheckpointError, ConfigError
from .model import ModelConfig, ModelParams, tensor_spec

MAGIC = b"LWCKPT1"
_DTYPES = {"float64": "<f8", "float32": "<f4"}


def _shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {name: shape for name, shape, _ in tensor_spec(config)}


def checkpoint_save(path, params: ModelParams) -> None:
    """Write every tensor as float64; the reader also accepts float32."""
    manifest = {
        "config": asdict(params.config),
        "tensors": [
            {"name": name, "shape": list(arr.shape), "dtype": "float64"}
            for name, arr in params.tensors.items()
        ],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in params.tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def checkpoint_load(path, expected_config: ModelConfig | None = None) -> ModelParams:
    """Load and validate; `expected_config` mismatches name offending tensors."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (mlen,) = struct.unpack("<I", raw[len(MAGIC) : len(MAGIC) + 4])
    body = len(MAGIC) + 4
    if len(raw) < body + mlen:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[body : body + mlen].decode("utf-8"))
        config = ModelConfig(**manifest["config"])
        expected_own = _shapes(config)  # validates the config
        entries = [(e["name"], tuple(e["shape"]), e["dtype"]) for e in manifest["tensors"]]
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad manifest: {exc}") from exc

    declared = {name: shape for name, shape, _ in entries}
    if declared != expected_own:
        odd = sorted(set(declared.items()) ^ set(expected_own.items()))
        raise CheckpointError(f"{path}: manifest inconsistent with its config: {odd}")
    if expected_config is not None:
        wanted = _shapes(expected_config)
        bad = sorted(
            name
            for name in set(declared) | set(wanted)
            if declared.get(name) != wanted.get(name)
        )
        if bad:
            details = ", ".join(
                f"{n}: file {declared.get(n)} vs config {wanted.get(n)}" for n in bad
            )
            raise CheckpointError(f"{path}: config mismatch: {details}")

    total = body + mlen
    for _, shape, dtype in entries:
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise CheckpointError(f"{path}: unsupported element type {dtype!r}")
        total += math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize
    if len(raw) != total:
        raise CheckpointError(
            f"{path}: size {len(raw)} does not match manifest total {total}"
        )

    loaded = {}
    offset = body + mlen
    for name, shape, dtype in entries:
        dt = np.dtype(_DTYPES[dtype])
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=offset).reshape(shape)
        offset += count * dt.itemsize
        loaded[name] = arr.astype(np.float64)
    return ModelParams(config, {name: loaded[name] for name in expected_own})
