"""Binary checkpoint container.

Layout: magic bytes "LWCKPT1", a little-endian uint32 manifest length, a
UTF-8 JSON manifest (model config plus one entry per tensor: name, shape,
element type), then the raw tensor data little-endian in manifest order.
The writer lists tensors in model.tensor_spec order, so its data section
is the bytes of ModelParams.vector; the reader accepts them in any order
and fills one vector in spec order. Round-trips are bit-exact. A
truncated or malformed file, a manifest that lists a tensor twice, shapes
unlike its config's or the caller's, or a value not finite in float32 is
a CheckpointError. The size of the data section is checked against the
config's parameter count before the config's tensor spec is built, so a
manifest that claims a huge model fails at once. checkpoint_save writes
through files.write_atomically, as every output is written: a temp file
beside the path, renamed over it when it is whole, so a reader never sees
a partly written checkpoint, and a save that fails is the one-line
ConfigError "cannot write <path>: <reason>".
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import asdict

import numpy as np

from .errors import CheckpointError, ConfigError
from .files import write_atomically
from .model import ModelConfig, ModelParams, parameter_count, tensor_spec

MAGIC = b"LWCKPT1"
_DTYPES = {"float64": "<f8", "float32": "<f4"}


def _shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {name: shape for name, shape, _ in tensor_spec(config)}


def checkpoint_save(path, params: ModelParams) -> None:
    """Write every tensor as float64; the reader also accepts float32. The
    file is replaced whole (files.write_atomically): a save that fails
    raises ConfigError ("cannot write <path>: <reason>") and leaves the old
    checkpoint as it was."""
    manifest = {
        "config": asdict(params.config),
        "tensors": [
            {"name": name, "shape": list(arr.shape), "dtype": "float64"}
            for name, arr in params.tensors.items()
        ],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with write_atomically(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(params.vector, dtype="<f8").tobytes())


def checkpoint_load(path, expected_config: ModelConfig | None = None) -> ModelParams:
    """Load and validate; shapes unlike `expected_config`'s name the offending
    tensors. The params carry `expected_config` when given: its shapes are
    theirs, and n_vars sizes no tensor."""
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
        config = ModelConfig(**manifest["config"])  # checks its values
        count = parameter_count(config)  # builds no spec
        entries = [(e["name"], tuple(e["shape"]), e["dtype"]) for e in manifest["tensors"]]
        declared = {name: shape for name, shape, _ in entries}
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad manifest: {exc}") from exc
    if len(declared) < len(entries):  # a second copy would overwrite the first
        repeated = next(n for n, k in Counter(n for n, _, _ in entries).items() if k > 1)
        raise CheckpointError(f"{path}: bad manifest: tensor {repeated} is listed twice")
    data = len(raw) - body - mlen
    if not 4 * count <= data <= 8 * count:  # float32 to float64 each
        raise CheckpointError(
            f"{path}: data section of {data} bytes cannot hold the {count} "
            f"parameters of its config"
        )
    expected_own = _shapes(config)  # count <= data / 4: no larger than the file

    checks = [("manifest inconsistent with its config", expected_own)]
    if expected_config is not None:
        checks.append(("config mismatch", _shapes(expected_config)))
    for label, wanted in checks:
        bad = sorted(
            (n for n in {*declared, *wanted} if declared.get(n) != wanted.get(n)), key=str
        )
        if bad:
            details = ", ".join(
                f"{n}: file {declared.get(n)} vs config {wanted.get(n)}" for n in bad
            )
            raise CheckpointError(f"{path}: {label}: {details}")

    # read the spec's shapes: a shape [8.0, 6] equals (8, 6) but sizes no array
    total = body + mlen
    for name, _, dtype in entries:
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise CheckpointError(f"{path}: unsupported element type {dtype!r}")
        total += math.prod(expected_own[name]) * np.dtype(_DTYPES[dtype]).itemsize
    if len(raw) != total:
        raise CheckpointError(
            f"{path}: size {len(raw)} does not match manifest total {total}"
        )

    params = ModelParams.zeros(expected_config or config)
    offset = body + mlen
    for name, _, dtype in entries:
        shape = expected_own[name]
        arr = np.frombuffer(raw, _DTYPES[dtype], math.prod(shape), offset).reshape(shape)
        offset += arr.nbytes
        if not (np.abs(arr) <= np.finfo(np.float32).max).all():  # NaN fails too
            raise CheckpointError(f"{path}: tensor {name} is not finite in float32")
        params.tensors[name][...] = arr
    return params
