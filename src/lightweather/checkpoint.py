"""Binary checkpoint: one container (container.py) of kind MAGIC.

Its meta is {"config": the model config}, and its one section, `params`,
is ModelParams.vector as float64: every tensor back to back in
model.tensor_spec order. Round-trips are bit-exact. The container's checks
(the manifest's CRC32, each section's size against the file, a CRC32 per
1 MiB leaf) make a truncated or corrupt file a CheckpointError; so is a
malformed config, a `params` section that does not hold its config's
parameter count (compared before the config's tensor spec is built, so a
manifest that claims a huge model fails at once), shapes unlike the
caller's, or a value not finite in float32. checkpoint_save writes through
files.write_atomically: a reader never sees a partly written checkpoint,
and a save that fails is the one-line ConfigError "cannot write <path>:
<reason>".

Files of the earlier format, LWCKPT1, still load (_read_lwckpt1): the
magic "LWCKPT1", a little-endian uint32 manifest length, a JSON manifest
(the config and one entry per tensor: name, shape, "float64" or
"float32"), then each tensor's little-endian data in manifest order, in
any order of the tensors. Its manifest is checked against its config, and
its data against both, before it feeds the same checks.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from dataclasses import asdict

import numpy as np

from . import container
from .errors import CheckpointError, ConfigError
from .model import ModelConfig, ModelParams, parameter_count, tensor_spec

MAGIC = b"\x89LWCKPT\n"
LWCKPT1 = b"LWCKPT1"
_DTYPES = {"float64": "<f8", "float32": "<f4"}


def _shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {name: shape for name, shape, _ in tensor_spec(config)}


def _mismatch(path, label: str, have: dict, wanted: dict) -> None:
    bad = sorted((n for n in {*have, *wanted} if have.get(n) != wanted.get(n)), key=str)
    if bad:
        details = ", ".join(f"{n}: file {have.get(n)} vs config {wanted.get(n)}" for n in bad)
        raise CheckpointError(f"{path}: {label}: {details}")


def checkpoint_save(path, params: ModelParams) -> None:
    """Write the parameter vector as float64. The file is replaced whole
    (files.write_atomically): a save that fails raises ConfigError
    ("cannot write <path>: <reason>") and leaves the old checkpoint as it
    was."""
    vector = np.asarray(params.vector, "<f8")  # float64, also from a float32 model
    container.write(path, MAGIC, {"config": asdict(params.config)}, {"params": vector})


def checkpoint_load(path, expected_config: ModelConfig | None = None) -> ModelParams:
    """Load and validate; shapes unlike `expected_config`'s name the offending
    tensors. The params carry `expected_config` when given: its shapes are
    theirs, and n_vars sizes no tensor."""
    try:
        with open(path, "rb") as fh:
            legacy = fh.read(len(LWCKPT1)) == LWCKPT1
        if legacy:
            config, vector = _read_lwckpt1(path)
        else:
            meta, sections = container.read(path, MAGIC)
            config, count = _config(path, meta)
            vector = sections.get("params", np.empty(0, np.int64))
            if vector.dtype != np.float64 or vector.shape != (count,):
                raise CheckpointError(
                    f"{path}: a {vector.dtype} params section of {vector.size} values cannot hold "
                    f"the {count} parameters of its config"
                )
    except container.ContainerError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if expected_config is not None:
        _mismatch(path, "config mismatch", _shapes(config), _shapes(expected_config))
    params = ModelParams(expected_config or config, vector)
    for name, arr in params.tensors.items():
        if not (np.abs(arr) <= np.finfo(np.float32).max).all():  # NaN fails too
            raise CheckpointError(f"{path}: tensor {name} is not finite in float32")
    return params


def _config(path, manifest) -> tuple[ModelConfig, int]:
    """The manifest's config, whose values ModelConfig checks, and its
    parameter count, which builds no spec."""
    try:
        config = ModelConfig(**manifest["config"])
        return config, parameter_count(config)
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad manifest: {exc}") from exc


def _read_lwckpt1(path) -> tuple[ModelConfig, np.ndarray]:
    """An LWCKPT1 file's config and its tensors in spec order as float64."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        body = len(LWCKPT1) + 4
        head = fh.read(body)
        if len(head) < body:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (mlen,) = struct.unpack_from("<I", head, len(LWCKPT1))
        blob = fh.read(mlen)
        if len(blob) < mlen:
            raise CheckpointError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(blob.decode("utf-8"))
            entries = [(e["name"], tuple(e["shape"]), e["dtype"]) for e in manifest["tensors"]]
            declared = {name: shape for name, shape, _ in entries}
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: bad manifest: {exc}") from exc
        config, count = _config(path, manifest)
        if len(declared) < len(entries):  # a second copy would overwrite the first
            repeated = next(n for n, k in Counter(n for n, _, _ in entries).items() if k > 1)
            raise CheckpointError(f"{path}: bad manifest: tensor {repeated} is listed twice")
        data = size - body - mlen
        if not 4 * count <= data <= 8 * count:  # float32 to float64 each
            raise CheckpointError(
                f"{path}: data section of {data} bytes cannot hold the {count} "
                f"parameters of its config"
            )
        expected_own = _shapes(config)  # count <= data / 4: no larger than the file
        _mismatch(path, "manifest inconsistent with its config", declared, expected_own)
        # read the spec's shapes: a shape [8.0, 6] equals (8, 6) but sizes no array
        total = body + mlen
        for name, _, dtype in entries:
            if not isinstance(dtype, str) or dtype not in _DTYPES:
                raise CheckpointError(f"{path}: unsupported element type {dtype!r}")
            total += math.prod(expected_own[name]) * np.dtype(_DTYPES[dtype]).itemsize
        if size != total:
            raise CheckpointError(f"{path}: size {size} does not match manifest total {total}")
        params = ModelParams.zeros(config)
        for name, _, dtype in entries:
            shape = expected_own[name]
            arr = np.fromfile(fh, _DTYPES[dtype], math.prod(shape))
            params.tensors[name][...] = arr.reshape(shape)
    return config, params.vector
