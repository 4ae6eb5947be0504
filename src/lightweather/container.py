"""The one binary framing: the checkpoint (checkpoint.py) and the parse
cache (data.py) are each a container of named arrays and a JSON manifest.

Layout, every number little-endian:

  8 bytes   the kind's magic, for example b"\\x89LWCKPT\\n"
  uint32    the container format version (VERSION)
  uint32    the manifest's size in bytes
  uint32    the manifest's CRC32
  manifest  UTF-8 JSON: {"meta": the caller's object, "sections": [...]}
  zeros up to the data start, the first multiple of ALIGN bytes after it
  sections  each at its offset from the data start, a multiple of ALIGN,
            zeros between them

Each section entry names its array: {"name", "dtype" ("<f8" or "<i8"),
"shape", "offset", "crc32"}, where "crc32" lists the CRC32 of each
LEAF-byte leaf of the array's bytes in order, the last leaf shorter. The
sections are listed in offset order, do not overlap, and the file ends
where the last one ends.

write replaces its path whole (files.write_atomically). read checks the
magic, the version, the manifest's CRC32, and every section's dtype,
shape, alignment and size against the others' and the file's size before
it allocates an array; it then reads each section straight into the array
it returns and checks every leaf. A file that fails any check is a
ContainerError naming what failed. The CRC32s catch corruption, not a
forged file: forging one takes write access to it.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .files import write_atomically

VERSION = 1
ALIGN = 64  # bytes: each section starts at a multiple of this
LEAF = 1 << 20  # bytes of a section under one CRC32
_HEAD = struct.Struct("<8sIII")  # magic, version, manifest size, manifest CRC32
_DTYPES = ("<f8", "<i8")
_ENTRY = ("name", "dtype", "shape", "offset", "crc32")  # the fields of a section entry


class ContainerError(ValueError):
    """A file that is not a whole container of the kind asked for."""


def _leaves(raw: np.ndarray) -> list[int]:
    """The CRC32 of each LEAF-byte leaf of `raw`, an array's bytes as uint8."""
    return [zlib.crc32(raw[lo : lo + LEAF]) for lo in range(0, len(raw), LEAF)]


def _data_start(manifest_size: int) -> int:
    return -(-(_HEAD.size + manifest_size) // ALIGN) * ALIGN


def write(path, magic: bytes, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Replace `path` with a container of kind `magic` holding `meta` and
    each of `arrays` (float64 or int64) as a section of its name."""
    sections, raws, end = [], [], 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, arr.dtype.newbyteorder("<"))
        offset, raw = -(-end // ALIGN) * ALIGN, arr.reshape(-1).view(np.uint8)
        sections.append(dict(zip(_ENTRY, (name, arr.dtype.str, list(arr.shape), offset, _leaves(raw)))))
        raws.append((offset - end, raw))
        end = offset + len(raw)
    blob = json.dumps({"meta": meta, "sections": sections}).encode("utf-8")
    with write_atomically(path) as fh:
        fh.write(_HEAD.pack(magic, VERSION, len(blob), zlib.crc32(blob)))
        fh.write(blob + bytes(_data_start(len(blob)) - _HEAD.size - len(blob)))
        for gap, raw in raws:
            fh.write(bytes(gap))
            fh.write(raw)


def read(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and the arrays, by section name, of the container of kind
    `magic` at `path`; a ContainerError when it is not one, or is cut short
    or corrupt."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size or _HEAD.unpack(head)[:2] != (magic, VERSION):
            raise ContainerError("bad magic or container version")
        manifest_size, crc = _HEAD.unpack(head)[2:]
        blob = fh.read(manifest_size)
        if len(blob) < manifest_size or zlib.crc32(blob) != crc:
            raise ContainerError("the manifest is cut short or fails its CRC32")
        start, end, layout = _data_start(manifest_size), 0, {}
        try:
            manifest = json.loads(blob)
            meta = manifest["meta"]
            for entry in manifest["sections"]:
                name, dtype, shape, offset, crcs = (entry[k] for k in _ENTRY)
                ints = all(type(n) is int and n >= 0 for n in (*shape, offset))
                if not (isinstance(name, str) and dtype in _DTYPES and ints):
                    raise TypeError(f"section entry {name!r}")
                nbytes = math.prod(shape) * np.dtype(dtype).itemsize
                fits = math.prod(n or 1 for n in shape) <= size  # an empty array's other axes too
                if not fits or name in layout or offset % ALIGN or offset < end:
                    raise ValueError(f"section {name} is too large, repeated, unaligned or overlapping")
                layout[name], end = (dtype, shape, offset, crcs), offset + nbytes
        except (ValueError, KeyError, TypeError) as exc:
            raise ContainerError(f"bad manifest: {exc}") from exc
        if size != start + end:
            raise ContainerError(f"size {size} does not match the sections' end {start + end}")
        arrays = {}
        for name, (dtype, shape, offset, crcs) in layout.items():
            arrays[name] = arr = np.empty(shape, dtype)
            raw = arr.reshape(-1).view(np.uint8)  # shares arr's memory
            fh.seek(start + offset)
            if fh.readinto(raw) != len(raw) or _leaves(raw) != crcs:
                raise ContainerError(f"section {name} is cut short or fails its CRC32")
    return meta, arrays
