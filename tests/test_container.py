"""The binary container (container.py) and the checkpoint that is one:
round trips, the layout, the memory a read takes, and every corruption
that oracles.container_corruptions makes."""

import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from lightweather import container, data
from lightweather.checkpoint import LWCKPT1, MAGIC, checkpoint_load, checkpoint_save
from lightweather.errors import CheckpointError
from lightweather.model import ModelConfig, init_params, parameter_count
from oracles import LEAF, container_corruptions, container_parts, lwckpt1_save

KIND = b"\x89LWTEST\n"


def sections_of_three_kinds():
    """A float64 array of three leaves and a bit, an empty one, and an
    int64 one whose size is no multiple of 64 bytes."""
    rng = np.random.default_rng(0)
    return {
        "values": rng.normal(size=(3 * LEAF // 8 + 5, 1)),
        "nothing": np.zeros((0, 4)),
        "keys": rng.integers(-(2**62), 2**62, 13),
    }


def test_a_container_round_trips_its_meta_and_sections(tmp_path):
    arrays = sections_of_three_kinds()
    meta = {"key": [1, "two"], "nested": {"x": None}}
    path = tmp_path / "c.bin"
    container.write(path, KIND, meta, arrays)
    got_meta, got = container.read(path, KIND)
    assert got_meta == meta and list(got) == list(arrays)
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()
        assert got[name].flags.c_contiguous and got[name].flags.writeable


def test_the_layout_is_the_documented_one(tmp_path):
    """The magic and version, each section at a multiple of 64 bytes in
    the file, zeros between, one CRC32 per 1 MiB leaf, and the file ending
    where the last section ends."""
    arrays = sections_of_three_kinds()
    path = tmp_path / "c.bin"
    container.write(path, KIND, {}, arrays)
    raw = path.read_bytes()
    magic, version, manifest, body = container_parts(raw)
    assert (magic, version) == (KIND, container.VERSION) and container.LEAF == LEAF
    start = len(raw) - len(body)
    assert start % 64 == 0
    end = 0
    for section, (name, arr) in zip(manifest["sections"], arrays.items()):
        assert section["name"] == name and section["shape"] == list(arr.shape)
        assert section["offset"] % 64 == 0 and section["offset"] - end < 64
        assert body[end : section["offset"]] == bytes(section["offset"] - end)
        assert body[section["offset"] : section["offset"] + arr.nbytes] == arr.tobytes()
        assert len(section["crc32"]) == -(-arr.nbytes // LEAF)
        end = section["offset"] + arr.nbytes
    assert start + end == len(raw)
    assert [len(s["crc32"]) for s in manifest["sections"]] == [4, 0, 1]


def test_a_read_holds_its_arrays_and_little_else(tmp_path):
    """Each section is read into the array the reader returns: the traced
    peak of a read is the arrays and the manifest, not a copy of the file."""
    arrays = sections_of_three_kinds()
    container.write(tmp_path / "c.bin", KIND, {}, arrays)
    tracemalloc.start()
    try:
        _, got = container.read(tmp_path / "c.bin", KIND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in got.values())
    assert peak <= 1.01 * held + 64 * 1024, peak / held


def test_every_corruption_is_a_container_error_or_the_lie_it_tells(tmp_path, fail_allocation):
    """Every broken copy is a ContainerError, and asks for no array of a
    size it claims, except the two lies that keep every size: another
    dtype of the same width and another shape of the same size, which the
    reader hands out as told and its callers check."""
    path = tmp_path / "c.bin"
    container.write(path, KIND, {"k": 1}, sections_of_three_kinds())
    fail_allocation(10**12, lambda k: True)
    cases = container_corruptions(path.read_bytes())
    assert len(cases) > 30
    for name, raw in cases.items():
        path.write_bytes(raw)
        if "dtype" in name or "another shape" in name:
            _, got = container.read(path, KIND)
            section = name.split(":")[0]
            assert got[section].tobytes() == sections_of_three_kinds()[section].tobytes(), name
            continue
        with pytest.raises(container.ContainerError):
            container.read(path, KIND)
            pytest.fail(f"{name}: read without an error")


def test_a_container_of_another_kind_is_a_container_error(tmp_path):
    container.write(tmp_path / "c.bin", KIND, {}, {"x": np.zeros(3)})
    with pytest.raises(container.ContainerError, match="bad magic"):
        container.read(tmp_path / "c.bin", MAGIC)


# --- the checkpoint --------------------------------------------------------

# 263,411 parameters: a params section of three leaves
WIDE = ModelConfig(d=256, n_layers=2, t_h=6, t_f=3, n_vars=1)


def test_the_checkpoint_is_one_params_section_in_spec_order(tmp_path):
    params = init_params(WIDE, seed=3)
    checkpoint_save(tmp_path / "ck.bin", params)
    meta, sections = container.read(tmp_path / "ck.bin", MAGIC)
    assert meta == {"config": asdict(WIDE)}
    assert list(sections) == ["params"] and sections["params"].shape == (parameter_count(WIDE),)
    assert sections["params"].tobytes() == params.vector.tobytes()
    assert -(-params.vector.nbytes // LEAF) == 3


def test_a_checkpoint_load_holds_no_copy_of_the_file(tmp_path):
    """The params section is read into the vector the params are views of:
    the traced peak is that vector and a tensor's float32 check."""
    params = init_params(WIDE, seed=3)
    checkpoint_save(tmp_path / "ck.bin", params)
    tracemalloc.start()
    try:
        loaded = checkpoint_load(tmp_path / "ck.bin", WIDE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.vector.tobytes() == params.vector.tobytes()
    largest = max(t.nbytes for t in params.tensors.values())
    assert peak <= loaded.vector.nbytes + 2 * largest + 256 * 1024, peak / loaded.vector.nbytes


def test_every_corrupt_checkpoint_is_a_checkpoint_error(tmp_path, fail_allocation):
    """Each broken copy of a checkpoint of three leaves is a CheckpointError,
    with or without the caller's config, and so is a parse cache in the
    checkpoint's place."""
    path = tmp_path / "ck.bin"
    checkpoint_save(path, init_params(WIDE, seed=3))
    cases = container_corruptions(path.read_bytes())
    axis = data.TimeAxis(np.arange(2) * 3_600_000_000)
    data._write_sidecar(tmp_path / "obs.csv", {"version": 3}, axis, np.zeros((2, 1, 1)), ["v"])
    cases["a parse cache"] = (tmp_path / "obs.csv.lwcache").read_bytes()
    assert sum("leaf" in name for name in cases) == 3
    fail_allocation(10**12, lambda k: True)
    for name, raw in cases.items():
        path.write_bytes(raw)
        for expected in (None, WIDE):
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                checkpoint_load(path, expected)
                pytest.fail(f"{name}: loaded without an error")


def test_a_checkpoint_of_the_earlier_format_is_told_by_its_magic(tmp_path):
    """A file that starts with LWCKPT1 is read as one, whole or cut short;
    any other start is read as a container."""
    params = init_params(WIDE, seed=3)
    lwckpt1_save(tmp_path / "old.bin", params)
    raw = (tmp_path / "old.bin").read_bytes()
    assert raw.startswith(LWCKPT1)
    assert checkpoint_load(tmp_path / "old.bin").vector.tobytes() == params.vector.tobytes()
    for cut, message in [(9, "bad magic"), (len(LWCKPT1) + 6, "truncated manifest"), (len(raw) - 1, "size")]:
        (tmp_path / "old.bin").write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match=message):
            checkpoint_load(tmp_path / "old.bin")
    (tmp_path / "new.bin").write_bytes(b"LWCKPT2" + raw[7:])
    with pytest.raises(CheckpointError, match="bad magic"):
        checkpoint_load(tmp_path / "new.bin")
