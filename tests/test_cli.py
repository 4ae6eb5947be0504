import csv
import io
import json
import struct
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightweather import checkpoint, cli, data, errors, model, numerics
from lightweather.checkpoint import MAGIC, checkpoint_load, checkpoint_save
from lightweather.data import load_observations_csv, load_stations_csv
from lightweather.model import ModelConfig, init_params, parameter_count, tensor_spec

LONG_NAME = "n" * 300  # longer than any file system allows one name to be

TINY = """
# tiny end-to-end configuration
d = 4
layers = 1
t_h = 6
t_f = 3
lr = 5e-4
batch_size = 16
max_epochs = 2
patience = 2
seed = 0
synth_stations = 2
synth_steps = 220
synth_noise_std = 0.4
"""
TINY_MODEL = ModelConfig(d=4, n_layers=1, t_h=6, t_f=3, n_vars=1, n_stations=2)


def write_config(path: Path, body: str, **extra) -> Path:
    text = body + "".join(f"{k} = {v}\n" for k, v in extra.items())
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    cfg = write_config(root / "synth.cfg", TINY, out_dir=root / "data")
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    return root / "data"


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(
        root / "train.cfg",
        TINY,
        stations_csv=synth_dir / "stations.csv",
        observations_csv=synth_dir / "observations.csv",
        out_dir=root / "run",
    )
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return root


def data_config(synth_dir, path, **extra):
    return write_config(
        path,
        TINY,
        stations_csv=synth_dir / "stations.csv",
        observations_csv=synth_dir / "observations.csv",
        **extra,
    )


# --- config file -----------------------------------------------------------


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", TINY + "banana = 1\n")
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_line_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d 64\n")
    assert cli.main(["param-count", "--config", str(cfg)]) == 1


# the documented exit code and stderr label of every error class
ERROR_TABLE = [
    ("ConfigError", 1, "config error"),
    ("ShapeError", 1, "config error"),
    ("IngestionError", 2, "ingestion error"),
    ("TrainingError", 3, "training error"),
    ("OptimizerError", 3, "training error"),
    ("EvaluationError", 4, "evaluation error"),
    ("CheckpointError", 4, "checkpoint error"),
    ("ValidationError", 4, "validation error"),
    ("LightWeatherError", 1, "error"),
]


def test_error_table_names_every_error_class():
    classes = {errors.LightWeatherError, *errors.LightWeatherError.__subclasses__()}
    assert {c.__name__ for c in classes} == {name for name, _, _ in ERROR_TABLE}


@pytest.mark.parametrize("name, code, label", ERROR_TABLE, ids=[r[0] for r in ERROR_TABLE])
def test_error_class_gives_its_exit_code_and_one_labelled_line(
    monkeypatch, capsys, name, code, label
):
    def raise_it(cfg):
        raise getattr(errors, name)("detail")

    monkeypatch.setattr(cli, "_load_dataset", raise_it)
    assert cli.main(["ingest-check"]) == code
    assert capsys.readouterr().err == f"{label}: detail\n"


def test_main_calls_the_handler_bound_to_the_command_name(monkeypatch):
    for name in cli.COMMANDS:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))
    # a tracer replaces cli.cmd_<name> with a wrapper; main must call the wrapper
    calls = []
    monkeypatch.setattr(cli, "cmd_forecast", lambda *args: calls.append(args[1:]) or 0)
    assert cli.main(["forecast", "--checkpoint", "c.bin", "--timestamp", "t"]) == 0
    assert calls == [("c.bin", "t")]


def test_usage_error_exit_code_1():
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([]) == 1


@pytest.mark.parametrize(
    "command, extra, out, code, prefix",
    [
        (
            "param-count",
            dict(spatial="relative", stations_csv="nope.csv"),
            None,
            2,
            "ingestion error: stations_csv file not found",
        ),
        # the model values are checked before the station table is read
        (
            "param-count",
            dict(d=0, spatial="relative", stations_csv="nope.csv"),
            None,
            1,
            "config error: d must be >= 1, got 0",
        ),
        ("synth", dict(synth_alpha="a,b"), None, 1, "config error: bad synth_alpha"),
        (
            "param-count",
            dict(d="99999999999999999999"),
            None,
            1,
            "config error: d 99999999999999999999 is too large to size an array",
        ),
        ("synth", {}, "a_file", 1, "config error: cannot create out_dir"),
        # no data files are set: the out_dir check must come first
        ("train", {}, "a_file", 1, "config error: cannot create out_dir"),
        ("evaluate", {}, "a_file/sub", 1, "config error: cannot create out_dir"),
        ("forecast", {}, "a_file", 1, "config error: cannot create out_dir"),
        ("ablate", {}, "a_file", 1, "config error: cannot create out_dir"),
        ("sweep", {}, "a_file/sub", 1, "config error: cannot create out_dir"),
        # no data files are set: the training config is checked before ingestion
        ("train", dict(lr="nan"), None, 1, "config error: lr must be finite"),
        ("train", dict(lr="inf"), None, 1, "config error: lr must be finite"),
        ("sweep", dict(lr="nan"), None, 1, "config error: lr must be finite"),
        ("ablate", dict(lr="-inf"), None, 1, "config error: lr must be finite"),
        # a name the file system rejects must not escape as an OSError
        ("synth", {}, LONG_NAME, 1, "config error: cannot create out_dir"),
        ("train", {}, LONG_NAME, 1, "config error: cannot create out_dir"),
        # a span past datetime.max, checked in hours before any timestamp is made
        (
            "synth",
            dict(synth_interval_hours=100000, synth_steps=1000),
            None,
            1,
            "config error: 1000 steps of 100000 h from 2019-01-01T00:00:00 run past the year 9999",
        ),
        ("synth", dict(synth_noise_std="nan"), None, 1, "config error: noise_std must be finite"),
        ("synth", dict(synth_amp_diurnal="inf"), None, 1, "config error: amp_diurnal must be finite"),
        ("synth", dict(synth_amp_annual="-inf"), None, 1, "config error: amp_annual must be finite"),
        ("synth", dict(synth_amp_elev="nan"), None, 1, "config error: amp_elev must be finite"),
        ("synth", dict(synth_alpha="0.1,nan"), None, 1, "config error: alpha must be finite"),
        ("synth", dict(synth_alpha="inf"), None, 1, "config error: alpha must be finite"),
        # no data files are set: each value the command reads is checked before ingestion
        ("sweep", dict(sweep_d="0"), None, 1, "config error: d must be >= 1, got 0"),
        ("sweep", dict(sweep_layers="4,-1"), None, 1, "config error: n_layers must be >= 1, got -1"),
        ("ablate", dict(ablate_seeds="0,1"), None, 1, "config error: ablation needs >= 3 seeds, got 2"),
        (
            "ablate",
            dict(ablate_seeds="-1,0,1"),
            None,
            1,
            "config error: ablation seeds must be >= 0, got -1",
        ),
        ("evaluate", dict(batch_size=0), None, 1, "config error: batch_size must be >= 1, got 0"),
    ],
    ids=[
        "relative-param-count-missing-stations",
        "relative-param-count-d-zero-before-the-stations",
        "non-numeric-alpha",
        "param-count-d-too-large-for-an-array",
        "out-is-a-file",
        "train-out-is-a-file",
        "evaluate-out-under-a-file",
        "forecast-out-is-a-file",
        "ablate-out-is-a-file",
        "sweep-out-under-a-file",
        "train-lr-nan",
        "train-lr-inf",
        "sweep-lr-nan",
        "ablate-lr-minus-inf",
        "synth-out-name-too-long",
        "train-out-name-too-long",
        "synth-span-past-year-9999",
        "synth-noise-std-nan",
        "synth-amp-diurnal-inf",
        "synth-amp-annual-minus-inf",
        "synth-amp-elev-nan",
        "synth-alpha-nan",
        "synth-alpha-inf",
        "sweep-d-zero",
        "sweep-layers-negative",
        "ablate-two-seeds",
        "ablate-negative-seed",
        "evaluate-batch-size-zero",
    ],
)
def test_bad_input_is_one_line_error(
    tmp_path, capsys, monkeypatch, command, extra, out, code, prefix
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("expensive work ran before the input checks")

    for name in ("generate", "fit", "_load_dataset"):
        monkeypatch.setattr(cli, name, must_not_run)
    extra = {k: tmp_path / v if k == "stations_csv" else v for k, v in extra.items()}
    cfg = write_config(tmp_path / "bad.cfg", TINY, out_dir=tmp_path / "out", **extra)
    argv = [command, "--config", str(cfg)]
    if command == "forecast":
        argv += ["--timestamp", "2019-01-05T04:00:00"]
    if out:
        (tmp_path / "a_file").write_text("")
        argv += ["--out", str(tmp_path / out)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert out is None or str(tmp_path / out) in err
    assert not (tmp_path / "out").exists()


# text that stays on its config line, which str.splitlines would break at a
# control or separator character, and that UTF-8 can write (no surrogates)
ONE_LINE = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)


def not_a(kind):
    """Text on one config line that `kind` cannot parse."""

    def parses(text):
        try:
            kind(text.strip())
        except ValueError:
            return False
        return True

    return ONE_LINE.filter(lambda text: not parses(text))


BELOW_ONE = st.integers(max_value=0) | not_a(int)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
NEGATIVE = st.floats(max_value=-1e-300)
# one invalid value for each key: (command that reads it, values); TINY's
# max_epochs is 2, so a patience of 3 or more exceeds it
INVALID_VALUES = {
    **{key: ("train", BELOW_ONE) for key in ("d", "layers", "t_h", "t_f", "batch_size", "max_epochs")},
    "spatial": ("train", ONE_LINE.filter(lambda text: text.strip() not in model.SPATIAL_MODES)),
    "temporal": ("train", ONE_LINE.filter(lambda text: text.strip() not in model.TEMPORAL_MODES)),
    "lr": ("train", NON_FINITE | NEGATIVE | not_a(float)),
    "patience": ("train", BELOW_ONE | st.integers(min_value=3)),
    "seed": ("train", st.integers(max_value=-1) | not_a(int)),
    **{key: ("synth", BELOW_ONE) for key in ("synth_stations", "synth_steps", "synth_interval_hours")},
    "synth_start": ("synth", not_a(datetime.fromisoformat)),
    "synth_alpha": (
        "synth",
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=4)
        .filter(lambda alpha: sum(abs(a) for a in alpha) >= 1)
        .map(lambda alpha: ",".join(map(repr, alpha)))
        | st.lists(NON_FINITE, min_size=1, max_size=2).map(lambda alpha: ",".join(map(repr, alpha)))
        | not_a(float).filter(lambda text: "," not in text and text.strip()),
    ),
    **{
        key: ("synth", NON_FINITE | not_a(float))
        for key in ("synth_amp_diurnal", "synth_amp_annual", "synth_amp_elev")
    },
    "synth_noise_std": ("synth", NON_FINITE | NEGATIVE | not_a(float)),
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(INVALID_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), INVALID_VALUES[key][1])
    )
)
def test_an_invalid_config_value_is_one_line_config_error(synth_dir, tmp_path_factory, key_value):
    """A valid config for the tiny dataset with one value made invalid: the
    command that reads it exits 1 with one "config error: " line, before it
    fits or generates anything and without making out_dir."""
    key, value = key_value
    work = tmp_path_factory.mktemp("invalid")
    cfg = data_config(synth_dir, work / "run.cfg", out_dir=work / "out", **{key: value})
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        for name in ("generate", "fit"):
            mp.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        code = cli.main([INVALID_VALUES[key][0], "--config", str(cfg)])
    err = stderr.getvalue()
    assert code == 1, err
    assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    assert not (work / "out").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "forecast", "ablate", "sweep"])
def test_a_bad_model_value_is_reported_before_the_dataset_is_read(
    synth_dir, tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(cli, "_load_dataset", lambda cfg: pytest.fail("the dataset was read"))
    cfg = data_config(synth_dir, tmp_path / "run.cfg", out_dir=tmp_path / "out", d=0)
    flags = ["--timestamp", "2019-01-05T04:00:00"] if command == "forecast" else []
    assert cli.main([command, "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == "config error: d must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


# every output of each command, in the order the command writes them
OUTPUTS = {
    "synth": ["stations.csv", "observations.csv", "synth_meta.txt"],
    "train": ["history.csv", "checkpoint.bin"],
    "evaluate": ["metrics.csv"],
    "forecast": ["forecasts.csv", "forecast_obs.csv"],
    "ablate": ["ablation.csv"],
    "sweep": ["sweep.csv"],
}


@pytest.mark.parametrize("how", ["directory", "no-temp-file", "first-write"])
@pytest.mark.parametrize("command, name", [(c, n) for c, names in OUTPUTS.items() for n in names])
def test_an_output_that_cannot_be_written_is_one_line_config_error(
    synth_dir, trained_dir, tmp_path, capsys, fail_write, command, name, how
):
    """An output with a directory in its place, whose temp file cannot be
    made, or whose first write fails (a full disk): exit 1 with one line
    "config error: cannot write <path>: <reason>" and no temp file left.
    Every output keeps the bytes an earlier run left, those written before
    the failed one too: a command's outputs replace the old ones together
    (files.written_together), so a new history.csv never sits beside an old
    checkpoint.bin."""
    out = tmp_path / "out"
    out.mkdir()
    old = b"an earlier run's bytes\n"
    names = OUTPUTS[command]
    for n in names:
        (out / n).write_bytes(old)
    if how == "directory":
        (out / name).unlink()
        (out / name).mkdir()
    else:
        fail_write(None if how == "no-temp-file" else 0, name)
    cfg = data_config(
        synth_dir,
        tmp_path / "run.cfg",
        out_dir=out,
        checkpoint=trained_dir / "run" / "checkpoint.bin",
        max_epochs=1,
        patience=1,
        sweep_d=2,
        sweep_layers=1,
    )
    flags = ["--timestamp", "2019-01-05T04:00:00"] if command == "forecast" else []
    assert cli.main([command, "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: "), err
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert not list(out.glob(".*.tmp"))
    others = [n for n in names if n != name]
    assert [(out / n).read_bytes() for n in others] == [old] * len(others)
    if how == "directory":
        assert not any((out / name).iterdir())
    else:
        assert (out / name).read_bytes() == old


# --- synth -----------------------------------------------------------------


def test_synth_of_a_grid_too_large_to_allocate_is_one_line_error(tmp_path, capsys, fail_allocation):
    fail_allocation(220 * 2, lambda k: True)
    cfg = write_config(tmp_path / "synth.cfg", TINY, out_dir=tmp_path / "out")
    assert cli.main(["synth", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: a grid of 220 x 2 values is too large to allocate\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "t_h, t_f, message",
    [
        (-40, 24, "t_h must be >= 1, got -40"),
        (0, 24, "t_h must be >= 1, got 0"),
        (6, 0, "t_f must be >= 1, got 0"),
    ],
    ids=["negative-t_h", "zero-t_h", "zero-t_f"],
)
def test_synth_for_model_windows_no_model_can_take_is_one_line_config_error(
    tmp_path, capsys, monkeypatch, t_h, t_f, message
):
    # 20 steps pass the ten-window rule of a window of -16 steps, or of the
    # AR order where a zero window drops the model's rule
    monkeypatch.setattr(cli, "generate", lambda *args: pytest.fail("generate ran"))
    cfg = write_config(
        tmp_path / "synth.cfg", TINY, out_dir=tmp_path / "out", t_h=t_h, t_f=t_f, synth_steps=20
    )
    assert cli.main(["synth", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_synth_outputs_load_back(synth_dir):
    ids, coords = load_stations_csv(synth_dir / "stations.csv")
    obs = load_observations_csv(synth_dir / "observations.csv", ids, coords)
    assert obs.n_stations == 2
    assert obs.n_steps == 220
    meta = (synth_dir / "synth_meta.txt").read_text()
    assert "seed = 0" in meta


def test_synth_different_seeds_differ(tmp_path):
    outputs = []
    for seed in (1, 2):
        cfg = write_config(tmp_path / f"s{seed}.cfg", TINY, out_dir=tmp_path / f"d{seed}")
        assert cli.main(["synth", "--config", str(cfg), "--seed", str(seed)]) == 0
        outputs.append((tmp_path / f"d{seed}" / "observations.csv").read_text())
    assert outputs[0] != outputs[1]


def test_ingest_check(synth_dir, tmp_path, capsys):
    cfg = data_config(synth_dir, tmp_path / "chk.cfg")
    assert cli.main(["ingest-check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "stations: 2" in out and "steps: 220" in out


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: [row[0] + "+00:00"] + row[1:], "timezone-aware"),
        (lambda row: row[:2] + ["-inf"], "non-finite value -inf"),
    ],
    ids=["mixed-timezones", "infinite-value"],
)
def test_bad_observation_is_one_line_exit_2(synth_dir, tmp_path, capsys, edit, message):
    with open(synth_dir / "observations.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[5] = edit(rows[5])
    with open(tmp_path / "obs.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    cfg = write_config(
        tmp_path / "chk.cfg",
        TINY,
        stations_csv=synth_dir / "stations.csv",
        observations_csv=tmp_path / "obs.csv",
    )
    assert cli.main(["ingest-check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ingestion error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "name, edit, extra, code, message",
    [
        (
            "stations.csv",
            lambda line: b"\xff" + line,
            {},
            2,
            "ingestion error: {path}: line 3: not UTF-8",
        ),
        (
            "observations.csv",
            lambda line: line.replace(b",", b",\xe9", 1),
            {},
            2,
            "ingestion error: {path}: line 3: not UTF-8",
        ),
        # finite in float64, so ingestion accepts it; the model's float32 copy cannot
        (
            "observations.csv",
            lambda line: line.rsplit(b",", 1)[0] + b",1e39\r\n",
            dict(normalize="false"),
            4,
            "validation error: station {sid}: variable {var}: value 1e+39 at {ts} is "
            "not finite in float32",
        ),
    ],
    ids=["stations-not-utf8", "observations-not-utf8", "value-overflows-float32"],
)
def test_bad_data_file_is_one_line_error_before_training(
    synth_dir, tmp_path, capsys, name, edit, extra, code, message
):
    lines = (synth_dir / name).read_bytes().splitlines(keepends=True)
    ts, sid = lines[2].decode("utf-8").split(",")[:2]
    var = lines[0].decode("utf-8").strip().split(",")[-1]
    lines[2] = edit(lines[2])
    path = tmp_path / name
    path.write_bytes(b"".join(lines))
    files = {
        "stations_csv": synth_dir / "stations.csv",
        "observations_csv": synth_dir / "observations.csv",
    }
    files[name.replace(".", "_")] = path
    cfg = write_config(tmp_path / "t.cfg", TINY, out_dir=tmp_path / "out", **files, **extra)
    assert cli.main(["train", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=path, ts=ts, sid=sid, var=var)), err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


FIELD_LIMIT = csv.field_size_limit()
LONG_FIELD = "1" * 200_000  # longer than csv's field limit


@pytest.mark.parametrize(
    "name, line, edit",
    [
        ("stations.csv", 3, lambda row: row[:3] + [LONG_FIELD]),
        ("observations.csv", 1, lambda row: row[:2] + [LONG_FIELD]),
        # a quote sends the rows through csv.reader; without one the
        # columnar parser reads them and must say the same
        ("observations.csv", 3, lambda row: row[:2] + [f'"{LONG_FIELD}"']),
        ("observations.csv", 3, lambda row: row[:2] + [LONG_FIELD]),
    ],
    ids=["stations-elevation", "observations-header", "observations-quoted", "observations-unquoted"],
)
def test_overlong_csv_field_is_one_line_exit_2(synth_dir, tmp_path, capsys, name, line, edit):
    lines = (synth_dir / name).read_text(encoding="utf-8").splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    files = {
        "stations_csv": synth_dir / "stations.csv",
        "observations_csv": synth_dir / "observations.csv",
    }
    files[name.replace(".", "_")] = path
    cfg = write_config(tmp_path / "t.cfg", TINY, **files)
    assert cli.main(["ingest-check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"ingestion error: {path}: line {line}: field larger than field limit ({FIELD_LIMIT})\n"
    )


@pytest.mark.parametrize(
    "command, key, code, prefix",
    [
        ("ingest-check", "stations_csv", 2, "ingestion error: stations_csv file not found"),
        ("evaluate", "checkpoint", 4, "checkpoint error: checkpoint not found"),
    ],
    ids=["ingest-check-stations-name-too-long", "evaluate-checkpoint-name-too-long"],
)
def test_overlong_file_name_is_one_line_error(
    synth_dir, tmp_path, capsys, command, key, code, prefix
):
    files = dict(
        stations_csv=synth_dir / "stations.csv",
        observations_csv=synth_dir / "observations.csv",
    )
    files[key] = tmp_path / LONG_NAME
    cfg = write_config(tmp_path / "t.cfg", TINY, out_dir=tmp_path / "out", **files)
    assert cli.main([command, "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and LONG_NAME in err and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


# --- train -----------------------------------------------------------------


def test_missing_stations_file_is_ingestion_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "t.cfg",
        TINY,
        stations_csv=tmp_path / "nope.csv",
        observations_csv=tmp_path / "also_nope.csv",
        out_dir=tmp_path / "out",
    )
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "ingestion error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no partial outputs


@pytest.mark.parametrize(
    "command, extra, flags, message",
    [
        ("synth", dict(seed=-1), [], "seed must be >= 0, got -1"),
        ("train", {}, ["--seed", "-2"], "seed must be >= 0, got -2"),
        ("ablate", dict(ablate_seeds="-1,0,1"), [], "ablation seeds must be >= 0, got -1"),
    ],
    ids=["synth-config-seed", "train-seed-flag", "ablate-seeds"],
)
def test_negative_seed_is_one_line_config_error(
    synth_dir, tmp_path, capsys, command, extra, flags, message
):
    cfg = data_config(synth_dir, tmp_path / "neg.cfg", out_dir=tmp_path / "out", **extra)
    assert cli.main([command, "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_train_whose_loss_overflows_is_one_line_training_error(synth_dir, tmp_path, capsys):
    # lr 1e20 sends the float32 forward to inf in the second batch; with
    # RuntimeWarnings as errors, a warning on the way would be a traceback
    cfg = data_config(synth_dir, tmp_path / "lr.cfg", out_dir=tmp_path / "out", lr="1e20")
    assert cli.main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("training error: non-finite loss") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_multi_chunk_train_whose_loss_overflows_is_one_line_training_error(
    synth_dir, tmp_path, capsys, monkeypatch
):
    # the same overflow with each 16-window batch in 4 chunks of 4 windows,
    # which run on the workers under the caller's np.errstate; the BLAS
    # thread count the batch pinned is restored
    monkeypatch.setattr(model, "CHUNK_ROWS", 8)
    before = numerics.blas_threads()
    cfg = data_config(synth_dir, tmp_path / "lr.cfg", out_dir=tmp_path / "out", lr="1e20")
    assert cli.main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("training error: non-finite loss") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert numerics.blas_threads() == before


def test_train_of_a_model_too_large_to_allocate_is_one_line_config_error(
    synth_dir, tmp_path, capsys
):
    # 2e18 float64 parameters: numpy cannot even size the array
    cfg = data_config(synth_dir, tmp_path / "big.cfg", out_dir=tmp_path / "out", d=10**9)
    n_params = parameter_count(replace(TINY_MODEL, d=10**9))
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"config error: a model of {n_params} parameters is too large to allocate\n"
    )
    assert not (tmp_path / "out").exists()


def test_train_writes_checkpoint_and_history(trained_dir):
    run = trained_dir / "run"
    assert (run / "checkpoint.bin").is_file()
    with open(run / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_mae", "val_mae", "val_mse", "seconds"]
    assert len(rows) == 3  # header + 2 epochs


def test_train_rerun_identical_checkpoint(synth_dir, tmp_path):
    blobs = []
    for run in range(2):
        cfg = data_config(synth_dir, tmp_path / f"r{run}.cfg", out_dir=tmp_path / f"o{run}")
        assert cli.main(["train", "--config", str(cfg)]) == 0
        blobs.append((tmp_path / f"o{run}" / "checkpoint.bin").read_bytes())
    assert blobs[0] == blobs[1]


# --- evaluate --------------------------------------------------------------


def test_evaluate_prints_hi_row(synth_dir, trained_dir, tmp_path, capsys):
    cfg = data_config(
        synth_dir,
        tmp_path / "e.cfg",
        out_dir=tmp_path / "eval",
        checkpoint=trained_dir / "run" / "checkpoint.bin",
    )
    assert cli.main(["evaluate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "hi:" in out and "lightweather:" in out
    with open(tmp_path / "eval" / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "mse", "mae", "n_points"]
    assert {r[0] for r in rows[1:]} == {"lightweather", "hi"}


def test_evaluate_mismatched_checkpoint_dims(synth_dir, trained_dir, tmp_path, capsys):
    cfg = data_config(
        synth_dir,
        tmp_path / "bad.cfg",
        out_dir=tmp_path / "out",
        checkpoint=trained_dir / "run" / "checkpoint.bin",
        d=16,
    )
    assert cli.main(["evaluate", "--config", str(cfg)]) == 4
    assert "checkpoint error" in capsys.readouterr().err


@pytest.mark.parametrize("batch_size", [0, -3])
def test_evaluate_batch_size_below_one_is_one_line_config_error(
    synth_dir, trained_dir, tmp_path, capsys, batch_size
):
    out = tmp_path / "out"
    cfg = data_config(synth_dir, tmp_path / "e.cfg", out_dir=out, batch_size=batch_size)
    argv = ["evaluate", "--config", str(cfg), "--checkpoint", str(trained(trained_dir))]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"config error: batch_size must be >= 1, got {batch_size}\n"
    assert not out.exists()


def edited_checkpoint(source, path, edit):
    """The checkpoint file `source` written to `path` with `edit` applied to
    its manifest; `edit` returns the manifest to write."""
    raw = Path(source).read_bytes()
    body = len(MAGIC) + 4
    (mlen,) = struct.unpack("<I", raw[len(MAGIC) : body])
    manifest = edit(json.loads(raw[body : body + mlen]))
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[body + mlen :])
    return path


def trained(trained_dir):
    return trained_dir / "run" / "checkpoint.bin"


def fails_in_one_line(synth_dir, tmp_path, capsys, command, checkpoint, **extra):
    """Run `command` on `checkpoint`; assert exit 4, one stderr line and no
    out_dir, and return that line."""
    out = tmp_path / "out"
    cfg = data_config(synth_dir, tmp_path / "run.cfg", out_dir=out, **extra)
    argv = [command, "--config", str(cfg), "--checkpoint", str(checkpoint)]
    if command == "forecast":
        argv += ["--timestamp", "2019-01-09T00:00:00"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and not out.exists()
    return err


def test_evaluate_checkpoint_without_dtype_is_one_line_error(
    synth_dir, trained_dir, tmp_path, capsys
):
    def drop_dtype(manifest):
        for entry in manifest["tensors"]:
            del entry["dtype"]
        return manifest

    path = edited_checkpoint(trained(trained_dir), tmp_path / "no_dtype.bin", drop_dtype)
    cfg = data_config(synth_dir, tmp_path / "e.cfg", out_dir=tmp_path / "out")
    assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "dtype" in err and err.count("\n") == 1


def test_evaluate_checkpoint_with_malformed_config_is_one_line_error(
    synth_dir, trained_dir, tmp_path, capsys
):
    def d_as_string(manifest):
        manifest["config"]["d"] = "4"
        return manifest

    path = edited_checkpoint(trained(trained_dir), tmp_path / "bad_config.bin", d_as_string)
    cfg = data_config(synth_dir, tmp_path / "e.cfg", out_dir=tmp_path / "out")
    assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and err.count("\n") == 1


def test_evaluate_checkpoint_whose_config_differs_only_in_n_vars_runs(
    synth_dir, trained_dir, tmp_path
):
    def four_vars(manifest):
        manifest["config"]["n_vars"] = 4
        return manifest

    path = edited_checkpoint(trained(trained_dir), tmp_path / "ck.bin", four_vars)
    cfg = data_config(synth_dir, tmp_path / "e.cfg", out_dir=tmp_path / "out")
    assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(path)]) == 0


def first_entry(**fields):
    """A manifest edit that updates the first tensor entry with `fields`,
    each a function of that entry."""

    def edit(manifest):
        entry = manifest["tensors"][0]
        entry.update({key: make(entry) for key, make in fields.items()})
        return manifest

    return edit


def relative_n_stations(manifest):
    manifest["config"]["n_stations"] = "3"
    return manifest


@pytest.mark.parametrize(
    "spatial, edit",
    [
        ("absolute", first_entry(shape=lambda e: "ab")),
        ("absolute", first_entry(shape=lambda e: [[n] for n in e["shape"]])),
        ("absolute", first_entry(shape=lambda e: [None, *e["shape"][1:]])),
        ("absolute", first_entry(name=lambda e: [e["name"]])),
        ("relative", relative_n_stations),
    ],
    ids=["shape-string", "shape-nested", "shape-null", "name-list", "relative-n_stations-string"],
)
def test_evaluate_checkpoint_with_malformed_manifest_is_one_line_error(
    synth_dir, tmp_path, capsys, spatial, edit
):
    source = tmp_path / "source.bin"
    checkpoint_save(source, init_params(replace(TINY_MODEL, spatial_encoding=spatial), 0))
    path = edited_checkpoint(source, tmp_path / "bad.bin", edit)
    for expected in (None, replace(TINY_MODEL, spatial_encoding=spatial)):
        with pytest.raises(errors.CheckpointError):
            checkpoint_load(path, expected)
    err = fails_in_one_line(synth_dir, tmp_path, capsys, "evaluate", path, spatial=spatial)
    assert err.startswith("checkpoint error:")


@pytest.mark.parametrize("command", ["evaluate", "forecast"])
def test_checkpoint_of_a_huge_layer_count_builds_no_spec(
    synth_dir, tmp_path, capsys, monkeypatch, command
):
    # 10**9 layers: a spec of 4e9 entries; the data section is compared with
    # the parameter count first
    real_spec = checkpoint.tensor_spec

    def small_specs_only(config):
        assert config.n_layers < 1000, "checkpoint_load built the manifest's spec"
        return real_spec(config)

    monkeypatch.setattr(checkpoint, "tensor_spec", small_specs_only)
    source = tmp_path / "source.bin"
    checkpoint_save(source, init_params(TINY_MODEL, 0))

    def huge(manifest):
        manifest["config"]["n_layers"] = 10**9
        return manifest

    path = edited_checkpoint(source, tmp_path / "huge.bin", huge)
    with pytest.raises(errors.CheckpointError, match="cannot hold the 40000000327 parameters"):
        checkpoint_load(path)
    err = fails_in_one_line(synth_dir, tmp_path, capsys, command, path)
    assert err.startswith("checkpoint error:") and "cannot hold" in err


@pytest.mark.parametrize("command", ["evaluate", "forecast"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
def test_checkpoint_value_outside_float32_range_is_one_line_error(
    synth_dir, tmp_path, capsys, command, value
):
    params = init_params(TINY_MODEL, 0)
    params.tensors["fc_regress.bias"][0] = value
    checkpoint_save(tmp_path / "ck.bin", params)
    err = fails_in_one_line(synth_dir, tmp_path, capsys, command, tmp_path / "ck.bin")
    assert err.startswith("checkpoint error:") and "fc_regress.bias" in err


@pytest.mark.parametrize(
    "command,message",
    [("evaluate", "non-finite metrics"), ("forecast", "non-finite forecast")],
    ids=["evaluate", "forecast"],
)
def test_checkpoint_whose_float32_forward_overflows_is_one_line_error(
    synth_dir, tmp_path, capsys, command, message
):
    # forecast runs in float64, where its values (near 5e38) are finite, but
    # rejects them as evaluate's float32 run does
    params = init_params(TINY_MODEL, 0)
    params.tensors["fc_embed.weight"][:] = 3e38  # finite in float32, not once summed
    checkpoint_save(tmp_path / "ck.bin", params)
    err = fails_in_one_line(synth_dir, tmp_path, capsys, command, tmp_path / "ck.bin")
    assert err.startswith("evaluation error:") and message in err


def test_forecast_whose_float64_forward_overflows_is_one_line_error(synth_dir, tmp_path, capsys):
    # every value 3e38: each of the 8 linear layers multiplies by about 1e39
    params = init_params(replace(TINY_MODEL, n_layers=3), 0)
    for tensor in params.tensors.values():
        tensor[:] = 3e38
    checkpoint_save(tmp_path / "ck.bin", params)
    err = fails_in_one_line(
        synth_dir, tmp_path, capsys, "forecast", tmp_path / "ck.bin", layers=3
    )
    assert err.startswith("evaluation error:") and "non-finite forecast" in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# where in the trained checkpoint's manifest a generated value goes: the
# whole manifest, its config or tensor list, one config value, one tensor
# entry, or one entry's name, shape or dtype
MANIFEST_PLACES = [
    (),
    ("config",),
    ("tensors",),
    *(("config", key) for key in asdict(TINY_MODEL)),
    *(("tensors", i) for i in range(len(tensor_spec(TINY_MODEL)))),
    *(
        ("tensors", i, key)
        for i in range(len(tensor_spec(TINY_MODEL)))
        for key in ("name", "shape", "dtype")
    ),
]


def put(manifest, place, value):
    """`manifest` with the value at `place` replaced by `value`."""
    if not place:
        return value
    parent = manifest
    for key in place[:-1]:
        parent = parent[key]
    parent[place[-1]] = value
    return manifest


@settings(max_examples=40, deadline=None)
@given(
    corruption=st.one_of(
        st.tuples(st.just("manifest"), st.sampled_from(MANIFEST_PLACES), JSON_VALUES),
        st.tuples(st.just("byte"), st.integers(0, 2**32), st.integers(0, 255)),
    )
)
def test_corrupted_checkpoint_exits_0_with_finite_metrics_or_4_in_one_line(
    synth_dir, trained_dir, tmp_path_factory, corruption
):
    work = tmp_path_factory.mktemp("corrupt")
    kind, where, value = corruption
    path = work / "checkpoint.bin"
    if kind == "manifest":
        edited_checkpoint(trained(trained_dir), path, lambda m: put(m, where, value))
    else:
        raw = bytearray(trained(trained_dir).read_bytes())
        raw[where % len(raw)] = value
        path.write_bytes(raw)
    out = work / "out"
    cfg = data_config(synth_dir, work / "run.cfg", out_dir=out)
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(path)])
    assert code in (0, 4), stderr.getvalue()
    if code == 4:
        assert stderr.getvalue().count("\n") == 1 and not out.exists()
    else:
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(np.isfinite(float(r[k])) for r in rows for k in ("mse", "mae"))


# --- forecast --------------------------------------------------------------


def test_forecast_row_count_and_roundtrip(synth_dir, trained_dir, tmp_path, monkeypatch):
    cfg = data_config(
        synth_dir,
        tmp_path / "f.cfg",
        out_dir=tmp_path / "fc",
        checkpoint=trained_dir / "run" / "checkpoint.bin",
    )
    made = []  # forecast reads the float64 series: no split makes its rows
    series_rows = data.series_rows
    monkeypatch.setattr(data, "series_rows", lambda *args: made.append(args) or series_rows(*args))
    # timestamp 100 steps in: 2019-01-05T04:00
    assert (
        cli.main(
            ["forecast", "--config", str(cfg), "--timestamp", "2019-01-05T04:00:00"]
        )
        == 0
    )
    assert made == []
    with open(tmp_path / "fc" / "forecasts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["station_id", "step", "var", "value"]
    assert len(rows) - 1 == 3 * 2 * 1  # T_f * N * C
    ids, coords = load_stations_csv(synth_dir / "stations.csv")
    again = load_observations_csv(tmp_path / "fc" / "forecast_obs.csv", ids, coords)
    assert again.n_steps == 3


def test_forecast_out_of_range_timestamp(synth_dir, trained_dir, tmp_path, capsys):
    cfg = data_config(
        synth_dir,
        tmp_path / "f2.cfg",
        out_dir=tmp_path / "fc2",
        checkpoint=trained_dir / "run" / "checkpoint.bin",
    )
    assert (
        cli.main(
            ["forecast", "--config", str(cfg), "--timestamp", "2030-01-01T00:00:00"]
        )
        == 4
    )
    assert "validation error" in capsys.readouterr().err


def test_a_bad_forecast_timestamp_is_reported_before_the_files_are_read(
    trained_dir, tmp_path, capsys
):
    """--timestamp is parsed first: with a missing observations file it is
    still a config error, exit 1, not an ingestion error."""
    cfg = write_config(
        tmp_path / "f.cfg",
        TINY,
        stations_csv=tmp_path / "nope.csv",
        observations_csv=tmp_path / "also_nope.csv",
        out_dir=tmp_path / "out",
        checkpoint=trained_dir / "run" / "checkpoint.bin",
    )
    assert cli.main(["forecast", "--config", str(cfg), "--timestamp", "notatime"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bad timestamp") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "forecast"])
def test_a_missing_checkpoint_is_reported_before_the_dataset_is_read(
    synth_dir, tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(cli, "_load_dataset", lambda cfg: pytest.fail("the dataset was read"))
    cfg = data_config(
        synth_dir, tmp_path / "run.cfg", out_dir=tmp_path / "out", checkpoint=tmp_path / "no.bin"
    )
    flags = ["--timestamp", "2019-01-05T04:00:00"] if command == "forecast" else []
    assert cli.main([command, "--config", str(cfg), *flags]) == 4
    assert capsys.readouterr().err == f"checkpoint error: checkpoint not found: {tmp_path / 'no.bin'}\n"
    assert not (tmp_path / "out").exists()


def test_forecast_matches_evaluate_window(synth_dir, trained_dir, tmp_path):
    from lightweather.data import split_windows
    from lightweather.model import TimeFeature, forward, forward_batch, normalize_coords
    from lightweather.data import normalize_apply, normalize_invert

    cfg = data_config(
        synth_dir,
        tmp_path / "f3.cfg",
        out_dir=tmp_path / "fc3",
        checkpoint=trained_dir / "run" / "checkpoint.bin",
    )
    ids, coords = load_stations_csv(synth_dir / "stations.csv")
    obs = load_observations_csv(synth_dir / "observations.csv", ids, coords)
    when = obs.timestamps[190]  # inside the test span [176, 220)
    assert cli.main(["forecast", "--config", str(cfg), "--timestamp", when.isoformat()]) == 0

    mc = ModelConfig(d=4, n_layers=1, t_h=6, t_f=3, n_vars=1)
    params = checkpoint_load(trained_dir / "run" / "checkpoint.bin", mc)
    prepared = split_windows(obs, 6, 3)
    ws = prepared.test
    k = int(np.where(ws.starts == 190 - 6)[0][0])
    start = ws.starts[k]
    history = normalize_apply(obs.values[start : start + 6], prepared.normalizer)
    b = ws.batch([k])  # the window evaluate scores is this history, in float32 rows
    assert b["history"].tobytes() == history.transpose(1, 2, 0).astype(np.float32).tobytes()
    pred, _ = forward_batch(history[None], normalize_coords(obs.coords), *ws.calendar[[k]].T, params)
    expected = normalize_invert(pred[0], prepared.normalizer)

    got = {}
    with open(tmp_path / "fc3" / "forecasts.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            got[(row["station_id"], int(row["step"]))] = float(row["value"])
    for si, sid in enumerate(obs.station_ids):
        for step in range(3):
            assert got[(sid, step)] == pytest.approx(expected[step, si, 0], rel=1e-12)

    # the command is model.forward on the window, to the bit
    one = forward(history, obs.coords, TimeFeature.from_timestamp(when), params)
    exact = normalize_invert(one, prepared.normalizer)
    again = load_observations_csv(tmp_path / "fc3" / "forecast_obs.csv", ids, coords)
    for si, sid in enumerate(obs.station_ids):
        for step in range(3):
            assert got[(sid, step)] == exact[step, si, 0]
            assert again.values[step, si, 0] == exact[step, si, 0]


def test_forecast_from_the_cached_data_writes_the_same_bytes(
    synth_dir, trained_dir, tmp_path, monkeypatch
):
    """The first forecast parses a fresh copy of the data and caches it
    beside it; the second reads the cache, parses nothing, and writes
    byte-identical forecasts.csv and forecast_obs.csv."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for name in ("stations.csv", "observations.csv"):
        (data_dir / name).write_bytes((synth_dir / name).read_bytes())
    outputs = []
    for run in ("miss", "hit"):
        if run == "hit":
            assert (data_dir / "observations.csv.lwcache").exists()
            for method in ("parse_block", "parse_records"):
                monkeypatch.setattr(data._ObservationGrid, method, None)  # calling it raises
        cfg = data_config(
            data_dir,
            tmp_path / f"{run}.cfg",
            out_dir=tmp_path / run,
            checkpoint=trained_dir / "run" / "checkpoint.bin",
        )
        argv = ["forecast", "--config", str(cfg), "--timestamp", "2019-01-05T04:00:00"]
        assert cli.main(argv) == 0
        outputs.append(
            [(tmp_path / run / name).read_bytes() for name in ("forecasts.csv", "forecast_obs.csv")]
        )
    assert outputs[0] == outputs[1]


def test_forecast_of_one_instant_written_at_two_utc_offsets_writes_the_same_bytes(tmp_path):
    """On UTC data, 04:00+00:00 and 05:00+01:00 name one step. The forecast
    takes that step's calendar and timestamps from the data, as evaluate
    does, so both spellings write the same forecasts.csv and
    forecast_obs.csv."""
    synth = write_config(
        tmp_path / "synth.cfg", TINY, out_dir=tmp_path / "data", synth_start="2019-01-01T00:00:00+00:00"
    )
    assert cli.main(["synth", "--config", str(synth)]) == 0
    checkpoint_save(tmp_path / "ck.bin", init_params(TINY_MODEL, 0))
    outputs = []
    for run, when in enumerate(("2019-01-05T04:00:00+00:00", "2019-01-05T05:00:00+01:00")):
        cfg = data_config(
            tmp_path / "data", tmp_path / f"{run}.cfg", out_dir=tmp_path / str(run), checkpoint=tmp_path / "ck.bin"
        )
        assert cli.main(["forecast", "--config", str(cfg), "--timestamp", when]) == 0
        outputs.append(
            [(tmp_path / str(run) / name).read_bytes() for name in ("forecasts.csv", "forecast_obs.csv")]
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][1].splitlines()[1].startswith(b"2019-01-05T04:00:00+00:00,")


@pytest.mark.parametrize(
    "synth_start, when, message",
    [
        (
            "2019-01-01T00:00:00+00:00",
            "2019-01-05T04:00:00",
            "timestamp 2019-01-05T04:00:00 has no UTC offset, but the observations' "
            "timestamps carry one",
        ),
        (
            "2019-01-01T00:00:00",
            "2019-01-05T04:00:00+00:00",
            "timestamp 2019-01-05T04:00:00+00:00 has a UTC offset, but the observations' "
            "timestamps carry none",
        ),
    ],
    ids=["naive-on-aware-data", "aware-on-naive-data"],
)
def test_forecast_timestamp_whose_offset_kind_differs_from_the_data_is_one_line_error(
    tmp_path, capsys, synth_start, when, message
):
    """Step 100 of the data, with 6 prior steps, written with a UTC offset
    where the data has none or without one where it has: a naive and an
    aware datetime never compare equal, so the error says which carries
    the offset rather than that the step is out of range."""
    synth = write_config(
        tmp_path / "synth.cfg", TINY, out_dir=tmp_path / "data", synth_start=synth_start
    )
    assert cli.main(["synth", "--config", str(synth)]) == 0
    checkpoint_save(tmp_path / "ck.bin", init_params(TINY_MODEL, 0))
    cfg = data_config(
        tmp_path / "data", tmp_path / "f.cfg", out_dir=tmp_path / "out", checkpoint=tmp_path / "ck.bin"
    )
    capsys.readouterr()
    assert cli.main(["forecast", "--config", str(cfg), "--timestamp", when]) == 4
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (tmp_path / "out").exists()


# --- ablate / sweep / param-count -------------------------------------------


def test_ablate_report_format(synth_dir, tmp_path):
    cfg = data_config(
        synth_dir, tmp_path / "a.cfg", out_dir=tmp_path / "ab", max_epochs=1, patience=1
    )
    assert cli.main(["ablate", "--config", str(cfg)]) == 0
    with open(tmp_path / "ab" / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["spatial", "temporal", "seed", "mse", "mae"]
    assert len(rows) - 1 == 4 * 3  # grid x default three seeds


def test_sweep_row_count(synth_dir, tmp_path):
    cfg = data_config(
        synth_dir,
        tmp_path / "s.cfg",
        out_dir=tmp_path / "sw",
        max_epochs=1,
        patience=1,
        sweep_d="2,4",
        sweep_layers="1,2",
    )
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["d", "layers", "val_mse", "val_mae", "params", "epoch_seconds"]
    assert len(rows) - 1 == 4


def test_param_count_defaults(capsys):
    assert cli.main(["param-count"]) == 0
    out = capsys.readouterr().out
    assert "enumerated: 25880" in out
    assert "closed_form: 25870" in out


def test_param_count_of_a_huge_layer_count_builds_no_spec(tmp_path, capsys, monkeypatch):
    # 100,000 layers: a spec of 400,000 entries; the count is arithmetic
    def must_not_run(config):
        raise AssertionError("param-count built the tensor spec")

    monkeypatch.setattr(model, "tensor_spec", must_not_run)
    cfg = write_config(tmp_path / "pc.cfg", "layers = 100000\n")
    assert cli.main(["param-count", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "enumerated: 832009240" in out
    assert "closed_form: 832009230" in out


def test_param_count_d32(tmp_path, capsys):
    cfg = write_config(tmp_path / "pc.cfg", "d = 32\n")
    assert cli.main(["param-count", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "enumerated: 8856" in out
    assert "closed_form: 8910" in out
