import csv
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from lightweather import cli, errors
from lightweather.checkpoint import MAGIC
from lightweather.data import load_observations_csv, load_stations_csv

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
        ("synth", dict(synth_alpha="a,b"), None, 1, "config error: bad synth_alpha"),
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
    ],
    ids=[
        "relative-param-count-missing-stations",
        "non-numeric-alpha",
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


# --- synth -----------------------------------------------------------------


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


def edited_checkpoint(trained_dir, path, edit):
    """The trained checkpoint written to `path` with `edit` applied to its
    manifest."""
    raw = (trained_dir / "run" / "checkpoint.bin").read_bytes()
    body = len(MAGIC) + 4
    (mlen,) = struct.unpack("<I", raw[len(MAGIC) : body])
    manifest = json.loads(raw[body : body + mlen])
    edit(manifest)
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[body + mlen :])
    return path


def test_evaluate_checkpoint_without_dtype_is_one_line_error(
    synth_dir, trained_dir, tmp_path, capsys
):
    def drop_dtype(manifest):
        for entry in manifest["tensors"]:
            del entry["dtype"]

    path = edited_checkpoint(trained_dir, tmp_path / "no_dtype.bin", drop_dtype)
    cfg = data_config(synth_dir, tmp_path / "e.cfg", out_dir=tmp_path / "out")
    assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "dtype" in err and err.count("\n") == 1


def test_evaluate_checkpoint_with_malformed_config_is_one_line_error(
    synth_dir, trained_dir, tmp_path, capsys
):
    def d_as_string(manifest):
        manifest["config"]["d"] = "4"

    path = edited_checkpoint(trained_dir, tmp_path / "bad_config.bin", d_as_string)
    cfg = data_config(synth_dir, tmp_path / "e.cfg", out_dir=tmp_path / "out")
    assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and err.count("\n") == 1


# --- forecast --------------------------------------------------------------


def test_forecast_row_count_and_roundtrip(synth_dir, trained_dir, tmp_path):
    cfg = data_config(
        synth_dir,
        tmp_path / "f.cfg",
        out_dir=tmp_path / "fc",
        checkpoint=trained_dir / "run" / "checkpoint.bin",
    )
    # timestamp 100 steps in: 2019-01-05T04:00
    assert (
        cli.main(
            ["forecast", "--config", str(cfg), "--timestamp", "2019-01-05T04:00:00"]
        )
        == 0
    )
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


def test_forecast_matches_evaluate_window(synth_dir, trained_dir, tmp_path):
    from lightweather.checkpoint import checkpoint_load
    from lightweather.data import split_windows
    from lightweather.model import (
        ModelConfig,
        TimeFeature,
        batch_to_rows,
        forward,
        forward_batch,
        normalize_coords,
    )
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
    assert b["history"].tobytes() == batch_to_rows(history[None]).astype(np.float32).tobytes()
    pred, _ = forward_batch(
        history[None], normalize_coords(obs.coords), b["hours"], b["days"], b["months"], params
    )
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


def test_param_count_d32(tmp_path, capsys):
    cfg = write_config(tmp_path / "pc.cfg", "d = 32\n")
    assert cli.main(["param-count", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "enumerated: 8856" in out
    assert "closed_form: 8910" in out
