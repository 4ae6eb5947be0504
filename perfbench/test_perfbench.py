"""Tests of the benchmark's own helpers: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from lightweather import data, model, numerics, training  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_only_the_covered_part_of_children():
    spans = [
        Span("fit", 0.0, 10.0, -1),
        Span("batch", 1.0, 3.0, 0),
        Span("loss", 4.0, 9.0, 0),
        Span("linear", 5.0, 6.0, 2),
        Span("linear", 7.0, 8.5, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 2.5, 1.0, 1.5])
    summary = tracing.summarize(spans, ["adam"])
    assert summary["linear"] == {
        "calls": 2,
        "s": pytest.approx(2.5),
        "self_s": pytest.approx(2.5),
    }
    assert summary["adam"]["calls"] == 0 and summary["adam"]["s"] == 0.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("outer", 0.0, 4.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a and runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_nested_spans_of_one_name_count_once_in_inclusive_time():
    spans = [Span("f", 0.0, 4.0, -1), Span("f", 1.0, 2.0, 0), Span("g", 1.2, 1.7, 1)]
    summary = tracing.summarize(spans)
    assert summary["f"]["s"] == pytest.approx(4.0)
    assert summary["f"]["self_s"] == pytest.approx(3.0 + 0.5)
    assert tracing.time_within(spans, "g", "f") == pytest.approx(0.5)
    assert tracing.time_within(spans, "f", "g") == 0.0


def test_computed_cost_of_one_linear_call():
    layer = numerics.LinearLayer(weight=np.ones((4, 3)), bias=np.zeros(4))
    x = np.ones((10, 3))
    y = numerics.linear_forward(x, layer)
    fwd = tracing.linear_forward_cost((x, layer), {}, y)
    # 2 n d_in d_out; 8 bytes x (x: 30, W: 12, b: 4, y: 40)
    assert fwd == {"numerics.linear.flop": 240.0, "numerics.linear.bytes": 8.0 * 86}
    grads = numerics.linear_backward(x, layer, np.ones((10, 4)))
    bwd = tracing.linear_backward_cost((x, layer, np.ones((10, 4))), {}, grads)
    # reads x 30, g 40, W 12; writes grad_x 30, grad_W 12, grad_b 4
    assert bwd == {"numerics.linear.flop": 480.0, "numerics.linear.bytes": 8.0 * 128}


def _bindings() -> dict[tuple, int]:
    """id of every attribute of every package module and of WindowSet."""
    out = {}
    for mod in tracing.package_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = id(obj)
    for attr, obj in vars(data.WindowSet).items():
        out[("WindowSet", attr)] = id(obj)
    return out


def _tiny_forward():
    cfg = model.ModelConfig(d=4, n_layers=1, t_h=3, t_f=2)
    params = model.init_params(cfg, seed=0)
    coords = [model.StationCoord(10.0, 20.0, 100.0), model.StationCoord(-5.0, 1.0, 0.0)]
    return model.forward(np.ones((3, 2, 1)), coords, model.TimeFeature(1, 2, 3), params)


def test_wrappers_are_installed_at_every_lookup_name_and_fully_removed():
    original = _bindings()
    originals = {
        "numerics": numerics.linear_forward,
        "model": model.linear_forward,
        "batch": data.WindowSet.batch,
        "fit": training.fit,
    }
    tracer = tracing.Tracer()
    with tracer:
        assert numerics.linear_forward is not originals["numerics"]
        assert model.linear_forward is not originals["model"]  # the importer's name
        assert model.linear_forward.__wrapped__ is originals["numerics"]
        assert data.WindowSet.batch is not originals["batch"]
        assert training.fit is not originals["fit"]
        expected = _tiny_forward()
    assert _bindings() == original
    assert numerics.linear_forward is originals["numerics"]
    assert model.linear_forward is originals["model"]
    assert data.WindowSet.batch is originals["batch"]
    assert not any(hasattr(fn, "__wrapped__") for fn in originals.values())

    by_name = {s.name: s for s in tracer.spans}
    forward = tracer.spans.index(by_name["model.forward"])
    assert by_name["model.forward_batch"].parent == forward
    assert tracer.counters["numerics.linear.flop"] > 0

    recorded = len(tracer.spans)
    np.testing.assert_array_equal(_tiny_forward(), expected)
    assert len(tracer.spans) == recorded  # nothing records once removed


def test_only_public_functions_defined_in_the_package_are_traced():
    names = {name for name, _, _, _ in tracing.traced_targets(tracing.package_modules()).values()}
    assert {"numerics.linear_forward", "data.WindowSet.batch", "cli.cmd_forecast"} <= names
    assert not any(n.split(".")[-1].startswith("_") for n in names)
    assert not any(n.startswith("lightweather") for n in names)  # package re-exports


def test_traced_run_reports_every_per_layer_metric_of_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    cfg = model.ModelConfig(d=4, n_layers=1, t_h=3, t_f=2)
    obs = workloads.synthetic.generate(
        workloads.synthetic.SynthConfig(n_stations=2, n_steps=200, seed=0),
        workloads.synthetic.random_station_coords(2, 0)[1],
    )
    prep = data.split_windows(obs, cfg.t_h, cfg.t_f)
    tracer = tracing.Tracer()
    with tracer:
        training.fit(
            model.init_params(cfg, 0),
            prep.train,
            prep.val,
            model.normalize_coords(obs.coords),
            training.TrainConfig(max_epochs=1, patience=1),
            prep.normalizer,
        )
    metrics = workloads.layer_metrics(tracer, 1.0)
    shares = workloads.layer_shares(tracer)
    assert list(shares) == ["numerics share of training.fit"]  # no forecast ran
    assert 0.0 < shares["numerics share of training.fit"] < 1.0
    for spec in bench["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec
    assert metrics["numerics.adam_step.calls"]["value"] > 0
    assert metrics["data.load_observations_csv.s"]["value"] == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (11, (9, 0.0)), (20, (50, 9.0)), (100, (90, 89.0))],
)
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    assert workloads.tail_percentile(samples) == expected
    if expected is not None:
        assert sum(s > expected[1] for s in samples) >= 10


def test_same_bits_flags_the_smallest_change():
    first: dict = {}
    assert workloads.same_bits(first, "val_mae", 0.5) is None
    assert workloads.same_bits(first, "val_mae", 0.5) is None
    assert workloads.same_bits(first, "val_mae", np.nextafter(0.5, 1.0)) is not None
    assert workloads.same_bits(first, "loss", float("nan")) is not None


def test_ledger_counts_a_failure_instead_of_raising():
    ledger = workloads.Ledger()
    assert ledger.run("ok", lambda: 3) == 3
    assert ledger.run("raises", lambda: 1 / 0) is workloads.FAILED
    assert ledger.run("wrong", lambda: 4, lambda r: "wrong output") is workloads.FAILED
    assert ledger.attempted == 3 and len(ledger.failures) == 2
    assert list(ledger.seconds) == ["ok"]


def test_workloads_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
