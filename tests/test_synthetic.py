import hashlib
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest.mock import patch
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from lightweather import model as lw_model
from lightweather import synthetic
from lightweather.errors import ConfigError
from lightweather.model import StationCoord
from lightweather.synthetic import (
    SynthConfig,
    generate,
    random_station_coords,
)
from oracles import g_function, g_matrix, observations_at, time_axis_of


def coords_for(n, seed=0):
    return random_station_coords(n, seed)[1]


def test_zero_amplitudes_give_zero_forcing():
    cfg = SynthConfig(amp_diurnal=0.0, amp_annual=0.0, amp_elev=0.0)
    c = StationCoord(45.0, 90.0, 1200.0)
    assert g_function(c, datetime(2020, 6, 15, 13), cfg) == 0.0


def test_diurnal_term_vanishes_at_pole():
    cfg = SynthConfig(amp_diurnal=5.0, amp_annual=0.0, amp_elev=0.0)
    pole = StationCoord(90.0, 30.0, 0.0)
    vals = [g_function(pole, datetime(2020, 1, 1, h), cfg) for h in range(24)]
    assert_allclose(vals, 0.0, atol=1e-12)


def test_g_function_is_pure():
    cfg = SynthConfig()
    c = StationCoord(-12.0, 77.0, 300.0)
    ts = datetime(2021, 3, 9, 4)
    assert g_function(c, ts, cfg) == g_function(c, ts, cfg)


def test_g_matrix_matches_scalar():
    cfg = SynthConfig()
    coords = coords_for(4)
    timestamps = [datetime(2020, 1, 1) + timedelta(hours=k) for k in range(50)]
    grid = g_matrix(coords, timestamps, cfg)
    for ti in (0, 13, 49):
        for si in range(4):
            assert grid[ti, si] == pytest.approx(
                g_function(coords[si], timestamps[ti], cfg), rel=1e-12
            )


def test_recurrence_collapses_without_ar_and_noise():
    cfg = SynthConfig(n_stations=3, n_steps=200, alpha=(), noise_std=0.0, seed=5)
    coords = coords_for(3)
    obs = generate(cfg, coords)
    grid = g_matrix(coords, obs.timestamps, cfg)
    assert_array_equal(obs.values[:, :, 0], grid)


def test_recurrence_replay_noise_free():
    cfg = SynthConfig(
        n_stations=2, n_steps=300, alpha=(0.4, 0.2, -0.1), noise_std=0.0, seed=9
    )
    coords = coords_for(2)
    obs = generate(cfg, coords)
    v = obs.values[:, :, 0]
    p = len(cfg.alpha)
    for si in range(2):
        for t in range(p, cfg.n_steps):
            expect = g_function(coords[si], obs.timestamps[t], cfg)
            for i, a in enumerate(cfg.alpha):
                expect += a * v[t - 1 - i, si]
            assert abs(v[t, si] - expect) <= 1e-9


def test_same_seed_bit_identical():
    cfg = SynthConfig(n_stations=3, n_steps=150, alpha=(0.3,), noise_std=0.7, seed=4)
    coords = coords_for(3)
    assert_array_equal(generate(cfg, coords).values, generate(cfg, coords).values)


def test_different_seeds_differ():
    coords = coords_for(2)
    a = generate(SynthConfig(n_stations=2, n_steps=100, noise_std=1.0, seed=1), coords)
    b = generate(SynthConfig(n_stations=2, n_steps=100, noise_std=1.0, seed=2), coords)
    assert not np.array_equal(a.values, b.values)


def test_unstable_alpha_rejected():
    with pytest.raises(ConfigError, match="unstable"):
        SynthConfig(alpha=(0.8, 0.3)).validate()


def test_station_streams_are_independent():
    # changing another station's coordinates must not disturb station 0
    base = SynthConfig(n_stations=2, n_steps=120, alpha=(0.2,), noise_std=0.5, seed=11)
    c1 = coords_for(2, seed=0)
    c2 = [c1[0], StationCoord(60.0, -120.0, 2000.0)]
    a = generate(base, c1)
    b = generate(base, c2)
    assert_array_equal(a.values[:, 0, 0], b.values[:, 0, 0])
    assert not np.array_equal(a.values[:, 1, 0], b.values[:, 1, 0])


def test_warmup_observes_ar_effect_from_first_step():
    cfg = SynthConfig(n_stations=1, n_steps=50, alpha=(0.5,), noise_std=0.0, seed=3)
    obs = generate(cfg, coords_for(1))
    v = obs.values[:, 0, 0]
    # step 1 = 0.5 * warmup + G; warmup is a nonzero gaussian draw
    assert v[0] != 0.0
    g1 = g_function(obs.coords[0], obs.timestamps[1], cfg)
    assert v[1] == pytest.approx(0.5 * v[0] + g1, rel=1e-12)


def test_bounded_running_max_with_stable_alpha():
    cfg = SynthConfig(
        n_stations=2, n_steps=5000, alpha=(0.5, 0.3), noise_std=0.5, seed=8
    )
    coords = coords_for(2)
    obs = generate(cfg, coords)
    grid = g_matrix(coords, obs.timestamps, cfg)
    gain = 1.0 / (1.0 - sum(abs(a) for a in cfg.alpha))
    bound = gain * (np.abs(grid).max() + 6.0 * cfg.noise_std) + 10.0
    assert np.abs(obs.values).max() < bound


def test_config_validation_bounds():
    with pytest.raises(ConfigError):
        SynthConfig(n_steps=0).validate()
    with pytest.raises(ConfigError, match="n_steps"):
        SynthConfig(n_steps=100).validate(t_h=48, t_f=24)
    SynthConfig(n_steps=720).validate(t_h=48, t_f=24)


def test_span_may_end_at_the_last_hour_before_year_10000():
    last_day = datetime(9999, 12, 31, 0, 30)
    SynthConfig(n_steps=24, start=last_day).validate()  # ends at 23:30
    with pytest.raises(ConfigError, match="past the year 9999"):
        SynthConfig(n_steps=25, start=last_day).validate()
    # the span in hours is far beyond what a timedelta can hold
    with pytest.raises(ConfigError, match="past the year 9999"):
        SynthConfig(n_steps=10, interval_hours=10**20).validate()
    aware = datetime(9999, 12, 31, tzinfo=timezone(timedelta(hours=5)))
    SynthConfig(n_steps=24, start=aware).validate()
    with pytest.raises(ConfigError, match="past the year 9999"):
        SynthConfig(n_steps=25, start=aware).validate()


def test_generate_rejects_wrong_coord_count():
    cfg = SynthConfig(n_stations=3, n_steps=100)
    with pytest.raises(ConfigError):
        generate(cfg, coords_for(2))


def test_observation_set_interchangeable_with_loader(tmp_path):
    from lightweather.data import (
        load_observations_csv,
        load_stations_csv,
        write_observations_csv,
        write_stations_csv,
    )

    cfg = SynthConfig(n_stations=2, n_steps=60, noise_std=0.3, seed=6)
    ids, coords = random_station_coords(2, 6)
    obs = generate(cfg, coords)
    write_stations_csv(tmp_path / "stations.csv", ids, coords)
    write_observations_csv(tmp_path / "observations.csv", obs)
    back_ids, back_coords = load_stations_csv(tmp_path / "stations.csv")
    again = load_observations_csv(tmp_path / "observations.csv", back_ids, back_coords)
    assert_array_equal(again.values, obs.values)
    assert again.timestamps == obs.timestamps


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "tz",
    [None, timezone(timedelta(hours=5, minutes=30)), ZoneInfo("Europe/Paris")],
    ids=["naive", "fixed-offset", "zone"],
)
def test_hourly_values_across_a_leap_day_keep_their_bits(tz):
    """Four days from 2024-02-28, with an AR term and noise: the digest of
    the values that generate made from datetime's hour, minute and
    tm_yday, before it read them from the integer axis."""
    cfg = SynthConfig(
        n_stations=6, n_steps=96, alpha=(0.3,), noise_std=0.5, seed=3,
        start=datetime(2024, 2, 28, tzinfo=tz),
    )
    obs = generate(cfg, coords_for(6, 3))
    assert digest(obs.values) == "e19a83ad33b36ef94b93d85a5c3dce6b5af74e978e61e725fa66d9f1328aaac1"
    assert obs.timestamps == [cfg.start + k * synthetic.HOUR for k in range(96)]
    assert_array_equal(obs.time_axis.keys, time_axis_of(obs.timestamps).keys)
    assert_array_equal(obs.time_axis.offsets, time_axis_of(obs.timestamps).offsets)


@pytest.mark.parametrize(
    "start, n_steps, sha256",
    [
        (datetime(2024, 3, 29), 120, "b8b7fb8bbd7971e4741d937c5454e1d024a916deb8916ba386163092c16fa615"),
        (datetime(2024, 10, 25, 20), 400, "371394125eaa60fee97741f43fd9c0283edc2013f6a60123745e84139925e6c7"),
    ],
    ids=["spring-forward", "fall-back"],
)
def test_a_zone_start_across_a_dst_change_writes_the_same_csv_bytes(
    tmp_path, start, n_steps, sha256
):
    """A Europe/Paris start whose steps cross a DST change: the digest of
    the CSV that generate wrote when it kept a datetime per step in the
    zone, which the set's fixed-offset spelling must repeat byte for byte."""
    from lightweather.data import write_observations_csv

    cfg = SynthConfig(
        n_stations=3, n_steps=n_steps, alpha=(0.5,), noise_std=0.5,
        start=start.replace(tzinfo=ZoneInfo("Europe/Paris")),
    )
    obs = generate(cfg, random_station_coords(3, 0)[1])
    assert len(set(obs.time_axis.offsets.tolist())) == 2  # +01:00 and +02:00
    write_observations_csv(tmp_path / "o.csv", obs)
    assert hashlib.sha256((tmp_path / "o.csv").read_bytes()).hexdigest() == sha256


def test_half_hourly_forcing_across_a_leap_day_keeps_its_bits():
    """The forcing at 30-minute steps, where minute / 60.0 is not zero: the
    digest of the rows _Forcing made from datetime's fields."""
    stamps = [datetime(2024, 2, 28) + k * timedelta(minutes=30) for k in range(192)]
    grid = g_matrix(coords_for(6, 3), stamps, SynthConfig(n_stations=6, n_steps=96, seed=3))
    assert digest(grid) == "ad27e48b24b18d77dcc77dd8f6066eade19ac01b162dc445ac795c4765f19121"


# --- the blocked generator against the full-grid reference ----------------


def reference_g_matrix(coords, timestamps, config):
    """The full-grid forcing that generate used to build, kept verbatim."""
    hour = np.array([ts.hour + ts.minute / 60.0 for ts in timestamps])
    doy = np.array([ts.timetuple().tm_yday for ts in timestamps], dtype=np.float64)
    lat = np.array([c.latitude for c in coords])
    lon = np.array([c.longitude for c in coords])
    elev = np.array([c.elevation for c in coords])
    diurnal = config.amp_diurnal * np.sin(
        2.0 * np.pi * hour[:, None] / 24.0 + lon[None, :] * np.pi / 180.0
    ) * np.cos(lat[None, :] * np.pi / 180.0)
    annual = config.amp_annual * np.sin(2.0 * np.pi * doy / 365.25)
    return diurnal + annual[:, None] + config.amp_elev * (elev[None, :] / 1000.0)


def reference_random_station_coords(n, seed):
    """The per-station coordinate loop, kept verbatim."""
    rng = np.random.default_rng([seed, 7919])
    ids = [f"s{i:04d}" for i in range(n)]
    coords = [
        StationCoord(
            latitude=float(rng.uniform(-75.0, 75.0)),
            longitude=float(rng.uniform(-180.0, 180.0)),
            elevation=float(rng.uniform(0.0, 3000.0)),
        )
        for _ in range(n)
    ]
    return ids, coords


def reference_generate(config, coords):
    """The generator that built full [T, N] forcing and draw grids, kept
    verbatim as the reference whose bits generate must equal."""
    config.validate()
    if len(coords) != config.n_stations:
        raise ConfigError(
            f"got {len(coords)} coords for n_stations={config.n_stations}"
        )
    n_steps, n_stations = config.n_steps, config.n_stations
    step = timedelta(hours=config.interval_hours)
    timestamps = [config.start + i * step for i in range(n_steps)]
    forcing = reference_g_matrix(coords, timestamps, config)  # [T, N]

    draws = np.empty((n_steps, n_stations))
    for si in range(n_stations):
        draws[:, si] = np.random.default_rng([config.seed, si]).standard_normal(n_steps)

    p = len(config.alpha)
    alpha = np.asarray(config.alpha, dtype=np.float64)
    values = np.empty((n_steps, n_stations))
    values[:p] = draws[:p]  # warm-up, unit-variance
    if p == 0:
        values[:] = forcing + config.noise_std * draws
    else:
        for t in range(p, n_steps):
            ar = alpha @ values[t - p : t][::-1]  # v[t-1], v[t-2], ..., v[t-p]
            values[t] = ar + forcing[t] + config.noise_std * draws[t]

    ids = [f"s{i:04d}" for i in range(n_stations)]
    return observations_at(
        timestamps=timestamps,
        station_ids=ids,
        coords=list(coords),
        values=values[:, :, None],
        var_names=["v"],
        interval=step,
    )


amplitude = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 3.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def synth_configs(draw):
    p = draw(st.integers(0, 3))
    share = draw(st.floats(0.0, 0.999))  # of the stability limit sum |alpha| < 1
    alpha = tuple(
        a * share / p for a in draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p))
    )
    start = datetime(
        draw(st.integers(1990, 2030)),
        draw(st.integers(1, 12)),
        draw(st.integers(1, 28)),
        draw(st.integers(0, 23)),
        draw(st.integers(0, 59)),
        tzinfo=draw(st.sampled_from([None, timezone(timedelta(hours=5, minutes=30))])),
    )
    return SynthConfig(
        n_stations=draw(st.integers(1, 150)),
        n_steps=draw(st.integers(10 * max(p, 1), 600)),
        interval_hours=draw(st.integers(1, 29)),
        alpha=alpha,
        amp_diurnal=draw(amplitude),
        amp_annual=draw(amplitude),
        amp_elev=draw(amplitude),
        noise_std=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
        seed=draw(st.integers(0, 2**32)),
        start=start,
    )


def bits(coord: StationCoord) -> tuple[str, str, str]:
    return coord.latitude.hex(), coord.longitude.hex(), coord.elevation.hex()


@settings(max_examples=100, deadline=None)
@given(
    config=synth_configs(),
    station_block=st.sampled_from([synthetic.STATION_BLOCK, 1, 7]),
    row_block=st.sampled_from([synthetic.ROW_BLOCK, 1, 13]),
)
def test_generate_equals_the_full_grid_reference(config, station_block, row_block):
    ids, coords = random_station_coords(config.n_stations, config.seed)
    ref_ids, ref_coords = reference_random_station_coords(config.n_stations, config.seed)
    assert ids == ref_ids
    assert [bits(c) for c in coords] == [bits(c) for c in ref_coords]
    expected = reference_generate(config, ref_coords)
    # small blocks put block boundaries inside the warm-up and the recurrence
    with patch.object(synthetic, "STATION_BLOCK", station_block), patch.object(
        synthetic, "ROW_BLOCK", row_block
    ):
        got = generate(config, coords)
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.values.shape == expected.values.shape
    assert got.timestamps == expected.timestamps
    assert got.interval == expected.interval
    forcing = g_matrix(coords, got.timestamps, config)
    assert forcing.tobytes() == reference_g_matrix(coords, got.timestamps, config).tobytes()


def recording_workers(monkeypatch) -> list[list[tuple[int, int]]]:
    """From now on, the shapes of the buffers of each Workers that generate
    makes, one list a run."""
    made = []

    def workers(buffers):
        made.append([b.shape for b in buffers])
        return lw_model.Workers(buffers)

    monkeypatch.setattr(synthetic, "Workers", workers)
    return made


@pytest.mark.parametrize("cpus", [1, 2, 5])
@pytest.mark.parametrize(
    "alpha, station_block, row_block",
    [
        ((), synthetic.STATION_BLOCK, synthetic.ROW_BLOCK),
        ((0.5, -0.3), synthetic.STATION_BLOCK, synthetic.ROW_BLOCK),
        ((), 7, 13),
        ((0.6,), 3, 13),
    ],
    ids=["noise-only", "ar", "small-blocks", "ar-blocks-below-the-cpus"],
)
def test_generate_equals_the_full_grid_reference_on_every_worker_count(
    monkeypatch, switch_often, cpus, alpha, station_block, row_block
):
    # the noise blocks, and the forcing blocks without AR terms, run on
    # `cpus` workers that switch threads every microsecond
    config = SynthConfig(n_stations=150, n_steps=300, alpha=alpha, noise_std=0.5, seed=35)
    coords = coords_for(150)
    expected = reference_generate(config, coords)
    monkeypatch.setattr(lw_model, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(synthetic, "STATION_BLOCK", station_block)
    monkeypatch.setattr(synthetic, "ROW_BLOCK", row_block)
    made = recording_workers(monkeypatch)
    with switch_often():
        got = generate(config, coords)
    assert got.values.tobytes() == expected.values.tobytes()
    workers = lw_model.worker_count()  # 1 where OpenBLAS cannot be pinned
    blocks = [(station_block, 300)] + ([(row_block, 150)] if not alpha else [])
    assert len(made) == len(blocks)
    for shapes, (block, width) in zip(made, blocks):
        assert len(shapes) == min(workers, block)
        assert {w for _, w in shapes} == {width}
        assert sum(rows for rows, _ in shapes) <= block  # together one block at most


@pytest.mark.parametrize("phase", ["noise", "forcing"])
def test_an_error_in_a_block_reaches_the_caller_unchanged(monkeypatch, phase):
    monkeypatch.setattr(lw_model, "usable_cpus", lambda: 2)
    config = SynthConfig(n_stations=300, n_steps=600, noise_std=0.5, seed=2)
    error = RuntimeError("the block failed")
    if phase == "noise":  # station 200, in a block after the first of each worker
        failing = synthetic._seed_words(config.seed, np.array([200]))[0]
        seed_words = synthetic._SeedWords

        def fail_one_station(words):
            if np.array_equal(words, failing):
                raise error
            return seed_words(words)

        monkeypatch.setattr(synthetic, "_SeedWords", fail_one_station)
    else:  # rows from step 300 on
        rows = synthetic._Forcing.rows

        def fail_late_rows(self, t0, t1, out):
            if t0 >= 300:
                raise error
            return rows(self, t0, t1, out)

        monkeypatch.setattr(synthetic._Forcing, "rows", fail_late_rows)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        generate(config, coords_for(300))
    assert raised.value is error
    assert threading.active_count() == threads


@pytest.mark.parametrize("alpha", [(), (0.5, 0.3)], ids=["forcing-and-noise", "ar"])
def test_generate_peak_memory_is_at_most_one_and_a_half_values(monkeypatch, alpha):
    config = SynthConfig(n_stations=400, n_steps=2000, alpha=alpha, noise_std=0.5, seed=1)
    coords = coords_for(400)
    for cpus in (lw_model.usable_cpus(), 4):  # 4 as on CI runners
        monkeypatch.setattr(lw_model, "usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            obs = generate(config, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * obs.values.nbytes, (cpus, peak, obs.values.nbytes)


def test_a_grid_too_large_to_allocate_is_a_config_error(fail_allocation):
    cfg = SynthConfig(n_stations=7, n_steps=300, noise_std=0.5)
    calls = fail_allocation(300 * 7, lambda k: True)
    with pytest.raises(ConfigError, match="a grid of 300 x 7 values is too large to allocate"):
        generate(cfg, coords_for(7))
    assert calls == ["empty"]  # the grid is the first array of that size


def test_station_coordinates_are_drawn_before_the_ids(monkeypatch):
    class NoRoom:
        def uniform(self, low, high, size):
            raise MemoryError(f"no room for {size}")

    monkeypatch.setattr(synthetic.np.random, "default_rng", lambda seed: NoRoom())
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="the coordinates of 1000000 stations"):
            random_station_coords(1_000_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a million ids would hold ~60 MB


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100])
def test_seed_words_are_the_seed_sequence_state(seed):
    # the oracle is numpy's own SeedSequence; seeds of one to four 32-bit
    # words put the entropy below, at and past the pool of four
    stations = np.array([*range(301), 2**16])
    words = synthetic._seed_words(seed, stations)
    expected = [
        np.random.SeedSequence([seed, int(si)]).generate_state(4, np.uint64) for si in stations
    ]
    assert words.dtype == np.uint64
    assert words.tobytes() == np.array(expected).tobytes()
    for i in (0, 300, 301):  # PCG64 seeded from the words is default_rng's
        seeded = np.random.PCG64(synthetic._SeedWords(words[i]))
        assert seeded.state == np.random.PCG64([seed, int(stations[i])]).state


def test_forcing_rows_take_from_the_table_without_a_block_sized_copy(monkeypatch):
    # np.take with mode="raise" copies its whole output through a buffer,
    # which puts generate's peak most of a [ROW_BLOCK, N] block above what
    # the layout says it holds: values, the noise buffers, the diurnal table
    # and the forcing blocks, one of each in all, at any worker count
    n_stations, n_steps = 1000, 600
    config = SynthConfig(n_stations=n_stations, n_steps=n_steps, noise_std=0.5, seed=3)
    coords = coords_for(n_stations)
    block = synthetic.ROW_BLOCK * n_stations * 8
    held = (n_steps * n_stations + synthetic.STATION_BLOCK * n_steps + 24 * n_stations) * 8 + block
    for cpus in (lw_model.usable_cpus(), 4):  # 4 as on CI runners
        monkeypatch.setattr(lw_model, "usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            obs = generate(config, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obs.values.nbytes == n_steps * n_stations * 8
        assert peak - held < block / 2, (cpus, peak, held, block)
