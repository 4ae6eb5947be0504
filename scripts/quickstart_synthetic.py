#!/usr/bin/env python3
"""End-to-end demo on generated data: synth -> train -> evaluate -> forecast.

Everything runs through the CLI so the emitted config file doubles as a
template for real datasets.
"""

import argparse
import sys
from pathlib import Path

from lightweather import cli

CONFIG = """\
d = 32
layers = 2
t_h = 48
t_f = 24
lr = 5e-4
batch_size = 32
max_epochs = 5
patience = 5
seed = 0
synth_stations = 20
synth_steps = 4000
synth_noise_std = 0.5
stations_csv = {data}/stations.csv
observations_csv = {data}/observations.csv
out_dir = {out}
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/quickstart")
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    data = work / "data"
    cfg_path = work / "run.cfg"
    cfg_path.write_text(CONFIG.format(data=data, out=work / "out"), encoding="utf-8")

    for step in (
        ["synth", "--config", str(cfg_path), "--out", str(data)],
        ["train", "--config", str(cfg_path)],
        ["evaluate", "--config", str(cfg_path)],
        ["forecast", "--config", str(cfg_path), "--timestamp", "2019-06-15T12:00:00"],
    ):
        print(f"$ lightweather {' '.join(step)}")
        code = cli.main(step)
        if code != 0:
            return code
    print(f"\nartifacts under {work}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
