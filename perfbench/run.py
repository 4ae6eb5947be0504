"""Benchmark of the lightweather package, from outside it.

    python3 perfbench/run.py --workload wide-train --seed 1 --seconds 40 --trace 0

Workloads (defined, with the reason for each, in workloads.py):
  wide-train    one training epoch with validation, then evaluate and the
                HI baseline, at the criterion-9 shape (3850 stations x 1000
                hourly steps, generated in memory)
  narrow-train  the same on 27 stations x 17,520 hourly steps that take the
                CLI's file path: written as CSV, read back by each set-up,
                and one `lightweather forecast` from the trained checkpoint

The workload runs in this interpreter, which imports `src/lightweather`
of this checkout, with the BLAS thread count pinned to the number of
usable CPUs; nothing else runs meanwhile. The seed makes the data; the
model's initialisation and batch order are fixed. The run sets the
workload up 11 times and repeats it round(SECONDS / nominal length)
times, at least once, the two in turn, and checks every output
(workloads.py). The report goes to standard output, with the
environment, every named metric as median, tail percentile and sample
count, and the failed ratio; it ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are BENCHMARK.json's `end_to_end` ones:
setup_s (median set-up: generation or CSV ingest, then split and
windows), epoch_s, eval_windows_per_s (test windows through
training.evaluate), peak_rss_mb and val_mae (validation MAE after the
epoch, in data units). With `--trace 1` they are its `per_layer` ones,
from one more pass run with every public function of the package
wrapped (see tracing.py); its spans.json stays under `.perfbench_work/`
in the checkout.
"""

from __future__ import annotations

import os

# OpenBLAS reads its thread count when numpy loads, so pin it before any
# import of numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report_lines(raw: dict) -> list[str]:
    env = raw["env"]
    lines = [
        "env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_config"),
        f"env blas_config={env['blas_config']}",
    ]
    for name, m in sorted(raw.get("named", {}).items()):
        line = f"{raw['workload']:<13} {name:<20} median {fmt(m['value'])} {m['unit']}"
        if "n" in m:
            line += f"  n={m['n']}"
        if "p" in m:
            line += f"  p{m['p']}={fmt(m['p_value'])}"
        lines.append(line)
    attempted, failed = raw["attempted"], raw["failed"]
    lines.append(
        f"{raw['workload']:<13} {'failed_ratio':<20} {failed}/{attempted} = {fmt(failed / attempted)}"
    )
    for problem in raw["failures"]:
        lines.append(f"failure: {problem}")
    for what, share in raw.get("shares", {}).items():
        lines.append(f"trace {what}: {share:.1%}")
    return lines


def select(raw_metrics: dict, wanted: list[dict]) -> dict:
    """BENCHMARK.json's metrics, in its order, with units checked."""
    out = {}
    for spec in wanted:
        value, unit = raw_metrics[spec["name"]]["value"], raw_metrics[spec["name"]]["unit"]
        if unit != spec["unit"] or not math.isfinite(value):
            raise ValueError(f"metric {spec['name']}: {value!r} {unit} does not fit {spec}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    if not (ROOT / "src" / "lightweather" / "__init__.py").is_file():
        print(f"no lightweather package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads  # loads numpy and lightweather

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    key = "per_layer" if args.trace else "end_to_end"
    if key not in raw:
        print("no successful operation to measure; see the failures above", file=sys.stderr)
        for problem in raw["failures"]:
            print(f"failure: {problem}", file=sys.stderr)
        return 1
    try:
        metrics = select(raw[key], bench[key])
    except (KeyError, ValueError) as exc:
        print(f"result does not match BENCHMARK.json: {exc!r}", file=sys.stderr)
        return 1
    print(f"# lightweather benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("\n".join(report_lines(raw)))
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
