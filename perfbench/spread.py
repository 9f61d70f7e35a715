"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload study --seeds 1-10

Each run is untraced and as long as ``run_seconds`` in BENCHMARK.json.
For every metric: the median of the runs, and the distance between the first
and the third quartile (``statistics.quantiles(values, n=4)``) as a share of
that median, beside the metric's bound from BENCHMARK.json. Also prints the
failed share of each run and the wall time of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares, walls = [], []
    for seed in args.seeds:
        t = time.monotonic()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        walls.append(time.monotonic() - t)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{proc.stdout}", file=sys.stderr)
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {len(args.seeds)} runs of {seconds} s, wall {min(walls):.1f}-{max(walls):.1f} s, "
          f"failed {sorted(set(shares))}")
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound:.2f}{'  OVER 1/3' if spread > bound / 3 else ''}"
        print(f"  {name:52s} median {med:12.6g}  spread {spread:6.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
