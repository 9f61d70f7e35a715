"""The sebq benchmark: one workload per call, each in fresh interpreters.

    python3 perfbench/run.py --workload file-plain --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed. The workload runs in a child
interpreter (``workload.py``), after two more children that only set up, so
that ``setup_s`` is the median of three set-ups. Everything the workload
writes goes under ``.bench_work/`` and is removed at the end; a traced run
also leaves its spans in ``.bench_traces/<workload>.npz``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
The line before it is the run's record: source commit, versions, ``nproc``,
seed and per-workload operation counts. See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "sebq"
WORKLOADS = ("file-plain", "file-cca2", "study")
SETUPS = 3
SETUP_ALLOWANCE_S = 60  # the set-ups and writing the spans


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a git tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def versions() -> dict[str, str]:
    out = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = "missing"
    return out


def child(args, work: Path, extra: list[str], deadline: float) -> dict:
    """Run ``workload.py`` once and return the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    # a session of its own, so that a timeout also ends the processes it started
    with subprocess.Popen([*cmd, "--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="sebq benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # measuring stops after the last whole round that fits, about one round past --seconds at most
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + 2 * args.seconds
    if not (SRC / "cli.py").is_file():
        print(f"error: no sebq sources at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    try:
        runs = [child(args, Path(f"{work}-setup{i}"), ["--setup-only"], deadline)
                for i in range(SETUPS - 1)]
        extra = []
        if args.trace:
            (ROOT / ".bench_traces").mkdir(exist_ok=True)
            extra = ["--spans", str(ROOT / ".bench_traces" / f"{args.workload}.npz")]
        result = child(args, work, extra, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in base.glob(f"{args.workload}-{os.getpid()}*"):
            shutil.rmtree(path, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()

    runs.append(result)
    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_s"] = statistics.median(r["import_s"] for r in runs)
    else:
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if set(unit_of) != set(metrics):
        print(f"error: measured {sorted(set(metrics) ^ set(unit_of))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        **versions(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "setup_s": [r["setup_s"] for r in runs],
    }
    if "end_to_end_traced" in result:
        record["end_to_end_traced"] = result["end_to_end_traced"]
    if result["errors"]:
        record["errors"] = result["errors"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
