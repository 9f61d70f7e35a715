"""Single-figure re-measurements of the layers, for README.md's reference table.

    python3 perfbench/figures.py

Each figure is the median of a few repetitions in one process, at the sizes
of the baseline table in ROADMAP.md. These are reference figures, not
benchmark metrics: nothing re-measures them against a bound.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

from workload import ROOT, SRC

ROUND_TRIP = """
import random, resource, sys
sys.path.insert(0, sys.argv[1])
from sebq import cipher, formats
key = cipher.keygen(4, 1)
data = random.Random(1).randbytes(1 << 20)
assert formats.open_bytes(key, formats.seal_bytes(key, data, seed=1)) == data
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
"""


def median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    from sebq import analysis, cipher, formats

    rng = random.Random(5)
    out = {}
    k4, k8 = cipher.keygen(4, 1), cipher.keygen(8, 2)
    for n, length in ((8, 200_000), (100, 20_000)):
        iv = [rng.randrange(16) for _ in range(n)]
        msg = [rng.randrange(16) for _ in range(length)]
        t = median_s(lambda: cipher.encrypt(k4, iv, msg), 5)
        out[f"encrypt k=4 n={n} (M lookups/s)"] = n * length / t / 1e6
        ct = cipher.encrypt(k4, iv, msg)
        t = median_s(lambda: cipher.decrypt(k4, iv, ct), 5)
        out[f"decrypt k=4 n={n} (M lookups/s)"] = n * length / t / 1e6
    data = rng.randbytes(64 << 10)
    for k, key in ((4, k4), (8, k8)):
        t = median_s(lambda: formats.seal_bytes(key, data, seed=1), 5)
        out[f"seal_bytes 64 KiB plain k={k} (MB/s)"] = len(data) / t / 1e6
    small = rng.randbytes(2048)
    t = median_s(lambda: formats.seal_bytes(k4, small, seed=1, scheme="cca2"), 3)
    out["seal_bytes 2 KiB cca2 k=4 (MB/s)"] = len(small) / t / 1e6
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    out["pad + pack_bits 64 KiB k=4 (ms)"] = median_s(lambda: cipher.pack_bits(cipher.pad(bits, 4), 4), 7) * 1e3
    out["keygen k=4 (ms)"] = median_s(lambda: cipher.keygen(4, rng.randrange(2**63)), 15) * 1e3
    out["keygen k=8 (ms)"] = median_s(lambda: cipher.keygen(8, rng.randrange(2**63)), 7) * 1e3
    seq = np.array([rng.randrange(2) for _ in range(4000)], dtype=np.uint8)
    out["randomness_suite 4000 bits (ms)"] = median_s(lambda: analysis.randomness_suite(seq), 21) * 1e3
    proc = subprocess.run([sys.executable, "-c", ROUND_TRIP, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    out["seal + open 1 MiB plain k=4, peak RSS of a fresh process (MB)"] = float(proc.stdout)
    print(json.dumps({name: round(v, 4) for name, v in out.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
