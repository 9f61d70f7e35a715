"""How much this machine's own speed moves, with no sebq code involved.

    python3 perfbench/noise.py

Times a fixed pure-Python loop back to back for six minutes and prints,
for windows of 5, 15, 35 and 60 s, the distance between the quartiles of the
window medians as a share of their median, and the same for the window
means. A benchmark run cannot be steadier than a window of its length.
"""

from __future__ import annotations

import statistics
import sys
import time

SECONDS = 360


def loop() -> int:
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    samples: list[tuple[float, float]] = []  # (start since t0, duration)
    t0 = time.perf_counter()
    while (start := time.perf_counter()) - t0 < SECONDS:
        loop()
        samples.append((start - t0, time.perf_counter() - start))
    for width in (5, 15, 35, 60):
        windows = [[d for t, d in samples if w * width <= t < (w + 1) * width]
                   for w in range(int(SECONDS // width))]
        if len(windows) < 4:
            continue
        medians = [statistics.median(w) for w in windows]
        means = [statistics.mean(w) for w in windows]
        print(f"{width:3d} s windows: {len(windows):3d}, median loop {min(medians) * 1e3:.2f}"
              f" to {max(medians) * 1e3:.2f} ms; spread of window medians {spread(medians):.3f},"
              f" of window means {spread(means):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
