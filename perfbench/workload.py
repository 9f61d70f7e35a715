"""One benchmark workload in a fresh interpreter: set up, measure, check.

Run by ``run.py``; prints one JSON object as its last line of output. With
``--setup-only`` it sets up and exits, so that ``run.py`` can take the median
of several set-up times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
from reference import CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Spec:
    """What one round of a workload runs.

    Every workload runs every kind of operation, so that each end-to-end and
    per-layer metric is measured on each; the sizes and counts decide which
    layer carries most of a workload's time.
    """

    scheme: str  # scheme of the timed `sebq encrypt`/`sebq decrypt` calls
    file_bytes: int  # size of each file they encrypt
    file_calls: tuple[int, int]  # encrypt+decrypt pairs per round at k=4, k=8
    small_bytes: int  # file of the fresh-process round trip (k=8, same scheme)
    probe_bytes: int  # cca2 file at k=4 for workloads whose scheme is plain
    keygens: int  # `sebq keygen --k 8` calls per round
    stats: tuple[int, int]  # ciphertext_suite_experiment calls x sequences
    cca: tuple[int, int]  # run_ind_cca calls x trials (at least 2)
    bad_a1: bool  # include the v2 frame with a=1 among the corrupted frames


SPECS = {
    "file-plain": Spec("plain", 1 << 20, (1, 1), 1024, 256, 2, (8, 2), (8, 3), False),
    "file-cca2": Spec("cca2", 2048, (2, 2), 256, 0, 2, (4, 2), (4, 2), True),
    "study": Spec("plain", 64, (6, 6), 64, 256, 3, (4, 5), (4, 5), False),
}
N = 8  # the CLI's default leader length


def quiet(fn, *args, **kwargs):
    """Call ``fn`` with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args, **kwargs)


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.spec = SPECS[name]
        self.rng = random.Random(f"{name}/{seed}")
        self.work = work
        self.work_done: dict[str, list[float]] = {}  # rate metric -> [units of work, seconds]
        self.latencies: dict[str, list[float]] = {}  # latency metric -> seconds per call
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.correct = True
        self.errors: list[str] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Import the CLI, write keys and inputs; returns the import time."""
        t = time.perf_counter()
        import sebq.cli

        import_s = time.perf_counter() - t
        if Path(sebq.cli.__file__).resolve().parent.parent != SRC:
            raise SystemExit(f"sebq was imported from {sebq.cli.__file__}, not {SRC}")
        import sebq.analysis
        import sebq.games

        self.cli, self.analysis, self.games = sebq.cli, sebq.analysis, sebq.games
        self.work.mkdir(parents=True, exist_ok=True)
        self.keys, self.tables = {}, {}
        self.keygen_seed = self.rng.randrange(2**63)
        for k in (4, 8):
            path = self.path(f"key-k{k}.lsq")
            seed = self.keygen_seed if k == 8 else self.rng.randrange(2**63)
            if quiet(self.cli.main, ["keygen", "--k", str(k), "--seed", str(seed), "--out", path]):
                raise SystemExit(f"set-up keygen k={k} failed")
            self.keys[k] = path
            self.tables[k] = reference.parse_key(Path(path).read_text())
            reference.left_division(self.tables[k])
        self.key_k8_bytes = Path(self.keys[8]).read_bytes()
        s = self.spec
        self.files = {k: self.write(f"in-k{k}.bin", s.file_bytes) for k in (4, 8)}
        self.small = self.write("small.bin", s.small_bytes)
        self.probe = self.write("probe.bin", s.probe_bytes) if s.probe_bytes else None
        self.corrupted = self.write_corrupted()
        return import_s

    def path(self, name: str) -> str:
        return str(self.work / name)

    def write(self, name: str, size: int) -> tuple[str, bytes]:
        data = self.rng.randbytes(size)
        Path(self.path(name)).write_bytes(data)
        return self.path(name), data

    def write_corrupted(self) -> list[tuple[str, str, int]]:
        """Header-corrupted frames under a fixed k=4 key, seed-independent.

        Each is ``(name, frame path, documented exit code)``; the key is the
        cyclic square, so neither the key nor the frames depend on the seed.
        """
        fixed = [[(i + j) % 16 for j in range(16)] for i in range(16)]
        key = self.path("fixed-k4.lsq")
        Path(key).write_text(reference.key_text(fixed))
        bits = 64
        body4 = bytes(reference.frame_body_len(4, N, bits))
        body8 = bytes(reference.frame_body_len(8, N, bits))
        frames = [
            ("bad-magic", b"XBEQ" + reference.frame_v1(4, N, bits, body4)[4:], 3),
            ("truncated", reference.frame_v1(4, N, bits, body4)[:-5], 3),
            ("k-mismatch", reference.frame_v1(8, N, bits, body8), 5),
        ]
        if self.spec.bad_a1:
            frames.append(("v2-a1", reference.frame_v2(4, N, 1, bits, body4), 3))
        self.fixed_key = key
        out = []
        for name, frame, code in frames:
            path = self.path(f"corrupt-{name}.sebq")
            Path(path).write_bytes(frame)
            out.append((name, path, code))
        return out

    # -- operations ------------------------------------------------------------

    def record_rate(self, metric: str, work: float, seconds: float) -> None:
        totals = self.work_done.setdefault(metric, [0.0, 0.0])
        totals[0] += work
        totals[1] += seconds

    def record_latency(self, metric: str, seconds: float) -> None:
        self.latencies.setdefault(metric, []).append(seconds)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise CheckError(what)

    def op(self, kind: str, count: int, fn, *args) -> None:
        """Run ``count`` operations as one call; a check failure marks the run incorrect.

        Each CLI call, keygen, stats sequence and game trial is one operation.
        """
        self.attempted += count
        try:
            fn(*args)
        except CheckError as exc:
            self.correct = False
            self.errors.append(f"{kind}: {exc}")
        except Exception as exc:  # the program failed this operation
            self.failed += count
            self.failures[kind] = self.failures.get(kind, 0) + count
            if self.failures[kind] == 1:
                print(f"{kind} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def cli_timed(self, argv: list[str]) -> float:
        t = time.perf_counter()
        rc = quiet(self.cli.main, argv)
        dt = time.perf_counter() - t
        self.check(rc == 0, f"sebq {argv[0]} exited {rc}")
        return dt

    def encrypt(self, k: int, scheme: str, src: tuple[str, bytes], metric: str | None) -> None:
        path, data = src
        out = self.path(f"{Path(path).stem}-{k}.sebq")
        iv_seed = str(self.rng.randrange(2**63))
        dt = self.cli_timed(["encrypt", "--key", self.keys[k], "--in", path, "--out", out,
                             "--scheme", scheme, "--seed", iv_seed])
        reference.check_frame(Path(out).read_bytes(), self.tables[k], data, scheme=scheme, n=N)
        if metric:
            self.record_rate(metric, len(data) / 1e6, dt)

    def decrypt(self, k: int, src: tuple[str, bytes], metric: str | None) -> None:
        path, data = src
        frame = self.path(f"{Path(path).stem}-{k}.sebq")
        out = self.path(f"{Path(path).stem}-{k}.out")
        dt = self.cli_timed(["decrypt", "--key", self.keys[k], "--in", frame, "--out", out])
        self.check(Path(out).read_bytes() == data, "round trip differs from its input")
        if metric:
            self.record_rate(metric, len(data) / 1e6, dt)

    def decrypt_corrupted(self, path: str, code: int) -> None:
        rc = quiet(self.cli.main, ["decrypt", "--key", self.fixed_key, "--in", path,
                                   "--out", self.path("corrupt.out")])
        self.check(rc == code, f"corrupted frame exited {rc}, documented {code}")

    def fresh_roundtrip(self) -> None:
        """`sebq encrypt` then `sebq decrypt` of the small file, each in a new process."""
        path, data = self.small
        frame, out = self.path("small.sebq"), self.path("small.out")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        key = self.keys[8]
        argvs = [
            ["encrypt", "--key", key, "--in", path, "--out", frame, "--scheme", self.spec.scheme,
             "--seed", str(self.rng.randrange(2**63))],
            ["decrypt", "--key", key, "--in", frame, "--out", out],
        ]
        t = time.perf_counter()
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "sebq.cli", *argv], env=env, cwd=ROOT,
                                  capture_output=True, timeout=60)
            self.check(proc.returncode == 0, f"fresh sebq {argv[0]} exited {proc.returncode}")
        dt = time.perf_counter() - t
        reference.check_frame(Path(frame).read_bytes(), self.tables[8], data, scheme=self.spec.scheme, n=N)
        self.check(Path(out).read_bytes() == data, "fresh round trip differs from its input")
        self.record_latency("small_file_roundtrip_s", dt)

    def keygen(self, repeat: bool) -> None:
        seed = self.keygen_seed if repeat else self.rng.randrange(2**63)
        out = self.path("keygen-k8.lsq")
        dt = self.cli_timed(["keygen", "--k", "8", "--seed", str(seed), "--out", out])
        text = Path(out).read_bytes()
        reference.left_division(reference.parse_key(text.decode("ascii")))
        if repeat:
            self.check(text == self.key_k8_bytes, "repeated keygen seed gave another key file")
        self.record_rate("keygen_k8_per_s", 1, dt)

    def stats(self, sequences: int) -> None:
        captured = []
        original = self.analysis.encrypt_bit_sequence

        def capture(key, iv, bits):
            ct = original(key, iv, bits)
            captured.append((key, list(iv), bits, ct))
            return ct

        self.analysis.encrypt_bit_sequence = capture
        try:
            t = time.perf_counter()
            per_seq = self.analysis.ciphertext_suite_experiment(
                sequences=sequences, k=4, leader_blocks=100, message_bits=4000,
                plaintext="random", alpha=0.01, seed=self.rng.randrange(2**63),
            )
            dt = time.perf_counter() - t
        finally:
            self.analysis.encrypt_bit_sequence = original
        self.check(len(per_seq) == len(captured) == sequences, "stats sequence count")
        for reports, (key, iv, pt, ct) in zip(per_seq, captured):
            self.check_sequence(reports, key, iv, pt, ct)
        self.record_rate("stats_seq_per_s", sequences, dt)

    def check_sequence(self, reports, key, iv, pt, ct) -> None:
        table = key.q.mul.table.tolist()
        reference.check_latin(table)
        ct_bits = [int(b) for b in ct]
        pt_bits = [int(b) for b in pt]
        self.check(len(ct_bits) == len(pt_bits) == 4000, "stats sequence length")
        head = 64
        want = reference.encrypt_plain(table, iv, reference.bits_to_symbols(pt_bits[: 4 * head], 4))
        self.check(reference.bits_to_symbols(ct_bits[: 4 * head], 4) == want,
                   "stats ciphertext differs from the reference")
        n = len(ct_bits)
        s = 2 * sum(ct_bits) - n
        p_ref = math.erfc(abs(s) / math.sqrt(2 * n))
        by_name = {r.name: r for r in reports}
        self.check(math.isclose(by_name["frequency"].p_value, p_ref, rel_tol=1e-9, abs_tol=1e-12),
                   "frequency p-value differs from erfc(|S|/sqrt(2n))")
        self.check(all(0.0 <= r.p_value <= 1.0 for r in reports if not r.skipped),
                   "p-value outside [0, 1]")

    def cca(self, trials: int) -> None:
        g = self.games
        t = time.perf_counter()
        result = g.run_ind_cca(g.TableRecoveryCcaStrategy, g.make_scheme_factory("plain", 4, 1),
                               trials, seed=self.rng.randrange(2**63))
        dt = time.perf_counter() - t
        self.check(result.trials == trials and result.advantage == 1.0,
                   f"table-recovery advantage {result.advantage}, the attack gives +1.0")
        self.record_rate("cca_trials_per_s", trials, dt)

    # -- rounds ------------------------------------------------------------------

    def round(self) -> None:
        """One round: the long operations in order, the short ones spread between them.

        Spreading the short operations over the round spreads their samples
        over the run, so that their medians see the same machine as the long
        ones.
        """
        s = self.spec
        long_ops = []
        for k, pairs in zip((4, 8), s.file_calls):
            for _ in range(pairs):
                long_ops.append(("encrypt", 1, self.encrypt, k, s.scheme, self.files[k], f"encrypt_k{k}_MBps"))
                long_ops.append(("decrypt", 1, self.decrypt, k, self.files[k], f"decrypt_k{k}_MBps"))
        long_ops.append(("fresh-roundtrip", 2, self.fresh_roundtrip))
        long_ops += [("keygen", 1, self.keygen, i == 0) for i in range(s.keygens)]
        short_ops = [("stats", s.stats[1], self.stats, s.stats[1])] * s.stats[0]
        short_ops += [("cca", s.cca[1], self.cca, s.cca[1])] * s.cca[0]
        short_ops += [(f"decrypt-{name}", 1, self.decrypt_corrupted, path, code)
                      for name, path, code in self.corrupted]
        if self.probe:
            short_ops.append(("encrypt", 1, self.encrypt, 4, "cca2", self.probe, None))
            short_ops.append(("decrypt", 1, self.decrypt, 4, self.probe, None))
        # short_ops[j] runs after long_ops[j * len(long_ops) // len(short_ops)]
        after = [[] for _ in long_ops]
        for j, op in enumerate(short_ops):
            after[j * len(long_ops) // len(short_ops)].append(op)
        for op, then in zip(long_ops, after):
            for kind, count, fn, *args in (op, *then):
                self.op(kind, count, fn, *args)

    def measure(self, seconds: float) -> None:
        """Whole rounds, as many as fit in ``seconds`` (at least one)."""
        begin = now = time.monotonic()
        while True:
            self.round()
            last, now = now, time.monotonic()
            if now - begin + (now - last) > seconds:
                break

    def end_to_end(self) -> dict[str, float]:
        """Rates are the run's work over the time its calls took; latencies are medians.

        On a machine whose speed moves between a fast and a slow state within
        seconds, per-call rates form two clusters and their median jumps
        between them from run to run; the ratio of totals moves with the
        share of time spent in each state.
        """
        m = {name: work / seconds for name, (work, seconds) in self.work_done.items()}
        m.update({name: statistics.median(v) for name, v in self.latencies.items()})
        m["peak_rss_MB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for keys, inputs and outputs")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() before this process started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans (.npz)")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    wl = Workload(args.workload, args.seed, Path(args.work))
    import_s = wl.setup()
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "import_s": import_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        wl.measure(args.seconds)
        if tracer is None:
            metrics = wl.end_to_end()
        else:
            tracer.uninstall()
            metrics = tracer.per_layer()
            # beside the untraced run's figures, these give the tracing overhead
            out["end_to_end_traced"] = wl.end_to_end()
            if args.spans:
                tracer.save(args.spans)
        out.update(correct=wl.correct, attempted=wl.attempted, failed=wl.failed,
                   failures=wl.failures, errors=wl.errors[:10], metrics=metrics)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
