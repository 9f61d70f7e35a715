"""Statistical analysis bench.

A desk-scale randomness battery (frequency, block frequency, runs, longest
run of ones, cumulative sums, serial, approximate entropy), avalanche
experiments over key/IV/plaintext bit flips, operation-count formulas with
instrumented verification, and the minimum secure Latin-square order for a
target security level.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaincc

from sebq.cipher import SebqKey, _bits, _unpack_blocks, encrypt, keygen, pack_bits
from sebq.latin import SeedLike, as_rng, intercalate_swap, latin_square_log2_bounds
from sebq.transforms import _encrypt_chain

__all__ = [
    "TestReport",
    "frequency_test",
    "block_frequency_test",
    "runs_test",
    "longest_run_test",
    "cumulative_sums_test",
    "serial_test",
    "approximate_entropy_test",
    "randomness_suite",
    "encrypt_bit_sequence",
    "MAX_MESSAGE_BITS",
    "MAX_EXPERIMENT_BITS",
    "ciphertext_suite_experiment",
    "aggregate_pass_rates",
    "AvalancheReport",
    "avalanche",
    "avalanche_experiment",
    "operation_count",
    "MAX_COUNTED_LOOKUPS",
    "instrumented_counts",
    "EXACT_LATIN_COUNTS",
    "latin_count_log2",
    "MAX_TARGET_BITS",
    "min_secure_order",
    "secure_order_report",
    "OPCOUNT_DISCREPANCY_NOTE",
    "write_stats_csv",
    "write_avalanche_csv",
    "write_json_summary",
]


# -- randomness battery -------------------------------------------------------


@dataclass(frozen=True)
class TestReport:
    """One sub-test outcome: p-value and pass flag at significance alpha."""

    name: str
    p_value: Optional[float]
    passed: Optional[bool]
    n_bits: int
    skipped: bool = False
    note: str = ""


def _report(name, p, alpha, n, note="") -> TestReport:
    p = float(min(max(p, 0.0), 1.0))
    return TestReport(name, p, p >= alpha, n, note=note)


def _skip(name, n, why) -> TestReport:
    return TestReport(name, None, None, n, skipped=True, note=why)


def frequency_test(bits, alpha: float = 0.01) -> TestReport:
    """Monobit balance: erfc of the scaled absolute +/-1 sum."""
    b = _bits(bits)
    n = b.size
    if n < 1:
        return _skip("frequency", n, "empty sequence")
    s = abs(2 * int(b.sum()) - n) / math.sqrt(n)
    return _report("frequency", math.erfc(s / math.sqrt(2)), alpha, n)


def block_frequency_test(bits, alpha: float = 0.01) -> TestReport:
    """Proportion of ones in 128-bit blocks, chi-square against one half."""
    b = _bits(bits)
    n = b.size
    nblocks = n // 128
    if nblocks < 1:
        return _skip("block_frequency", n, "needs at least 128 bits")
    pi = b[: nblocks * 128].reshape(nblocks, 128).mean(axis=1)
    chi2 = 4.0 * 128 * float(((pi - 0.5) ** 2).sum())
    return _report("block_frequency", gammaincc(nblocks / 2.0, chi2 / 2.0), alpha, n)


def runs_test(bits, alpha: float = 0.01) -> TestReport:
    b = _bits(bits)
    n = b.size
    if n < 2:
        return _skip("runs", n, "needs at least 2 bits")
    pi = float(b.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        # frequency precondition failed; the statistic is meaningless
        return _report("runs", 0.0, alpha, n, note="frequency precondition failed")
    v = 1 + int(np.count_nonzero(np.diff(b)))
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)
    return _report("runs", math.erfc(num / den), alpha, n)


_LONGEST_RUN_TABLES = {
    8: (3, [0.2148, 0.3672, 0.2305, 0.1875], 1),
    128: (5, [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124], 4),
    10**4: (6, [0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727], 10),
}


def longest_run_test(bits, alpha: float = 0.01) -> TestReport:
    """Longest run of ones within fixed-size blocks, chi-square against
    the reference category probabilities."""
    b = _bits(bits)
    n = b.size
    if n < 128:
        return _skip("longest_run", n, "needs at least 128 bits")
    if n < 6272:
        m = 8
    elif n < 750000:
        m = 128
    else:
        m = 10**4
    k, probs, vmin = _LONGEST_RUN_TABLES[m]
    nblocks = n // m
    blocks = b[: nblocks * m].reshape(nblocks, m)
    # longest run of ones per block
    longest = np.zeros(nblocks, dtype=np.int64)
    run = np.zeros(nblocks, dtype=np.int64)
    for j in range(m):
        col = blocks[:, j]
        run = (run + 1) * col
        longest = np.maximum(longest, run)
    cats = np.clip(longest - vmin, 0, k)
    counts = np.bincount(cats, minlength=k + 1)
    expected = nblocks * np.asarray(probs)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return _report("longest_run", gammaincc(k / 2.0, chi2 / 2.0), alpha, n)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2)))


def cumulative_sums_test(bits, alpha: float = 0.01, forward: bool = True) -> TestReport:
    name = "cusum_forward" if forward else "cusum_backward"
    b = _bits(bits)
    n = b.size
    if n < 2:
        return _skip(name, n, "needs at least 2 bits")
    steps = 2 * b.astype(np.int64) - 1
    if not forward:
        steps = steps[::-1]
    z = int(np.abs(np.cumsum(steps)).max())
    if z == 0:
        return _report(name, 0.0, alpha, n, note="degenerate all-balanced walk")
    sqrt_n = math.sqrt(n)
    total = 1.0
    for k in range((-n // z + 1) // 4, (n // z - 1) // 4 + 1):
        total -= _phi((4 * k + 1) * z / sqrt_n) - _phi((4 * k - 1) * z / sqrt_n)
    for k in range((-n // z - 3) // 4, (n // z - 1) // 4 + 1):
        total += _phi((4 * k + 3) * z / sqrt_n) - _phi((4 * k + 1) * z / sqrt_n)
    return _report(name, total, alpha, n)


def _pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of overlapping m-bit patterns with wraparound, for m >= 1."""
    ext = np.concatenate([b, b[: m - 1]])
    idx = np.zeros(b.size, dtype=np.int64)
    for j in range(m):
        idx = (idx << 1) | ext[j : j + b.size]
    return np.bincount(idx, minlength=1 << m)


def _psi_sq(b: np.ndarray, m: int) -> float:
    counts = _pattern_counts(b, m)
    n = b.size
    return float((counts.astype(np.float64) ** 2).sum()) * (1 << m) / n - n


def serial_test(bits, alpha: float = 0.01) -> tuple[TestReport, TestReport]:
    """Overlapping 5-bit pattern uniformity; two p-values from the first and
    second difference of the psi-square statistics for m = 5, 4, 3."""
    b = _bits(bits)
    n = b.size
    if n < 64:
        return (
            _skip("serial_1", n, "needs at least 64 bits"),
            _skip("serial_2", n, "see serial_1"),
        )
    psi5, psi4, psi3 = _psi_sq(b, 5), _psi_sq(b, 4), _psi_sq(b, 3)
    return (
        _report("serial_1", gammaincc(8, (psi5 - psi4) / 2.0), alpha, n),
        _report("serial_2", gammaincc(4, (psi5 - 2 * psi4 + psi3) / 2.0), alpha, n),
    )


def approximate_entropy_test(bits, alpha: float = 0.01) -> TestReport:
    """Approximate entropy of overlapping 2- and 3-bit patterns."""
    b = _bits(bits)
    n = b.size
    if n < 16:
        return _skip("approx_entropy", n, "needs at least 16 bits")

    def phi(m: int) -> float:
        counts = _pattern_counts(b, m)
        probs = counts[counts > 0].astype(np.float64) / n
        return float((probs * np.log(probs)).sum())

    chi2 = 2.0 * n * (math.log(2.0) - (phi(2) - phi(3)))
    return _report("approx_entropy", gammaincc(2, chi2 / 2.0), alpha, n)


def randomness_suite(bits, alpha: float = 0.01) -> list[TestReport]:
    """Run the full battery on one bit sequence.

    The sub-test parameters are fixed: 128-bit blocks for block frequency,
    m=5 for serial and m=2 for approximate entropy.  Sub-tests whose
    minimum length is not met come back flagged as skipped rather than
    failing.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    b = _bits(bits)
    if b.size < 100:
        raise ValueError("suite needs at least 100 bits")
    reports = [
        frequency_test(b, alpha),
        block_frequency_test(b, alpha),
        runs_test(b, alpha),
        longest_run_test(b, alpha),
        cumulative_sums_test(b, alpha, forward=True),
        cumulative_sums_test(b, alpha, forward=False),
    ]
    reports.extend(serial_test(b, alpha))
    reports.append(approximate_entropy_test(b, alpha))
    return reports


# -- ciphertext experiments ----------------------------------------------------

# the longest experiment plaintext or IV, 2 MiB of bits: the battery holds
# int64 arrays of one entry per bit, 128 MiB each at the cap, and an IV is a
# list of one Python int per block
MAX_MESSAGE_BITS = 1 << 24

# the most bits one experiment run encrypts: sequences x message bits for the
# battery, experiments x flips x message bits for avalanche; room for the
# NIST SP 800-22 run of 1000 sequences of 10**6 bits
MAX_EXPERIMENT_BITS = 1 << 30

# Mersenne Twister words per getrandbits call in _draw_below, so that no
# draw builds an integer over 256 KiB
_DRAW_WORDS = 1 << 16


def encrypt_bit_sequence(key: SebqKey, iv: Sequence[int], plaintext_bits) -> np.ndarray:
    """Encrypt a k-aligned bit sequence and return the ciphertext bits."""
    bits = _bits(plaintext_bits)
    k = key.k
    if bits.size % k:
        raise ValueError(f"bit length {bits.size} not a multiple of k={k}")
    ct = encrypt(key, iv, _unpack_blocks(np.packbits(bits), k, bits.size // k))
    return np.unpackbits(np.frombuffer(pack_bits(ct, k), dtype=np.uint8), count=bits.size)


def _draw_below(rng, m: int, count: int) -> np.ndarray:
    """``[rng.randrange(m) for _ in range(count)]`` as a ``uint32`` array, for
    ``1 <= m < 2**32``, leaving ``rng`` in the same state as that loop.

    CPython's ``randrange(m)`` draws ``getrandbits(m.bit_length())`` until the
    result is below ``m``, and each such draw keeps the top bits of one
    32-bit Mersenne Twister word.  ``getrandbits(32 * w)`` returns ``w`` such
    words, the first drawn least significant.  Each word gives at most one
    value, so no word is drawn that the loop would not draw.
    """
    shift = 32 - m.bit_length()
    out = [np.zeros(0, dtype=np.uint32)]
    have = 0
    while have < count:
        need = min(count - have, _DRAW_WORDS)
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        values = np.frombuffer(raw, dtype="<u4") >> np.uint32(shift)
        out.append(values[values < m])
        have += out[-1].size
    return np.concatenate(out)


def _check_trials(k: int, leader_blocks: int, message_bits: int, plaintext: str, encryptions: int):
    """Refuse an experiment run, before anything is drawn, whose IV or message
    is over :data:`MAX_MESSAGE_BITS` bits, whose plaintext kind is unknown, or
    whose ``encryptions`` of the message come to over :data:`MAX_EXPERIMENT_BITS`.
    """
    if leader_blocks * k > MAX_MESSAGE_BITS:
        raise ValueError(
            f"iv of {leader_blocks} blocks of {k} bits is over the cap of {MAX_MESSAGE_BITS} bits"
        )
    if message_bits > MAX_MESSAGE_BITS:
        raise ValueError(f"message_bits {message_bits} is over the cap of {MAX_MESSAGE_BITS}")
    if plaintext not in ("random", "zeros", "ones"):
        raise ValueError(f"unknown plaintext kind {plaintext!r}")
    if encryptions * message_bits > MAX_EXPERIMENT_BITS:
        raise ValueError(
            f"{encryptions} encryptions of {message_bits} bits is over the cap of "
            f"{MAX_EXPERIMENT_BITS} bits"
        )


def _draw_trial(rng, k: int, leader_blocks: int, message_bits: int, plaintext: str = "random"):
    """One experiment's fresh key, IV and plaintext bits, drawn from ``rng`` in
    that order, for arguments :func:`_check_trials` passed."""
    key = keygen(k, rng.randrange(2**63))
    iv = _draw_below(rng, key.order, leader_blocks).tolist()
    if plaintext == "random":
        return key, iv, _draw_below(rng, 2, message_bits).astype(np.uint8)
    return key, iv, np.full(message_bits, plaintext == "ones", dtype=np.uint8)


def ciphertext_suite_experiment(
    *,
    sequences: int = 100,
    k: int = 4,
    leader_blocks: int = 100,
    message_bits: int = 4000,
    plaintext: str = "random",
    alpha: float = 0.01,
    seed: SeedLike = None,
) -> list[list[TestReport]]:
    """Battery results for ``sequences`` independent ciphertexts.

    Each sequence uses a fresh random key and IV; the plaintext is random,
    all zeros, or all ones.  Defaults mirror the reference experiment:
    order-16 key, 400-bit IV, 4000-bit messages.  An IV or a message over
    :data:`MAX_MESSAGE_BITS` bits, or a run over :data:`MAX_EXPERIMENT_BITS`
    bits in all, raises ``ValueError`` before anything is drawn.
    """
    _check_trials(k, leader_blocks, message_bits, plaintext, sequences)
    rng = as_rng(seed)
    out = []
    for _ in range(sequences):
        key, iv, pt = _draw_trial(rng, k, leader_blocks, message_bits, plaintext)
        out.append(randomness_suite(encrypt_bit_sequence(key, iv, pt), alpha))
    return out


def aggregate_pass_rates(per_sequence: list[list[TestReport]]) -> dict[str, dict]:
    """Collapse per-sequence reports into success rates and median p-values."""
    agg: dict[str, dict] = {}
    for reports in per_sequence:
        for rep in reports:
            slot = agg.setdefault(rep.name, {"pass": 0, "total": 0, "p_values": []})
            if rep.skipped:
                continue
            slot["total"] += 1
            slot["pass"] += int(rep.passed)
            slot["p_values"].append(rep.p_value)
    for name, slot in agg.items():
        total = slot["total"]
        slot["success_pct"] = 100.0 * slot["pass"] / total if total else float("nan")
        slot["median_p"] = float(np.median(slot["p_values"])) if slot["p_values"] else float("nan")
    return agg


# -- avalanche -----------------------------------------------------------------


@dataclass(frozen=True)
class AvalancheReport:
    """Percent of ciphertext bits changed per single-bit (or single-swap) flip."""

    target: str
    percents: np.ndarray  # shape (experiments, flips_per_experiment)
    positions: tuple[int, ...] = ()

    @property
    def mean_pct(self) -> float:
        return float(self.percents.mean())

    @property
    def max_pct(self) -> float:
        return float(self.percents.max())

    @property
    def min_pct(self) -> float:
        return float(self.percents.min())

    def __str__(self) -> str:
        return (
            f"avalanche[{self.target}]: mean {self.mean_pct:.3f}% "
            f"min {self.min_pct:.3f}% max {self.max_pct:.3f}% "
            f"over {self.percents.size} flips"
        )


def _hamming_pct(a: np.ndarray, b: np.ndarray) -> float:
    return 100.0 * float(np.count_nonzero(a != b)) / a.size


def _check_flips(target: str, positions, trials: int, iv_bits: int, message_bits: int) -> None:
    """Refuse an avalanche run with nothing to perturb, a flip position
    outside the bits its target holds, or an empty message.

    Stops at the first bad position, so a ``range`` from 0 is read no
    further than the target's bits.
    """
    if target == "key":
        if trials < 1:
            raise ValueError("key avalanche needs at least one swap")
    elif target not in ("plaintext", "iv"):
        raise ValueError(f"unknown avalanche target {target!r}")
    else:
        if positions is None or len(positions) == 0:
            raise ValueError(f"{target} avalanche needs flip positions")
        nbits = iv_bits if target == "iv" else message_bits
        bad = next((p for p in positions if not 0 <= p < nbits), None)
        if bad is not None:
            raise ValueError(f"flip position {bad} out of range")
    # the change is a share of the ciphertext's bits, which an empty message has none of
    if message_bits < 1:
        raise ValueError(f"{target} avalanche needs a message of at least one bit, got {message_bits}")


def _flip_percents(target: str, key: SebqKey, iv: list, bits, positions, trials: int, rng) -> list:
    """Ciphertext change per flip, for arguments :func:`_check_flips` passed."""
    base_ct = encrypt_bit_sequence(key, iv, bits)
    if target == "key":
        swapped = (SebqKey.from_square(intercalate_swap(key.q.mul, rng)) for _ in range(trials))
        return [_hamming_pct(base_ct, encrypt_bit_sequence(sk, iv, bits)) for sk in swapped]
    percents = []
    for p in positions:
        if target == "plaintext":
            flipped = bits.copy()
            flipped[p] ^= 1
            ct = encrypt_bit_sequence(key, iv, flipped)
        else:
            iv2 = list(iv)
            iv2[p // key.k] ^= 1 << (key.k - 1 - p % key.k)
            ct = encrypt_bit_sequence(key, iv2, bits)
        percents.append(_hamming_pct(base_ct, ct))
    return percents


def avalanche(
    target: str,
    key: SebqKey,
    iv: Sequence[int],
    message_bits,
    *,
    positions: Sequence[int] | None = None,
    trials: int = 10,
    seed: SeedLike = None,
) -> AvalancheReport:
    """Single-baseline avalanche measurement.

    For ``target`` in ``{"plaintext", "iv"}`` each listed bit position is
    flipped once and the ciphertext Hamming percentage recorded.  For
    ``"key"`` the table is perturbed by ``trials`` random intercalate
    swaps (the smallest Latin-preserving change) instead of bit flips.
    """
    bits = _bits(message_bits)
    iv = list(iv)
    _check_flips(target, positions, trials, len(iv) * key.k, bits.size)
    percents = _flip_percents(target, key, iv, bits, positions, trials, as_rng(seed))
    return AvalancheReport(
        target, np.asarray(percents, dtype=np.float64).reshape(1, -1), tuple(positions or ())
    )


def avalanche_experiment(
    target: str,
    *,
    k: int = 4,
    leader_blocks: int = 100,
    message_bits: int = 4000,
    positions: Sequence[int] = range(10),
    experiments: int = 10,
    flips_per_experiment: int | None = None,
    seed: SeedLike = None,
) -> AvalancheReport:
    """Grid avalanche experiment: fresh baselines, repeated flip positions.

    Defaults mirror the reference setup: order-16 key, 400-bit IV,
    4000-bit random plaintext, 10 experiments over 10 flip positions (for
    the key target, ``flips_per_experiment`` swaps per experiment, by
    default one per flip position).  Flip positions are checked against
    the bits of the plaintext or the IV before anything is drawn.  An IV or
    a message over :data:`MAX_MESSAGE_BITS` bits, or experiments x flips x
    message bits over :data:`MAX_EXPERIMENT_BITS`, raises ``ValueError``.
    """
    flips = flips_per_experiment or len(positions)
    _check_flips(target, positions, flips, leader_blocks * k, message_bits)
    _check_trials(k, leader_blocks, message_bits, "random", experiments * flips)
    rng = as_rng(seed)
    rows = []
    for _ in range(experiments):
        key, iv, pt = _draw_trial(rng, k, leader_blocks, message_bits)
        rows.append(_flip_percents(target, key, iv, pt, positions, flips, rng))
    return AvalancheReport(target, np.vstack(rows), tuple(positions))


# -- operation counts ----------------------------------------------------------


def operation_count(n: int, k: int, l: int) -> int:
    """Closed-form operation count for encrypting ``l`` blocks: ``n + (l-1)(n+k)``.

    The same count applies to decryption, so a full round trip costs twice
    this value.
    """
    if n < 1:
        raise ValueError("leader length n must be positive")
    if l < 1:
        raise ValueError("message length l must be positive")
    if k < 1:
        raise ValueError("symbol width k must be positive")
    return n + (l - 1) * (n + k)


OPCOUNT_DISCREPANCY_NOTE = (
    "note: the published worked example claims 70 operations for a 64-bit "
    "message with a 16-bit leader vector; the stated formula gives 124 for "
    "(n=4, k=4, l=16) and matches no consistent parameter assignment we "
    "found, so the formula is implemented verbatim and the example flagged."
)


# the most lookups ``sebq analyze opcount`` counts, n*l: the counted loop
# runs in Python at some 150 ns a lookup
MAX_COUNTED_LOOKUPS = 1 << 20


class _CountingRows:
    """Table rows that count how many times the loop reads one."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return self.rows[i]


def instrumented_counts(key: SebqKey, iv: Sequence[int], message: Sequence[int]) -> tuple[int, int]:
    """Count the table lookups and checksum XORs an encryption actually does.

    Runs the cipher's own Python chained loop, the reference, over a
    counting view of the table; ``tests/test_ckernel.py`` pins the compiled
    loop that carries long plain runs to that reference bit for bit.
    Returns ``(lookups, xors)``; the loop performs ``n*l`` lookups and
    ``(n-1)*l`` XOR block-operations.
    """
    if not iv:
        raise ValueError("iv must hold at least one block")
    rows = _CountingRows(key.q.mul_rows)
    _encrypt_chain(rows, iv, message)
    # each block's checksum XORs together its n chain values, one per lookup
    return rows.reads, rows.reads - len(message)


# -- minimum secure order --------------------------------------------------------

# exact Latin-square counts for orders 1..10
EXACT_LATIN_COUNTS = {
    1: 1,
    2: 2,
    3: 12,
    4: 576,
    5: 161280,
    6: 812851200,
    7: 61479419904000,
    8: 108776032459082956800,
    9: 5524751496156892842531225600,
    10: 9982437658213039871725064756920320000,
}


def latin_count_log2(m: int, policy: str = "exact") -> float:
    """log2 of the Latin-square count estimate for order ``m``.

    ``"exact"`` uses the known exact counts up to order 10 and the
    factorial lower bound beyond; ``"lower"`` uses the lower bound for
    every order.
    """
    if m < 1:
        raise ValueError("order must be positive")
    if policy == "exact" and m in EXACT_LATIN_COUNTS:
        return math.log2(EXACT_LATIN_COUNTS[m])
    if policy not in ("exact", "lower"):
        raise ValueError(f"unknown counting policy {policy!r}")
    return latin_square_log2_bounds(m)[0]


# the largest security target searched: each order the search passes costs
# O(order) to bound, and a 65536-bit target stops at order 126 within milliseconds
MAX_TARGET_BITS = 1 << 16


def min_secure_order(
    target_bits: int, ops_per_trial: int = 380, policy: str = "exact"
) -> int:
    """Smallest order m whose key-space work factor reaches ``2**target_bits``.

    The adversary must try ``count(m) * ops_per_trial`` operations, so the
    threshold is ``log2(count(m)) + log2(ops) >= target_bits``, compared in
    log2 to dodge astronomic integers.  A target over
    :data:`MAX_TARGET_BITS` raises ``ValueError`` before the search.
    """
    if target_bits < 1:
        raise ValueError("target_bits must be positive")
    if target_bits > MAX_TARGET_BITS:
        raise ValueError(f"target_bits {target_bits} is over the cap of {MAX_TARGET_BITS}")
    if ops_per_trial < 1:
        raise ValueError("ops_per_trial must be positive")
    log2_ops = math.log2(ops_per_trial)
    m = 1
    while latin_count_log2(m, policy) + log2_ops < target_bits:
        m += 1
    return m


def secure_order_report(target_bits: int, ops_per_trial: int = 380) -> dict:
    """Orders under both counting policies, plus the published guidance.

    The two policies can disagree near the threshold because the exact
    counts exceed the factorial lower bound; the published guidance
    (order > 11 for 128-bit, > 13 for 256-bit) sits between the two, so
    the report carries all three.
    """
    exact = min_secure_order(target_bits, ops_per_trial, "exact")
    lower = min_secure_order(target_bits, ops_per_trial, "lower")
    top = max(exact, lower)
    rows = [
        {
            "order": m,
            "log2_count_exact": latin_count_log2(m, "exact"),
            "log2_count_lower": latin_count_log2(m, "lower"),
        }
        for m in range(max(1, top - 3), top + 2)
    ]
    return {
        "target_bits": target_bits,
        "ops_per_trial": ops_per_trial,
        "order_exact_policy": exact,
        "order_lower_policy": lower,
        "published_guidance": {128: "order > 11", 256: "order > 13"}.get(
            target_bits, "none stated"
        ),
        "note": (
            "the minimum order depends on the count estimate: exact counts "
            "are known through order 10, beyond that only the factorial "
            "lower bound is available; published guidance for 128/256-bit "
            "targets is order > 11 / > 13 respectively"
        ),
        "table": rows,
    }


# -- report emitters ---------------------------------------------------------


def write_stats_csv(path, aggregate: dict[str, dict]) -> None:
    """CSV rows of (test, success %, median p-value)."""
    with open(path, "w", newline="", encoding="ascii") as fp:
        w = csv.writer(fp)
        w.writerow(["test", "success_pct", "p_value"])
        for name, slot in aggregate.items():
            w.writerow([name, f"{slot['success_pct']:.2f}", f"{slot['median_p']:.6f}"])


def write_avalanche_csv(path, report: AvalancheReport) -> None:
    """CSV grid: one row per flip position, one column per experiment, plus
    the row average and the overall extremes."""
    grid = report.percents.T  # rows = positions / flips, cols = experiments
    with open(path, "w", newline="", encoding="ascii") as fp:
        w = csv.writer(fp)
        nexp = grid.shape[1]
        w.writerow(["position"] + [f"exp_{i + 1}" for i in range(nexp)] + ["average"])
        for idx in range(grid.shape[0]):
            label = report.positions[idx] if idx < len(report.positions) else idx
            row = grid[idx]
            w.writerow([label] + [f"{v:.3f}" for v in row] + [f"{row.mean():.3f}"])
        w.writerow(["max", f"{report.max_pct:.3f}"])
        w.writerow(["min", f"{report.min_pct:.3f}"])
        w.writerow(["mean", f"{report.mean_pct:.3f}"])


def write_json_summary(path, payload: dict) -> None:
    with open(path, "w", encoding="ascii") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
