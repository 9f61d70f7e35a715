"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import math
import random
import time
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from sebq.analysis import (
    OPCOUNT_DISCREPANCY_NOTE,
    aggregate_pass_rates,
    avalanche_experiment,
    ciphertext_suite_experiment,
    instrumented_counts,
    min_secure_order,
    operation_count,
    secure_order_report,
)
from sebq.cipher import keygen
from sebq.feistel import cca2_keygen, decrypt_cca2, encrypt_cca2
from sebq.games import (
    ExhaustiveCpaStrategy,
    OracleSession,
    PlainScheme,
    TableRecoveryCcaStrategy,
    cca_table_recovery,
    cpa_column_recovery,
    make_scheme_factory,
    run_ind_cca,
    run_ind_cpa,
)
from sebq.latin import (
    LatinSquare,
    count_latin_squares_backtrack,
    count_latin_squares_formula,
    latin_square_log2_bounds,
    parastrophe,
)
from sebq.cipher import decrypt, encrypt
from sebq.transforms import d_transform, e_transform

# the worked 5x5 multiplication and left-division tables, 0-relabeled
WORKED_MUL = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
WORKED_LDIV = [
    [0, 1, 2, 3, 4],
    [1, 0, 4, 2, 3],
    [2, 3, 0, 4, 1],
    [3, 4, 1, 0, 2],
    [4, 2, 3, 1, 0],
]


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_round_trip_correctness():
    """decrypt(encrypt(M)) = M, 1000 random (key, IV, M) per k, both schemes."""
    with criterion("round-trip"):
        start = time.time()
        rng = random.Random(20240817)
        for k in (1, 2, 4, 8):
            order = 1 << k
            keys = [keygen(k, rng.randrange(2**63)) for _ in range(8 if k < 8 else 6)]
            cca2_keys = [
                cca2_keygen(k, rng.randrange(2**63), seed_blocks=rng.randint(1, 2))
                for _ in range(8 if k < 8 else 6)
            ]
            for i in range(1000):
                iv = [rng.randrange(order) for _ in range(rng.randint(1, 4))]
                msg = [rng.randrange(order) for _ in range(rng.randint(0, 16))]
                key = keys[i % len(keys)]
                assert decrypt(key, iv, encrypt(key, iv, msg)) == msg
                ck = cca2_keys[i % len(cca2_keys)]
                assert decrypt_cca2(ck, iv, encrypt_cca2(ck, iv, msg)) == msg
        elapsed = time.time() - start
        print(f"  round-trip: 8000 cases in {elapsed:.1f}s")
        assert elapsed < 10.0


def test_worked_example_parastrophe():
    """Parastrophe of the worked 5x5 table matches its left-division panel."""
    with criterion("worked-example-parastrophe"):
        assert parastrophe(LatinSquare(WORKED_MUL)) == LatinSquare(WORKED_LDIV)


def test_exact_count_reproduction():
    """Exact counts: formula 1..4, backtracking through order 5."""
    with criterion("exact-counts"):
        start = time.time()
        assert [count_latin_squares_formula(n) for n in range(1, 5)] == [1, 2, 12, 576]
        assert count_latin_squares_backtrack(5) == 161280
        elapsed = time.time() - start
        print(f"  counts: {elapsed:.1f}s")
        assert elapsed < 60.0


def test_count_bounds_sandwich():
    """Log-bounds bracket exact counts and the quoted order-128 magnitudes."""
    with criterion("count-bounds"):
        exact = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
        for n, count in exact.items():
            lower, upper = latin_square_log2_bounds(n)
            assert lower <= math.log2(count) + 1e-9 <= upper + 1e-9
        lower, upper = latin_square_log2_bounds(128)
        assert abs(lower - (math.log2(0.337) + 20666 * math.log2(10))) < 1.0
        assert abs(upper - (math.log2(0.164) + 21091 * math.log2(10))) < 1.0


def test_transform_inverse_and_bijection():
    """e/d inverse identity, exhaustively and at random; e is a bijection."""
    with criterion("transform-inverse"):
        # exhaustive: 4 fixed keys x 16 leaders x 64 messages = 2**12 cases
        for seed in (101, 102, 103, 104):
            q = keygen(2, seed).q
            for leader in itertools.product(range(4), repeat=2):
                seen = set()
                for msg in itertools.product(range(4), repeat=3):
                    cipher, final_e = e_transform(q, leader, msg)
                    plain, final_d = d_transform(q, leader, cipher)
                    assert tuple(plain) == msg
                    assert final_d == final_e
                    seen.add(tuple(cipher))
                assert len(seen) == 4**3  # bijection on the exhaustive set
        # 1000 random larger cases
        rng = random.Random(7)
        for _ in range(1000):
            k = rng.choice([2, 4, 8])
            q = keygen(k, rng.randrange(2**63)).q
            order = 1 << k
            leader = [rng.randrange(order) for _ in range(rng.randint(1, 8))]
            msg = [rng.randrange(order) for _ in range(rng.randint(0, 30))]
            cipher, _ = e_transform(q, leader, msg)
            plain, _ = d_transform(q, leader, cipher)
            assert plain == msg


def test_cca_attack_recovery_and_hardening():
    """Full table recovery against the plain scheme; failure against cca2."""
    with criterion("cca-attack"):
        rng = random.Random(31)
        # 100/100 exact recoveries within 240 decryption queries
        for _ in range(100):
            scheme = PlainScheme(keygen(4, rng.randrange(2**63)), 1)
            session = OracleSession(scheme, rng, bit=rng.randrange(2), decryption=True)
            session.issue_challenge((rng.randrange(16),), (rng.randrange(16),))
            rec = cca_table_recovery(session)
            assert rec.queries <= 240
            assert rec.completed is not None
            assert np.array_equal(rec.completed, scheme.key.q.mul.table)
        # the same strategy wins the game outright
        res = run_ind_cca(
            TableRecoveryCcaStrategy, make_scheme_factory("plain", 4, 1), 100, seed=32
        )
        assert res.advantage == 1.0
        # against the hardened scheme: near-chance advantage over 1000 trials
        res = run_ind_cca(
            TableRecoveryCcaStrategy, make_scheme_factory("cca2", 4, 1), 1000, seed=33
        )
        print(f"  cca2 branch: {res}")
        assert abs(res.advantage) <= 0.1
        # and the inferred cells stay below 10% of the table
        fracs = []
        for _ in range(30):
            scheme = make_scheme_factory("cca2", 4, 1)(rng)
            session = OracleSession(scheme, rng, bit=0, decryption=True)
            session.issue_challenge((0,), (1,))
            rec = cca_table_recovery(session)
            fracs.append(rec.recovered_cells(scheme.key.base.q.mul.table) / 256.0)
        mean_frac = sum(fracs) / len(fracs)
        print(f"  cca2 recovered-cell fraction: mean {mean_frac:.3f}")
        assert mean_frac < 0.10


def test_cpa_experiment():
    """Restricted game stays at chance; chosen-IV repeats leak a column."""
    with criterion("cpa-experiment"):
        res = run_ind_cpa(
            ExhaustiveCpaStrategy,
            make_scheme_factory("plain", 2, 1),
            1000,
            seed=41,
            allow_repeated_messages=False,
        )
        print(f"  restricted game: {res}")
        assert abs(res.advantage) <= 0.1
        rng = random.Random(42)
        for _ in range(100):
            key = keygen(4, rng.randrange(2**63))
            session = OracleSession(PlainScheme(key, 1), rng, bit=0, chosen_iv=True)
            m = rng.randrange(16)
            column = cpa_column_recovery(session, m)
            assert column == [int(v) for v in key.q.mul.table[:, m]]


@pytest.mark.parametrize("plaintext", ["random", "zeros", "ones"])
def test_ciphertext_randomness(plaintext):
    """>= 95/100 ciphertext sequences pass every sub-test at alpha 0.01."""
    with criterion(f"randomness-{plaintext}"):
        per_seq = ciphertext_suite_experiment(
            sequences=100,
            k=4,
            leader_blocks=100,
            message_bits=4000,
            plaintext=plaintext,
            alpha=0.01,
            seed=5150 + zlib.crc32(plaintext.encode()) % 1000,
        )
        agg = aggregate_pass_rates(per_seq)
        for name, slot in agg.items():
            print(f"  {plaintext:6s} {name:16s} {slot['success_pct']:5.1f}%")
            assert slot["total"] == 100
            assert slot["success_pct"] >= 95.0, (name, slot["success_pct"])


@pytest.mark.parametrize("target", ["key", "iv", "plaintext"])
def test_avalanche(target):
    """Mean percent-change in [49, 51], per-flip extremes in [47, 53]."""
    with criterion(f"avalanche-{target}"):
        start = time.time()
        report = avalanche_experiment(
            target,
            k=4,
            leader_blocks=100,
            message_bits=4000,
            positions=tuple(range(10)),
            experiments=10,
            seed=61 + len(target),
        )
        elapsed = time.time() - start
        print(f"  {report}  [{elapsed:.1f}s]")
        assert report.percents.size == 100
        assert 49.0 <= report.mean_pct <= 51.0
        assert 47.0 <= report.min_pct
        assert report.max_pct <= 53.0
        assert elapsed < 300.0


def test_operation_counts():
    """Formula evaluation plus instrumented lookups = n*l on every run."""
    with criterion("operation-counts"):
        assert operation_count(4, 4, 16) == 124
        rng = random.Random(71)
        for _ in range(50):
            k = rng.choice([1, 2, 4])
            key = keygen(k, rng.randrange(2**63))
            n = rng.randint(1, 10)
            l = rng.randint(0, 40)
            iv = [rng.randrange(key.order) for _ in range(n)]
            msg = [rng.randrange(key.order) for _ in range(l)]
            lookups, xors = instrumented_counts(key, iv, msg)
            assert lookups == n * l
            assert xors == (n - 1) * l
        # the worked-example discrepancy is carried in the report text
        assert "70" in OPCOUNT_DISCREPANCY_NOTE
        assert "124" in OPCOUNT_DISCREPANCY_NOTE


def test_min_secure_order():
    """Policy-dependent thresholds, with the published guidance noted."""
    with criterion("secure-order"):
        assert min_secure_order(128, policy="exact") == 10
        assert min_secure_order(256, policy="lower") == 14
        rep128 = secure_order_report(128)
        rep256 = secure_order_report(256)
        assert "order > 11" in rep128["published_guidance"]
        assert "order > 13" in rep256["published_guidance"]
        assert "11" in rep128["note"] and "13" in rep128["note"]
        print(
            f"  128-bit: exact {rep128['order_exact_policy']} / "
            f"lower {rep128['order_lower_policy']} (guidance {rep128['published_guidance']}); "
            f"256-bit: exact {rep256['order_exact_policy']} / "
            f"lower {rep256['order_lower_policy']} (guidance {rep256['published_guidance']})"
        )
