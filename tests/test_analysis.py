import csv
import json
import math
import random

import numpy as np
import pytest

from sebq.analysis import (
    EXACT_LATIN_COUNTS,
    OPCOUNT_DISCREPANCY_NOTE,
    aggregate_pass_rates,
    avalanche,
    avalanche_experiment,
    ciphertext_suite_experiment,
    encrypt_bit_sequence,
    frequency_test,
    instrumented_counts,
    latin_count_log2,
    min_secure_order,
    operation_count,
    randomness_suite,
    runs_test,
    secure_order_report,
    write_avalanche_csv,
    write_json_summary,
    write_stats_csv,
)
from sebq.cipher import SebqKey, keygen, pad
from sebq.latin import xor_latin_square


class TestIndividualTests:
    def test_frequency_10bit_oracle(self):
        # direct evaluation: |6 ones - 4 zeros| / sqrt(10), erfc(s / sqrt 2)
        rep = frequency_test([1, 0, 1, 1, 0, 1, 0, 1, 0, 1])
        expected = math.erfc((2 / math.sqrt(10)) / math.sqrt(2))
        assert rep.p_value == pytest.approx(expected)
        assert rep.p_value == pytest.approx(0.527, abs=5e-4)

    def test_all_zeros_fails_frequency(self):
        rep = frequency_test(np.zeros(4000, dtype=np.uint8))
        assert rep.p_value < 1e-10 and not rep.passed

    def test_alternating_balanced_but_not_random(self):
        alt = np.tile([0, 1], 2000)
        assert frequency_test(alt).p_value == pytest.approx(1.0)
        runs = runs_test(alt)
        assert runs.p_value < 1e-10 and not runs.passed

    def test_p_values_in_range(self):
        gen = np.random.default_rng(0)
        for _ in range(30):
            bits = gen.integers(0, 2, 500, dtype=np.uint8)
            for rep in randomness_suite(bits):
                if not rep.skipped:
                    assert 0.0 <= rep.p_value <= 1.0

    def test_short_sequence_subtests_skipped(self):
        bits = np.random.default_rng(1).integers(0, 2, 100, dtype=np.uint8)
        reports = {r.name: r for r in randomness_suite(bits)}
        assert reports["longest_run"].skipped  # needs 128 bits
        assert reports["block_frequency"].skipped  # needs a full 128-bit block
        assert not reports["frequency"].skipped

    def test_suite_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            randomness_suite([0, 1] * 20)

    @pytest.mark.parametrize("alpha", [0, 1, 2, -0.5, float("nan")])
    def test_suite_rejects_alpha_outside_unit_interval(self, alpha):
        bits = np.random.default_rng(2).integers(0, 2, 200, dtype=np.uint8)
        with pytest.raises(ValueError, match="alpha"):
            randomness_suite(bits, alpha)

    def test_good_rng_passes_consistently(self):
        gen = np.random.default_rng(42)
        per_seq = [
            randomness_suite(gen.integers(0, 2, 4000, dtype=np.uint8)) for _ in range(100)
        ]
        agg = aggregate_pass_rates(per_seq)
        for name, slot in agg.items():
            assert slot["success_pct"] >= 95.0, (name, slot["success_pct"])


class TestBitCheck:
    """Every bit-taking entry point, cipher and battery alike, takes only 0 and 1."""

    CALLERS = {
        "pad": lambda bits: pad(bits, 4),
        "frequency_test": frequency_test,
        "randomness_suite": randomness_suite,
        "encrypt_bit_sequence": lambda bits: encrypt_bit_sequence(keygen(4, 1), [3, 5], bits),
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize(
        "bits",
        [[0.5, 1.7, 1, 0] * 50, np.full(200, 0.5), [256] * 200, [-1] * 200, [2] * 200,
         np.full(200, 2, dtype=np.uint8), [None] * 200, ["1"] * 200],
        ids=["floats", "float-array", "256", "-1", "2", "uint8-2", "none", "str"],
    )
    def test_refuses_non_bits(self, caller, bits):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            self.CALLERS[caller](bits)

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_takes_bits_of_any_dtype(self, caller):
        bits = np.random.default_rng(3).integers(0, 2, 200)
        first = self.CALLERS[caller](bits.astype(np.uint8))
        for same in (bits.tolist(), bits.astype(bool), bits.astype(float), bits.reshape(20, 10)):
            assert repr(self.CALLERS[caller](same)) == repr(first)


class TestCiphertextBattery:
    def test_sebq_ciphertext_passes(self):
        per_seq = ciphertext_suite_experiment(sequences=30, seed=3)
        agg = aggregate_pass_rates(per_seq)
        for name, slot in agg.items():
            assert slot["success_pct"] >= 90.0, (name, slot["success_pct"])

    def test_alignment_guard(self):
        key = keygen(4, 1)
        with pytest.raises(ValueError):
            encrypt_bit_sequence(key, [0], [1, 0, 1])


class TestAvalanche:
    def test_xor_key_flip_is_exact(self):
        # linear table, single block: exactly the flipped bit changes
        key = SebqKey.from_square(xor_latin_square(4))
        rep = avalanche("plaintext", key, [1], [1, 0], positions=[0, 1])
        assert np.allclose(rep.percents, 100.0 / 2)

    def test_iv_flip_changes_all_blocks(self):
        rep = avalanche_experiment(
            "iv", k=4, leader_blocks=10, message_bits=400, positions=range(5),
            experiments=3, seed=4,
        )
        assert 40.0 <= rep.mean_pct <= 60.0

    def test_report_orderings(self):
        rep = avalanche_experiment(
            "plaintext", k=4, leader_blocks=10, message_bits=400, positions=range(5),
            experiments=3, seed=5,
        )
        assert rep.max_pct >= rep.mean_pct >= rep.min_pct
        assert rep.percents.shape == (3, 5)
        assert np.all((rep.percents >= 0) & (rep.percents <= 100))

    def test_key_perturbation_target(self):
        rep = avalanche_experiment(
            "key", k=4, leader_blocks=10, message_bits=400, experiments=2,
            flips_per_experiment=5, seed=6,
        )
        assert rep.percents.shape == (2, 5)
        assert 40.0 <= rep.mean_pct <= 60.0

    def test_flip_position_out_of_range(self):
        key = keygen(4, 2)
        with pytest.raises(ValueError):
            avalanche("plaintext", key, [0], [1, 0, 1, 1], positions=[99])
        with pytest.raises(ValueError):
            avalanche("iv", key, [0], [1, 0, 1, 1], positions=[4])

    @pytest.mark.parametrize("target", ["plaintext", "iv"])
    def test_empty_positions_named(self, target):
        key = keygen(4, 2)
        with pytest.raises(ValueError, match=f"^{target} avalanche needs flip positions"):
            avalanche(target, key, [0], [1, 0, 1, 1], positions=())

    def test_unknown_target(self):
        key = keygen(4, 2)
        with pytest.raises(ValueError):
            avalanche("nonce", key, [0], [1, 0, 1, 1], positions=[0])


class TestOperationCounts:
    def test_single_block_collapses_to_n(self):
        assert operation_count(7, 4, 1) == 7

    def test_reference_evaluation(self):
        assert operation_count(4, 4, 16) == 124

    def test_round_trip_double(self):
        assert 2 * operation_count(8, 4, 32) == 760

    def test_guards(self):
        with pytest.raises(ValueError):
            operation_count(0, 4, 4)
        with pytest.raises(ValueError):
            operation_count(4, 4, 0)

    def test_instrumented_small_trace(self):
        key = keygen(2, 1)
        assert instrumented_counts(key, [1, 2], [3, 0]) == (4, 2)

    def test_instrumented_empty_message(self):
        key = keygen(2, 1)
        assert instrumented_counts(key, [1, 2], []) == (0, 0)

    def test_instrumented_matches_formulas(self):
        rng = random.Random(0)
        for _ in range(20):
            k = rng.choice([1, 2, 4])
            key = keygen(k, rng.randrange(10**9))
            n = rng.randint(1, 8)
            l = rng.randint(0, 20)
            iv = [rng.randrange(key.order) for _ in range(n)]
            msg = [rng.randrange(key.order) for _ in range(l)]
            lookups, xors = instrumented_counts(key, iv, msg)
            assert lookups == n * l
            assert xors == (n - 1) * l

    def test_lookups_linear_in_message_length(self):
        key = keygen(4, 7)
        iv = [1, 2, 3]
        msg = [5] * 10
        l1, _ = instrumented_counts(key, iv, msg)
        l2, _ = instrumented_counts(key, iv, msg * 2)
        assert l2 == 2 * l1


class TestSecureOrder:
    def test_exact_policy_128(self):
        assert min_secure_order(128, policy="exact") == 10

    def test_lower_policy_256(self):
        assert min_secure_order(256, policy="lower") == 14

    def test_rejects_non_positive_ops(self):
        with pytest.raises(ValueError, match="ops_per_trial"):
            min_secure_order(128, ops_per_trial=0)

    def test_trivial_target(self):
        assert min_secure_order(1) == 1

    def test_policies_bracket_128(self):
        assert min_secure_order(128, policy="lower") == 11

    def test_monotone_in_target(self):
        prev = 0
        for bits in (1, 16, 64, 128, 192, 256, 384):
            order = min_secure_order(bits)
            assert order >= prev
            prev = order

    def test_exact_counts_log2_checkpoint(self):
        assert math.log2(EXACT_LATIN_COUNTS[10]) == pytest.approx(122.9, abs=0.1)

    def test_count_policies_consistent(self):
        # exact counts dominate the lower bound wherever both are known
        for m in range(1, 11):
            assert latin_count_log2(m, "exact") >= latin_count_log2(m, "lower") - 1e-9

    def test_report_carries_both_policies_and_guidance(self):
        rep = secure_order_report(128)
        assert rep["order_exact_policy"] == 10
        assert rep["order_lower_policy"] == 11
        assert "11" in rep["published_guidance"]
        rep = secure_order_report(256)
        assert rep["order_exact_policy"] == 14
        assert rep["order_lower_policy"] == 14
        assert "13" in rep["published_guidance"]

    def test_opcount_note_mentions_70(self):
        assert "70" in OPCOUNT_DISCREPANCY_NOTE and "124" in OPCOUNT_DISCREPANCY_NOTE


class TestEmitters:
    def test_stats_csv(self, tmp_path):
        per_seq = ciphertext_suite_experiment(
            sequences=3, k=2, leader_blocks=4, message_bits=400, seed=1
        )
        agg = aggregate_pass_rates(per_seq)
        path = tmp_path / "stats.csv"
        write_stats_csv(path, agg)
        with path.open(newline="") as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["test", "success_pct", "p_value"]
        assert len(rows) == 1 + len(agg)

    def test_avalanche_csv(self, tmp_path):
        rep = avalanche_experiment(
            "plaintext", k=2, leader_blocks=4, message_bits=100, positions=range(4),
            experiments=2, seed=2,
        )
        path = tmp_path / "aval.csv"
        write_avalanche_csv(path, rep)
        with path.open(newline="") as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["position", "exp_1", "exp_2", "average"]
        assert len(rows) == 1 + 4 + 3  # header + positions + max/min/mean

    def test_json_summary(self, tmp_path):
        path = tmp_path / "sum.json"
        write_json_summary(path, {"alpha": 0.01, "passes": 9})
        assert json.loads(path.read_text()) == {"alpha": 0.01, "passes": 9}


class TestBatteryPinned:
    """The battery's figures on one seeded sequence, so a refactor cannot move them unseen."""

    P_VALUES = {
        "frequency": 0.9495709711511051,
        "block_frequency": 0.4788599667210809,
        "runs": 0.3758860083051712,
        "longest_run": 0.41213463830846897,
        "cusum_forward": 0.4003384362179992,
        "cusum_backward": 0.3578068127693668,
        "serial_1": 0.7074759865428428,
        "serial_2": 0.6794558653663957,
        "approx_entropy": 0.7137343907162947,
    }

    @pytest.fixture
    def bits(self):
        x = random.Random(4000).getrandbits(4000)
        return np.array([(x >> i) & 1 for i in range(4000)], dtype=np.uint8)

    def test_p_values(self, bits):
        reports = randomness_suite(bits)
        assert [r.name for r in reports] == list(self.P_VALUES)
        for rep in reports:
            assert rep.p_value == pytest.approx(self.P_VALUES[rep.name], rel=1e-9), rep.name
            assert (rep.passed, rep.skipped, rep.note, rep.n_bits) == (True, False, "", 4000)

    def test_pass_flags_follow_alpha(self, bits):
        passed = {r.name: r.passed for r in randomness_suite(bits, alpha=0.45)}
        assert passed == {name: p >= 0.45 for name, p in self.P_VALUES.items()}
        assert set(passed.values()) == {True, False}


@pytest.mark.parametrize("target, kwargs", [("iv", {"positions": [0]}), ("key", {"trials": 1})])
def test_avalanche_refuses_an_empty_message(target, kwargs):
    with pytest.raises(ValueError, match=f"^{target} avalanche needs a message of at least one bit, got 0$"):
        avalanche(target, keygen(4, 2), [0], [], **kwargs)
