import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaincc

from sebq import latin
from sebq.latin import (
    LatinSquare,
    LatinViolation,
    Quasigroup,
    StructureError,
    count_latin_squares_backtrack,
    count_latin_squares_formula,
    cyclic_latin_square,
    enumerate_latin_squares,
    intercalate_swap,
    is_latin_square,
    latin_square_log2_bounds,
    parastrophe,
    permanent,
    random_latin_square,
    validate_latin_square,
    xor_latin_square,
)

# the worked 5x5 example tables, relabeled to 0-based symbols
MUL_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
LDIV_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 4, 2, 3],
    [2, 3, 0, 4, 1],
    [3, 4, 1, 0, 2],
    [4, 2, 3, 1, 0],
]


class TestValidation:
    def test_xor_table_is_latin(self):
        assert validate_latin_square([[i ^ j for j in range(4)] for i in range(4)]) is None

    def test_worked_example_table_is_latin(self):
        assert validate_latin_square(MUL_5) is None

    def test_row_duplicate_reported_first(self):
        assert validate_latin_square([[0, 0], [1, 1]]) == LatinViolation("row", 0, 0)

    def test_column_duplicate(self):
        v = validate_latin_square([[0, 1], [0, 1]])
        assert v is not None and v.axis == "column" and v.symbol == 0

    def test_non_square_is_structural(self):
        with pytest.raises(StructureError):
            validate_latin_square([[0, 1, 2], [1, 2, 0]])

    def test_out_of_range_symbol_is_structural(self):
        with pytest.raises(StructureError):
            validate_latin_square([[0, 1], [1, 5]])

    def test_non_integer_is_structural(self):
        with pytest.raises(StructureError):
            validate_latin_square([[0.5, 1], [1, 0.5]])

    def test_is_latin_square(self):
        assert is_latin_square(MUL_5)
        assert not is_latin_square([[0, 0], [1, 1]])

    def test_latin_square_type_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            LatinSquare([[0, 0], [1, 1]])

    def test_table_is_frozen(self):
        sq = LatinSquare(MUL_5)
        with pytest.raises(ValueError):
            sq.table[0, 0] = 3


class TestParastrophe:
    def test_worked_example_panels_match(self):
        assert parastrophe(LatinSquare(MUL_5)) == LatinSquare(LDIV_5)

    def test_xor_table_is_self_parastrophic(self):
        sq = xor_latin_square(8)
        assert parastrophe(sq) == sq

    def test_double_parastrophe_is_identity(self):
        for seed in range(20):
            sq = random_latin_square(8, seed)
            assert parastrophe(parastrophe(sq)) == sq

    def test_quasigroup_identities_exhaustive(self):
        for seed in range(10):
            q = Quasigroup.from_square(random_latin_square(8, seed))
            mul, ldiv = q.mul.table, q.ldiv.table
            for x in range(8):
                for y in range(8):
                    assert ldiv[x][mul[x][y]] == y
                    assert mul[x][ldiv[x][y]] == y

    def test_mismatched_tables_rejected(self):
        with pytest.raises(ValueError):
            Quasigroup(LatinSquare(MUL_5), LatinSquare(MUL_5))

    def test_from_square_scatters_once(self, monkeypatch):
        square = random_latin_square(16, 3)
        calls = []
        real = latin._positions
        monkeypatch.setattr(latin, "_positions", lambda arr: calls.append(1) or real(arr))
        q = Quasigroup.from_square(square)
        assert len(calls) == 1
        assert Quasigroup(square, q.ldiv).ldiv == q.ldiv  # the checked constructor takes the pair
        assert not q.ldiv.table.flags.writeable


class TestRandomGeneration:
    def test_order_one(self):
        assert random_latin_square(1, 123).table.tolist() == [[0]]

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            random_latin_square(0, 1)

    def test_deterministic_per_seed(self):
        assert random_latin_square(4, 99) == random_latin_square(4, 99)
        assert random_latin_square(16, 5) == random_latin_square(16, 5)

    def test_distinct_across_seeds(self):
        squares = {random_latin_square(8, s) for s in range(30)}
        assert len(squares) == 30

    def test_outputs_always_valid(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 20)
            sq = random_latin_square(n, rng.randrange(10**9))
            assert validate_latin_square(sq.table) is None

    @pytest.mark.slow
    def test_order4_uniformity_chi_square(self):
        """10000 seeded samples hit all 576 squares ~uniformly."""
        ref = [sq.tobytes() for sq in enumerate_latin_squares(4)]
        counts = Counter()
        for s in range(10000):
            counts[random_latin_square(4, s).table.tobytes()] += 1
        assert len(counts) == 576
        expected = 10000 / 576
        chi2 = sum((counts.get(k, 0) - expected) ** 2 / expected for k in ref)
        p = gammaincc(575 / 2, chi2 / 2)
        assert p > 0.001, f"chi2={chi2:.1f} p={p:.2e}"


class TestEnumerationAndCounting:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 576)])
    def test_enumeration_counts(self, n, count):
        squares = list(enumerate_latin_squares(n))
        assert len(squares) == count
        assert all(validate_latin_square(sq) is None for sq in squares[:20])

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 576), (5, 161280)])
    def test_backtrack_counts(self, n, count):
        assert count_latin_squares_backtrack(n) == count

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 576)])
    def test_formula_counts(self, n, count):
        assert count_latin_squares_formula(n) == count

    def test_formula_matches_backtrack(self):
        for n in range(1, 5):
            assert count_latin_squares_formula(n) == count_latin_squares_backtrack(n)

    def test_guards(self):
        with pytest.raises(ValueError):
            count_latin_squares_formula(5)
        with pytest.raises(ValueError):
            count_latin_squares_backtrack(6)
        with pytest.raises(ValueError):
            list(enumerate_latin_squares(5))


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(2, dtype=int)) == 1

    def test_all_ones_is_factorial(self):
        assert permanent(np.ones((3, 3), dtype=int)) == 6
        assert permanent(np.ones((5, 5), dtype=int)) == math.factorial(5)

    def test_hand_expansion(self):
        assert permanent([[1, 1], [1, 0]]) == 1

    def test_permutation_matrices(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 7)
            perm = list(range(n))
            rng.shuffle(perm)
            mat = np.zeros((n, n), dtype=int)
            mat[range(n), perm] = 1
            assert permanent(mat) == 1

    def test_invariant_under_row_and_column_swaps(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 6)
            mat = np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            p = permanent(mat)
            i, j = rng.sample(range(n), 2)
            rows = mat.copy()
            rows[[i, j]] = rows[[j, i]]
            cols = mat.copy()
            cols[:, [i, j]] = cols[:, [j, i]]
            assert permanent(rows) == p
            assert permanent(cols) == p

    def test_guards(self):
        with pytest.raises(ValueError):
            permanent(np.ones((21, 21), dtype=int))
        with pytest.raises(StructureError):
            permanent([[1, 0, 1], [0, 1, 0]])


class TestBounds:
    def test_order_one_is_exact(self):
        assert latin_square_log2_bounds(1) == (0.0, 0.0)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 576), (5, 161280)])
    def test_sandwich_small_orders(self, n, count):
        lower, upper = latin_square_log2_bounds(n)
        exact = math.log2(count)
        assert lower <= exact + 1e-9
        assert exact <= upper + 1e-9

    def test_order_128_brackets_quoted_magnitudes(self):
        lower, upper = latin_square_log2_bounds(128)
        lower_quoted = math.log2(0.337) + 20666 * math.log2(10)
        upper_quoted = math.log2(0.164) + 21091 * math.log2(10)
        assert abs(lower - lower_quoted) < 1.0
        assert abs(upper - upper_quoted) < 1.0

    def test_lower_never_exceeds_upper(self):
        for n in (1, 2, 5, 16, 64, 256):
            lower, upper = latin_square_log2_bounds(n)
            assert lower <= upper


class TestHelpers:
    def test_cyclic_square(self):
        assert validate_latin_square(cyclic_latin_square(7).table) is None

    def test_xor_requires_power_of_two(self):
        with pytest.raises(ValueError):
            xor_latin_square(6)

    def test_intercalate_swap_changes_exactly_four_cells(self):
        rng = random.Random(9)
        for seed in range(15):
            sq = random_latin_square(16, seed)
            swapped = intercalate_swap(sq, rng)
            assert validate_latin_square(swapped.table) is None
            assert int((sq.table != swapped.table).sum()) == 4

    def test_intercalate_swap_rejects_order_one(self):
        with pytest.raises(ValueError):
            intercalate_swap(LatinSquare([[0]]), 0)
