"""The one Latin-square search and the one repeat scan, against brute force."""

import random

import numpy as np
import pytest

from sebq.games import PartialLatinSquare, complete_latin_square
from sebq.latin import (
    LatinViolation,
    Quasigroup,
    enumerate_latin_squares,
    random_latin_square,
    validate_latin_square,
)


def reference_violation(table):
    """First repeat by a plain per-line scan: rows top to bottom, then columns."""
    arr = np.asarray(table)
    for axis, lines in (("row", arr), ("column", arr.T)):
        for i, line in enumerate(lines.tolist()):
            seen = set()
            for s in line:
                if s in seen:
                    return LatinViolation(axis, i, s)
                seen.add(s)
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_is_lexicographic(n):
    squares = [sq.tolist() for sq in enumerate_latin_squares(n)]
    assert squares == sorted(squares)
    assert len({str(sq) for sq in squares}) == len(squares)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_completion_matches_brute_force(n):
    squares = np.array(list(enumerate_latin_squares(n)))
    rng = random.Random(100 + n)
    for trial in range(120):
        holes = trial % (n * n + 1)  # every hole count from 0 to n*n
        if trial % 3:
            cells = squares[rng.randrange(len(squares))].copy()
        else:
            # a partial that need not come from any square: known cells only repeat-free
            cells = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
            for i in range(n):
                for j in range(n):
                    if (cells[i] == cells[i, j]).sum() > 1 or (cells[:, j] == cells[i, j]).sum() > 1:
                        cells[i, j] = -1
        flat = cells.reshape(-1)
        flat[rng.sample(range(n * n), holes)] = -1
        try:
            partial = PartialLatinSquare(cells)
        except ValueError:
            continue
        known = cells >= 0
        fits = [sq for sq in squares if np.array_equal(sq[known], cells[known])]
        res = complete_latin_square(partial)
        if not fits:
            assert res.square is None and not res.multiple
            continue
        assert any(np.array_equal(res.square, sq) for sq in fits)
        assert np.array_equal(res.square[known], cells[known])
        assert res.multiple == (len(fits) >= 2)


def test_validation_matches_reference_scan():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randint(1, 9)
        table = random_latin_square(n, rng.randrange(2**32)).table.copy()
        for _ in range(rng.randint(0, 3)):
            table[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        assert validate_latin_square(table) == reference_violation(table)


def reference_partial_repeat(cells):
    """(axis, index) of the first line repeating a known symbol, skipping ``-1``; else None."""
    for axis, lines in (("row", cells), ("column", cells.T)):
        for i, line in enumerate(lines.tolist()):
            known = [s for s in line if s >= 0]
            if len(set(known)) < len(known):
                return axis, i
    return None


def test_partial_verdicts_match_reference_scan():
    rng = random.Random(16)
    verdicts = set()
    for _ in range(3000):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            cells = random_latin_square(n, rng.randrange(2**32)).table.copy()
            for _ in range(rng.randint(0, 3)):
                cells[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        else:
            cells = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        cells[np.array([[rng.random() < 0.6 for _ in range(n)] for _ in range(n)])] = -1
        want = reference_partial_repeat(cells)
        verdicts.add(want and want[0])
        if want is None:
            assert np.array_equal(PartialLatinSquare(cells).cells, cells)
        else:
            with pytest.raises(ValueError, match=f"in {want[0]} {want[1]}$"):
                PartialLatinSquare(cells)
    assert verdicts == {None, "row", "column"}


@pytest.mark.parametrize("n", [*range(1, 21), 256])
def test_ldiv_is_the_row_argsort(n):
    for seed in range(3):
        square = random_latin_square(n, 1000 * n + seed)
        assert np.array_equal(Quasigroup.from_square(square).ldiv.table, np.argsort(square.table, axis=1))


class TestPartialRepeats:
    def test_unknown_cells_may_repeat(self):
        cells = np.array([[0, -1, -1], [-1, -1, -1], [-1, -1, 0]])
        assert PartialLatinSquare(cells).order == 3

    def test_row_repeat_refused(self):
        with pytest.raises(ValueError, match="row 1"):
            PartialLatinSquare(np.array([[0, -1, -1], [2, -1, 2], [-1, -1, -1]]))

    def test_column_repeat_refused(self):
        with pytest.raises(ValueError, match="column 2"):
            PartialLatinSquare(np.array([[-1, -1, 1], [-1, -1, -1], [-1, 0, 1]]))

    def test_row_named_before_column(self):
        # column 0 repeats 0 and row 1 repeats 1: rows are scanned first
        with pytest.raises(ValueError, match="row 1"):
            PartialLatinSquare(np.array([[0, -1, -1], [0, 1, 1], [-1, -1, -1]]))

    @pytest.mark.parametrize(
        "cells",
        [[[0.5, -1], [-1, 1.9]], [[-1.5, -1], [-1, 1]], np.array([[0.0, -1.0], [-1.0, 0.25]])],
    )
    def test_non_integer_cells_refused(self, cells):
        # LatinSquare refuses the same entries; a cast would truncate them
        with pytest.raises(ValueError, match="table entries must be integers"):
            PartialLatinSquare(cells)

    def test_integral_float_cells_accepted(self):
        cells = PartialLatinSquare([[0.0, -1.0], [-1.0, 0.0]]).cells
        assert cells.dtype == np.int64 and cells.tolist() == [[0, -1], [-1, 0]]
