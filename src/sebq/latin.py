"""Latin squares and quasigroups.

Validation, parastrophe (left-division) tables, seeded random generation,
matrix permanents, exact square counting, and asymptotic count bounds.
Symbols are always ``0..n-1`` so tables index directly as arrays.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from sebq._ckernel import kernel as _kernel

__all__ = [
    "StructureError",
    "LatinViolation",
    "LatinSquare",
    "Quasigroup",
    "as_rng",
    "validate_latin_square",
    "is_latin_square",
    "parastrophe",
    "random_latin_square",
    "cyclic_latin_square",
    "xor_latin_square",
    "intercalate_swap",
    "enumerate_latin_squares",
    "count_latin_squares_backtrack",
    "count_latin_squares_formula",
    "permanent",
    "latin_square_log2_bounds",
]

SeedLike = Union[int, random.Random, None]


class StructureError(ValueError):
    """Table is not even a candidate square: bad shape, type, or symbol range."""


@dataclass(frozen=True)
class LatinViolation:
    """First Latin-property violation found while scanning a table.

    ``axis`` is ``"row"`` or ``"column"``, ``index`` the offending row or
    column, and ``symbol`` the duplicated value.
    """

    axis: str
    index: int
    symbol: int


def as_rng(seed: SeedLike = None) -> random.Random:
    """Coerce ``seed`` into a ``random.Random``; ``None`` draws OS entropy."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _as_int_array(table) -> np.ndarray:
    """Coerce to an ``int64`` array, refusing a ragged table or an entry that
    is not an integer or does not fit in 64 bits.

    An ``int64`` array comes back as it is, not copied.
    """
    try:
        arr = np.asarray(table)
    except ValueError as exc:  # ragged nested sequence
        raise StructureError(f"table is not rectangular: {exc}") from None
    if np.can_cast(arr.dtype, np.int64):  # bool and every integer type but uint64
        return arr.astype(np.int64, copy=False)
    # entry by entry through Python ints, so no value wraps or truncates unseen
    entries = arr.astype(object)
    try:
        cast = entries.astype(np.int64)
    except OverflowError:
        raise StructureError("table entries must fit in 64 bits") from None
    except (TypeError, ValueError):
        raise StructureError("table entries must be integers") from None
    if not np.array_equal(cast, entries):
        raise StructureError("table entries must be integers")
    return cast


def _as_square_array(table, lowest: int = 0) -> np.ndarray:
    """Coerce to an int array and enforce the structural preconditions: a
    non-empty square of symbols in ``lowest..n-1``.

    ``lowest=-1`` admits the unknown cells of a partial grid.
    """
    arr = _as_int_array(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise StructureError(f"table must be square and non-empty, got shape {arr.shape}")
    n = arr.shape[0]
    if arr.min() < lowest or arr.max() >= n:
        bad = arr[(arr < lowest) | (arr >= n)].flat[0]
        raise StructureError(f"symbol {bad} out of range {lowest}..{n - 1}")
    return arr


def validate_latin_square(table) -> Optional[LatinViolation]:
    """Check the Latin property: every symbol once per row and per column.

    Parameters
    ----------
    table : array_like
        Square array of symbols in ``0..n-1``.

    Returns
    -------
    LatinViolation or None
        ``None`` when the table is a Latin square, otherwise the first
        offending (axis, index, duplicated symbol).

    Raises
    ------
    StructureError
        If the table is not square or holds out-of-range symbols.  These
        are structural defects, distinct from Latin-property violations.
    """
    # a line of n symbols in 0..n-1 that repeats none holds each once
    return _first_repeat(_as_square_array(table))


def _positions(arr: np.ndarray) -> np.ndarray:
    """Where each symbol sits in each row: the one scatter behind every such question.

    ``arr`` is an ``(m, n)`` ``int64`` array of symbols in ``-1..n-1``.
    ``out[i, s]`` is the column of ``s`` in row ``i``, or ``-1`` where row
    ``i`` lacks ``s``.  Where a row repeats a symbol, its last column
    stands, so the row shows fewer symbols than it has known cells.  On a
    Latin square each row of ``out`` is the inverse permutation of its row
    of ``arr``: the left-division table.  The result is a new array, not
    always contiguous: a caller that needs it so makes it so.

    Runs as ``sebq_positions`` in C when the compiled kernel loads, else
    in numpy, the reference, where a ``-1`` cell lands in a spare column
    that is then dropped.
    """
    kernel = _kernel()
    if kernel is not None:
        return kernel.positions(np.ascontiguousarray(arr))
    m, n = arr.shape
    out = np.full((m, n + 1), -1, dtype=np.int64)
    out[np.arange(m)[:, None], arr] = np.arange(n)
    return out[:, :n]


def _first_repeat(arr: np.ndarray) -> Optional[LatinViolation]:
    """The first row, else the first column, where a known symbol repeats.

    ``arr`` is a square ``int64`` array of symbols in ``-1..n-1``; cells of
    ``-1`` are unknown.  The line is found by ``sebq_first_repeat`` in C
    when the compiled kernel loads, else by :func:`_repeat_line`, the
    reference; the symbol reported is the first seen twice on that line.
    """
    kernel = _kernel()
    line = _repeat_line(arr) if kernel is None else kernel.first_repeat(np.ascontiguousarray(arr))
    if line < 0:
        return None
    n = arr.shape[0]
    axis, known = ("row", arr[line]) if line < n else ("column", arr[:, line - n])
    seen = set()
    for s in known[known >= 0].tolist():
        if s in seen:
            return LatinViolation(axis, line % n, s)
        seen.add(s)


def _repeat_line(arr: np.ndarray) -> int:
    """The line :func:`_first_repeat` reports, in numpy: row ``i`` as ``i``,
    else column ``j`` as ``n + j``, else ``-1``.

    A line repeats a symbol when :func:`_positions` finds fewer symbols in
    it than it has known cells.
    """
    n = arr.shape[0]
    for base, lines in ((0, arr), (n, arr.T)):
        short = (_positions(lines) >= 0).sum(axis=1) < (lines >= 0).sum(axis=1)
        bad = np.flatnonzero(short)
        if bad.size:
            return base + int(bad[0])
    return -1


def is_latin_square(table) -> bool:
    """True iff ``table`` passes :func:`validate_latin_square`."""
    return validate_latin_square(table) is None


@dataclass(frozen=True, eq=False)
class LatinSquare:
    """An order-n table over symbols ``0..n-1``, each once per row and column.

    Construction validates the Latin property and freezes the backing array,
    so every live instance satisfies the invariant.
    """

    table: np.ndarray

    def __post_init__(self):
        # a copy, so the caller's array stays writable and later writes to it
        # do not reach the square
        self._hold(_as_int_array(self.table).copy())

    @classmethod
    def _of(cls, arr: np.ndarray, *, checked: bool = False) -> "LatinSquare":
        """The square over ``arr``, a new ``int64`` array no caller keeps: frozen as it is, not copied.

        ``arr`` is scanned as :class:`LatinSquare` scans a table, unless
        ``checked`` says its caller has already made sure it is Latin.
        """
        square = object.__new__(cls)
        square._hold(arr, checked)
        return square

    def _hold(self, arr: np.ndarray, checked: bool = False) -> None:
        arr.setflags(write=False)
        violation = None if checked else validate_latin_square(arr)
        if violation is not None:
            raise ValueError(
                f"not a Latin square: symbol {violation.symbol} repeats in "
                f"{violation.axis} {violation.index}"
            )
        object.__setattr__(self, "table", arr)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def to_lists(self) -> list[list[int]]:
        return self.table.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatinSquare):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash((self.order, self.table.tobytes()))

    def __repr__(self) -> str:
        return f"LatinSquare(order={self.order})"


def parastrophe(square: LatinSquare) -> LatinSquare:
    """Left-division table of ``square``: ``out[x][z] = y`` iff ``square[x][y] = z``.

    Each output row is the inverse permutation of the corresponding input
    row, so applying the operation twice returns the original square.
    """
    if not isinstance(square, LatinSquare):
        square = LatinSquare(square)
    return Quasigroup.from_square(square).ldiv


@dataclass(frozen=True, eq=False)
class Quasigroup:
    """A multiplication table paired with its precomputed left-division table.

    Satisfies ``ldiv[x][mul[x][y]] = y`` and ``mul[x][ldiv[x][y]] = y`` for
    all symbols; checked on construction.
    """

    mul: LatinSquare
    ldiv: LatinSquare

    def __post_init__(self):
        if self.mul.order != self.ldiv.order:
            raise ValueError("mul and ldiv tables have different orders")
        # mul is Latin, so ldiv[x][mul[x][y]] = y for all x, y holds only for its scatter
        if not np.array_equal(self.ldiv.table, _positions(self.mul.table)):
            raise ValueError("ldiv is not the left-division table of mul")

    @classmethod
    def from_square(cls, square: LatinSquare) -> "Quasigroup":
        # each row's inverse permutation: the very scatter __post_init__'s pair
        # check compares ldiv with, so the pair is built without that check.
        # It needs no Latin scan either: a repeat in one of its columns would
        # be a repeat in a column of `square`
        return cls._pair(square, LatinSquare._of(_positions(square.table), checked=True))

    @classmethod
    def _pair(cls, mul: LatinSquare, ldiv: LatinSquare) -> "Quasigroup":
        """The quasigroup of ``mul`` and ``ldiv``, which its caller knows to be its left-division table."""
        q = object.__new__(cls)
        object.__setattr__(q, "mul", mul)
        object.__setattr__(q, "ldiv", ldiv)
        return q

    @property
    def order(self) -> int:
        return self.mul.order

    @cached_property
    def mul_rows(self) -> list[list[int]]:
        """Multiplication table as nested lists, for tight Python loops."""
        return self.mul.to_lists()

    @cached_property
    def ldiv_rows(self) -> list[list[int]]:
        """Left-division table as nested lists, for tight Python loops."""
        return self.ldiv.to_lists()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quasigroup):
            return NotImplemented
        return self.mul == other.mul

    def __hash__(self) -> int:
        return hash(self.mul)

    def __repr__(self) -> str:
        return f"Quasigroup(order={self.order})"


def cyclic_latin_square(n: int) -> LatinSquare:
    """The addition table of integers mod ``n``: entry ``(i + j) % n``."""
    if n < 1:
        raise ValueError("order must be positive")
    idx = np.arange(n)
    return LatinSquare._of((idx[:, None] + idx[None, :]) % n)


def xor_latin_square(n: int) -> LatinSquare:
    """The XOR table ``entry[i][j] = i ^ j``; ``n`` must be a power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError("XOR table needs a power-of-two order")
    idx = np.arange(n)
    return LatinSquare._of(idx[:, None] ^ idx[None, :])


_BUF = 8192  # draws per buffer of the walk


def random_latin_square(order: int, seed: SeedLike = None) -> LatinSquare:
    """Sample a random Latin square of the given order.

    Runs a random walk over proper and improper squares (single-cell
    incidence defects), starting from a random isotopy of the cyclic
    square.  Deterministic for a fixed seed.

    The walk runs in C (``sebq_walk`` in :mod:`sebq._ckernel`) when the
    compiled kernel loads, else in :func:`_walk_python`, the reference.
    Both read the same two buffers of 8192 draws (cells, adds) from one
    PCG64 generator, then draw their defect-move bits from it in buffers
    of 8192, each bit the top bit of one 32-bit output.  The C walk draws
    them itself in its one call, so a seed gives the same square on either
    side.

    Parameters
    ----------
    order : int
        Square order, at least 1.
    seed : int, random.Random, or None
        Entropy source; ``None`` uses OS entropy.

    Returns
    -------
    LatinSquare
    """
    if order < 1:
        raise ValueError("order must be positive")
    rng = as_rng(seed)
    n = order
    if n == 1:
        return LatinSquare._of(np.zeros((1, 1), dtype=np.int64))

    rows = list(range(n))
    cols = list(range(n))
    syms = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    L = np.array(syms, dtype=np.int64)[np.add.outer(np.array(rows), np.array(cols)) % n]
    # the walk updates both maps in place, and the C walk takes contiguous arrays
    col_of = np.ascontiguousarray(_positions(L))  # col_of[r][s] = column of s in row r
    row_of = np.ascontiguousarray(_positions(L.T))  # row_of[c][s] = row of s in column c

    # Walk length counts proper landings only; defect excursions in between
    # are free moves.  The n=4 budget is validated against the uniformity
    # oracle; larger orders are capped for speed (isotopy randomization of
    # the start already decorrelates them).  Each proper move reads 2 cells
    # and 1 add, and there are exactly `steps` of them, so those two
    # buffers never run dry.
    steps = max(256, min(n * n * n, 1536))

    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(128)))
    cells = gen.integers(0, n, size=_BUF)
    adds = gen.integers(0, n - 1, size=_BUF)

    kernel = _kernel()
    if kernel is None:
        return LatinSquare._of(_walk_python(L, col_of, row_of, steps, gen, cells, adds))
    # gen is this call's own, so no other thread draws from it while the C
    # walk does with the GIL released
    kernel.walk(L, col_of, row_of, steps, cells, adds, _BUF, gen)
    return LatinSquare._of(L)


def _walk_python(L, col_of, row_of, steps, gen, cells, adds) -> np.ndarray:
    """The walk of :func:`random_latin_square` in Python: the reference.

    Takes the start square, its inverse maps and the cells and adds
    buffers as ``int64`` arrays and returns the walked square.  A defect
    move draws a fresh bits buffer from ``gen`` when fewer than 3 bits are
    left, the first one included; the left-over bits are dropped.
    """
    L = L.tolist()
    col_of = col_of.tolist()
    row_of = row_of.tolist()
    cells = cells.tolist()
    adds = adds.tolist()
    bits = []
    ci = ai = bi = 0

    # improper = (r, c, extra, neg, cA, cB, rA, rB): cell (r, c) holds the
    # stored symbol plus `extra`, minus `neg`; `neg` sits twice in row r (at
    # columns cA, cB) and twice in column c (at rows rA, rB).
    improper = None
    done = 0
    while done < steps or improper is not None:
        if improper is None:
            r = cells[ci]
            c = cells[ci + 1]
            ci += 2
            add = adds[ai]
            ai += 1
            rem = L[r][c]
            if add >= rem:
                add += 1
            c2 = col_of[r][add]
            r2 = row_of[c][add]
            L[r][c] = add
            col_of[r][add] = c
            row_of[c][add] = r
        else:
            r, c, extra, add, cA, cB, rA, rB = improper
            if bi >= len(bits) - 2:
                bits = gen.integers(0, 2, size=_BUF).tolist()
                bi = 0
            stored = L[r][c]
            if bits[bi]:
                rem, other = extra, stored
            else:
                rem, other = stored, extra
            if bits[bi + 1]:
                c2, c_keep = cA, cB
            else:
                c2, c_keep = cB, cA
            if bits[bi + 2]:
                r2, r_keep = rA, rB
            else:
                r2, r_keep = rB, rA
            bi += 3
            L[r][c] = other
            col_of[r][other] = c
            row_of[c][other] = r
            # the unchosen duplicate of `add` is the one that stays in place
            col_of[r][add] = c_keep
            row_of[c][add] = r_keep
        # second copy of rem (for defect tracking) before it is overwritten
        old_col = col_of[r2][rem]
        old_row = row_of[c2][rem]
        L[r][c2] = rem
        col_of[r][rem] = c2
        row_of[c2][rem] = r
        L[r2][c] = rem
        col_of[r2][rem] = c
        row_of[c][rem] = r2
        if L[r2][c2] == rem:
            L[r2][c2] = add
            col_of[r2][add] = c2
            row_of[c2][add] = r2
            improper = None
            done += 1
        else:
            improper = (r2, c2, add, rem, c, old_col, r, old_row)

    return np.array(L, dtype=np.int64)


def intercalate_swap(square: LatinSquare, seed: SeedLike = None) -> LatinSquare:
    """Swap the two symbols of a random 2x2 sub-square (an intercalate).

    This is the smallest change that preserves the Latin property: exactly
    four cells differ from the input.  Raises ``ValueError`` when the square
    has no intercalate (possible for some odd orders).
    """
    if square.order < 2:
        raise ValueError("no intercalate exists below order 2")
    rng = as_rng(seed)
    T = square.table
    n = square.order
    inverses = _positions(T)  # column of each symbol per row

    # 20*n*n random probes, then every (r1, r2 != r1, c1); drawn lazily
    draws = ((rng.randrange(n), rng.randrange(n - 1), rng.randrange(n)) for _ in range(20 * n * n))
    probes = itertools.chain(
        ((r1, r2 + (r2 >= r1), c1) for r1, r2, c1 in draws),
        ((r1, r2, c1) for r1 in range(n) for r2 in range(n) if r2 != r1 for c1 in range(n)),
    )
    for r1, r2, c1 in probes:
        c2 = inverses[r1, T[r2, c1]]
        if c2 != c1 and T[r2, c2] == T[r1, c1]:
            break
    else:
        raise ValueError("square has no intercalate")
    out = T.copy()
    out[r1, c1], out[r1, c2] = T[r1, c2], T[r1, c1]
    out[r2, c1], out[r2, c2] = T[r2, c2], T[r2, c1]
    return LatinSquare._of(out)


def _fill(grid: list[list[int]], found: Callable[[list[list[int]]], object]) -> None:
    """Fill the ``-1`` cells of ``grid`` in place; call ``found(grid)`` at each Latin completion.

    The known cells must repeat no symbol.  Holes are ordered once, fewest
    initial candidates first (a stable sort: row-major on an empty grid).
    Each step fills the first hole in that order with one candidate left,
    else the first open one, lowest symbol first, and backs up when a hole
    has none.  Forced holes never branch, so an empty grid yields its
    squares in lexicographic order.  A true ``found`` stops the search.
    """
    n = len(grid)
    full = (1 << n) - 1
    row_used = [0] * n
    col_used = [0] * n
    for i, row in enumerate(grid):
        for j, s in enumerate(row):
            if s >= 0:
                row_used[i] |= 1 << s
                col_used[j] |= 1 << s
    holes = [(row, i, j) for i, row in enumerate(grid) for j, s in enumerate(row) if s < 0]
    holes.sort(key=lambda h: (~(row_used[h[1]] | col_used[h[2]]) & full).bit_count())

    def rec() -> bool:
        pick = None
        for hole in holes:
            row, i, j = hole
            if row[j] >= 0:
                continue
            free = ~(row_used[i] | col_used[j]) & full
            if not free:
                return False
            forced = not free & (free - 1)
            if forced or pick is None:
                pick, options = hole, free
                if forced:
                    break
        if pick is None:
            return found(grid)
        row, i, j = pick
        while options:
            bit = options & -options
            options ^= bit
            row[j] = bit.bit_length() - 1
            row_used[i] |= bit
            col_used[j] |= bit
            if rec():
                return True
            row_used[i] ^= bit
            col_used[j] ^= bit
        row[j] = -1
        return False

    rec()


def enumerate_latin_squares(n: int) -> Iterator[np.ndarray]:
    """Yield every order-n Latin square, in lexicographic (row-major) order.

    Guarded to ``n <= 4`` (576 squares); larger orders would materialize
    hundreds of thousands of arrays.
    """
    if not 1 <= n <= 4:
        raise ValueError("enumeration is guarded to 1 <= n <= 4")
    squares = []
    _fill([[-1] * n for _ in range(n)], lambda grid: squares.append(np.array(grid, dtype=np.int64)))
    yield from squares


def count_latin_squares_backtrack(n: int) -> int:
    """Count order-n Latin squares by exhaustive row-by-row enumeration.

    Enumerates the squares whose first row is ``0..n-1`` and multiplies by
    ``n!``: each square is one relabelling of the symbols of exactly one of
    them.  Independent of the permanent-based formula; guarded to
    ``1 <= n <= 5``.
    """
    if not 1 <= n <= 5:
        raise ValueError("backtracking count is guarded to 1 <= n <= 5")
    completions = []
    _fill([list(range(n))] + [[-1] * n for _ in range(n - 1)], completions.append)  # None: never stops
    return math.factorial(n) * len(completions)


def permanent(matrix) -> int:
    """Exact matrix permanent: the determinant sum without sign alternation.

    Uses Ryser's inclusion-exclusion with Gray-code updates; exact over
    Python integers.  Entries are coerced as :class:`LatinSquare`'s are, so
    bools and integer-valued floats count as the integers they stand for.
    Guarded to ``n <= 20``.
    """
    arr = _as_int_array(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StructureError(f"matrix must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n > 20:
        raise ValueError("permanent is guarded to n <= 20")
    if n == 0:
        return 1
    rows = arr.tolist()

    total = 0
    colsum = [0] * n
    prev_gray = 0
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        bit = gray ^ prev_gray
        i = bit.bit_length() - 1
        row = rows[i]
        if gray & bit:
            for j in range(n):
                colsum[j] += row[j]
        else:
            for j in range(n):
                colsum[j] -= row[j]
        prev_gray = gray
        prod = 1
        for v in colsum:
            if not v:
                prod = 0
                break
            prod *= v
        if prod:
            total += prod if (gray.bit_count() & 1) == (n & 1) else -prod
    return total


def _permanent_from_row_masks(masks: Sequence[int], n: int) -> int:
    """Permanent of the 0/1 matrix whose rows are the given bitmasks."""

    def rec(i: int, used: int) -> int:
        if i == n:
            return 1
        total = 0
        avail = masks[i] & ~used
        while avail:
            bit = avail & -avail
            avail ^= bit
            total += rec(i + 1, used | bit)
        return total

    return rec(0, 0)


def count_latin_squares_formula(n: int) -> int:
    """Count order-n Latin squares via the permanent-based alternating sum.

    Evaluates ``n! * sum over 0/1 matrices A of (-1)^z(A) * C(perm(A), n)``
    where ``z`` counts zero entries.  The sum has ``2**(n*n)`` terms, so the
    order is guarded to ``1 <= n <= 4``.
    """
    if not 1 <= n <= 4:
        raise ValueError("formula count is guarded to 1 <= n <= 4 (2**(n*n) terms)")
    total = 0
    full_bits = n * n
    masks = [0] * n

    def rec(i: int, popcnt: int):
        nonlocal total
        if i == n:
            p = _permanent_from_row_masks(masks, n)
            if p >= n:
                term = math.comb(p, n)
                total += -term if (full_bits - popcnt) & 1 else term
            return
        for m in range(1 << n):
            masks[i] = m
            rec(i + 1, popcnt + m.bit_count())

    rec(0, 0)
    return math.factorial(n) * total


def latin_square_log2_bounds(n: int) -> tuple[float, float]:
    """Base-2 log bounds on the number of order-n Latin squares.

    Returns ``(lower, upper)`` with ``lower = log2((n!)^(2n) / n^(n^2))``
    and ``upper = log2(prod_{j<=n} (j!)^(n/j))``, accumulated in log space
    so huge orders (128, 256, ...) never overflow.
    """
    if n < 1:
        raise ValueError("order must be positive")
    log2_fact = 0.0
    ratio_sum = 0.0
    for j in range(1, n + 1):
        log2_fact += math.log2(j)
        ratio_sum += log2_fact / j
    lower = 2 * n * log2_fact - n * n * math.log2(n)
    upper = n * ratio_sum
    return lower, upper
