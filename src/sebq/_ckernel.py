"""The chained step, the key walk, the key-file parse and the Latin scan compiled from C, loaded with :mod:`ctypes`.

The chained step below is written once per direction and run by two
entry points, each taking the direction as ``inverse``.  ``sebq_chain`` is
:func:`sebq.transforms._encrypt_chain`, or with ``inverse``
``_decrypt_chain``, over a flat ``order x order`` ``uint8`` table indexed
``state << k | symbol``.  ``sebq_cca2`` is the per-block cca2 loop of
:func:`sebq.cipher._run` with :class:`sebq.feistel.QuasigroupSponge` as
its expander: sponge, fold and seed fold-back for every block of a message
in one call.  ``sebq_walk`` is the Latin-square random walk of
:func:`sebq.latin.random_latin_square` over ``int64`` arrays and the
walk's cells and adds buffers, in one call per square.  It draws its bits
itself, from the walk's own PCG64 generator through numpy's ``ctypes``
interface, exactly as the Python walk draws them, so a seed gives the
same key on either side.  ``sebq_parse_table`` reads the table body of a
key file written exactly as :func:`sebq.formats.key_to_text` writes it
into a ``uint8`` multiplication table in one pass (a canonical order is at
most 256, so every symbol fits a byte), and refuses any other text without
reading past it; :func:`sebq.formats.key_from_text` then runs its
reference parse instead, which alone refuses key files.  The same pass
scatters the left-division table and marks each symbol's row and column,
so it also says whether the table is Latin.
``sebq_first_repeat`` is the Latin scan of :func:`sebq.latin._first_repeat`:
one row-major pass over an ``n x n`` ``int64`` grid, with ``n * n`` bytes
of seen-marks, that finds the first row, else the first column, repeating
a symbol.  ``sebq_positions`` is the scatter of
:func:`sebq.latin._positions`, the column of each symbol in each row, which
on a Latin square is the left-division table.  Both take grids of symbols
in ``-1..n-1``, skip the ``-1`` cells, and return an error at any other
symbol before indexing with it.

The source is compiled once with ``cc`` into ``$XDG_CACHE_HOME/sebq/``
(default ``~/.cache/sebq/``), under a name made from the SHA-256 of the
source, the flags and the platform; each new build deletes the kernels
there built over 30 days before it.  Without a compiler or a writable
cache :func:`load` returns ``None`` and the Python loops and parse and the
numpy scan and scatter, which stay the reference, run instead.
:func:`kernel` is the one loaded copy the package shares.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from functools import cache

import numpy as np

SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* one chained step: fold acc through s, record the chain in s and
   checksum it into s[n - 1]; returns the cipher symbol */
static inline unsigned enc_step(const uint8_t *tab, int k, uint8_t *s, size_t n, unsigned acc)
{
    unsigned x = 0;
    for (size_t i = 0; i < n; i++) {
        acc = tab[(size_t)s[i] << k | acc];
        s[i] = (uint8_t)acc;
        x ^= acc;
    }
    s[n - 1] = (uint8_t)x;
    return acc;
}

/* its inverse under ldiv: s[i] is read, then overwritten with the chain
   value found one step earlier, so the new state is built in place */
static inline unsigned dec_step(const uint8_t *tab, int k, uint8_t *s, size_t n, unsigned u)
{
    unsigned x = u;
    for (size_t i = n - 1; i > 0; i--) {
        unsigned t = tab[(size_t)s[i] << k | u];
        s[i] = (uint8_t)u;
        u = t;
        x ^= t;
    }
    unsigned m = tab[(size_t)s[0] << k | u];
    s[0] = (uint8_t)u;
    s[n - 1] = (uint8_t)x;
    return m;
}

/* plain: encrypt through mul, or decrypt through ldiv; the direction is chosen outside the loop.
   Keep this order: with gcc 12 -O2 on x86-64 the other ran the same encrypt loop 8% slower. */
void sebq_chain(const uint8_t *tab, int k, uint8_t *s, size_t n,
                const uint8_t *in, uint8_t *out, size_t l, int inverse)
{
    if (!inverse)
        for (size_t j = 0; j < l; j++)
            out[j] = (uint8_t)enc_step(tab, k, s, n, in[j]);
    else
        for (size_t j = 0; j < l; j++)
            out[j] = (uint8_t)dec_step(tab, k, s, n, in[j]);
}

/* cca2: per block, the sponge absorbs the w-symbol seed into an all-zero
   state over mul and squeezes the whole squeeze string, of which the
   first a outputs are the leader; the block steps through that leader
   (tab is mul, or ldiv with inverse) and the advanced leader XOR-folds
   back into the seed.  st (w) and lead (a) are scratch. */
void sebq_cca2(const uint8_t *mul, const uint8_t *tab, int k,
               uint8_t *seed, size_t w, const uint8_t *sq, size_t nsq,
               uint8_t *st, uint8_t *lead, size_t a,
               const uint8_t *in, uint8_t *out, size_t l, int inverse)
{
    for (size_t j = 0; j < l; j++) {
        memset(st, 0, w);
        for (size_t i = 0; i < w; i++)
            enc_step(mul, k, st, w, seed[i]);
        for (size_t i = 0; i < nsq; i++) {
            unsigned v = enc_step(mul, k, st, w, sq[i]);
            if (i < a)
                lead[i] = (uint8_t)v;
        }
        out[j] = (uint8_t)(inverse ? dec_step(tab, k, lead, a, in[j])
                                   : enc_step(tab, k, lead, a, in[j]));
        memset(seed, 0, w);
        for (size_t i = 0, r = 0; i < a; i++) {
            seed[r] ^= lead[i];
            if (++r == w)
                r = 0;
        }
    }
}

/* the random walk of sebq.latin.random_latin_square on row-major n x n
   arrays: L, col_of[r][s] (column of s in row r) and row_of[c][s] (row of
   s in column c).  Each defect move draws 3 bits from the walk's generator
   (next_uint32 on gen), each the top bit of one 32-bit output, as
   Generator.integers(0, 2) makes it.  They are counted in buffers of nbits
   as the Python walk draws them: a defect move that finds fewer than 3
   left in the buffer draws and drops them first.  Returns 0 when the walk
   is over and -1 when cells or adds would run dry. */
int sebq_walk(int64_t *L, int64_t *col_of, int64_t *row_of, int64_t n, int64_t steps,
              const int64_t *cells, int64_t ncells, const int64_t *adds, int64_t nadds,
              uint32_t (*next_uint32)(void *), void *gen, int64_t nbits)
{
    int64_t done = 0, ci = 0, ai = 0, left = 0;
    /* the improper cell (r, c, extra, neg, cA, cB, rA, rB), r = -1 while proper */
    int64_t imp[8] = {-1};
    while (done < steps || imp[0] >= 0) {
        int64_t r, c, add, rem, r2, c2;
        if (imp[0] < 0) {
            if (ci > ncells - 2 || ai >= nadds)
                return -1;
            r = cells[ci];
            c = cells[ci + 1];
            ci += 2;
            add = adds[ai++];
            rem = L[r * n + c];
            if (add >= rem)
                add++;
            c2 = col_of[r * n + add];
            r2 = row_of[c * n + add];
            L[r * n + c] = add;
            col_of[r * n + add] = c;
            row_of[c * n + add] = r;
        } else {
            if (left < 3) {
                for (; left > 0; left--)
                    next_uint32(gen);
                left = nbits;
            }
            left -= 3;
            /* three statements, so the bits are drawn in this order */
            int b0 = next_uint32(gen) >> 31;
            int b1 = next_uint32(gen) >> 31;
            int b2 = next_uint32(gen) >> 31;
            r = imp[0];
            c = imp[1];
            add = imp[3];
            int64_t stored = L[r * n + c], other = b0 ? stored : imp[2];
            rem = b0 ? imp[2] : stored;
            /* the unchosen duplicate of add is the one that stays in place */
            int64_t c_keep = b1 ? imp[5] : imp[4];
            int64_t r_keep = b2 ? imp[7] : imp[6];
            c2 = b1 ? imp[4] : imp[5];
            r2 = b2 ? imp[6] : imp[7];
            L[r * n + c] = other;
            col_of[r * n + other] = c;
            row_of[c * n + other] = r;
            col_of[r * n + add] = c_keep;
            row_of[c * n + add] = r_keep;
        }
        /* the second copy of rem, for defect tracking, before it is overwritten */
        int64_t old_col = col_of[r2 * n + rem], old_row = row_of[c2 * n + rem];
        L[r * n + c2] = rem;
        col_of[r * n + rem] = c2;
        row_of[c2 * n + rem] = r;
        L[r2 * n + c] = rem;
        col_of[r2 * n + rem] = c;
        row_of[c * n + rem] = r2;
        if (L[r2 * n + c2] == rem) {
            L[r2 * n + c2] = add;
            col_of[r2 * n + add] = c2;
            row_of[c2 * n + add] = r2;
            imp[0] = -1;
            done++;
        } else {
            imp[0] = r2;
            imp[1] = c2;
            imp[2] = add;
            imp[3] = rem;
            imp[4] = c;
            imp[5] = old_col;
            imp[6] = r;
            imp[7] = old_row;
        }
    }
    return 0;
}

/* the table body of a key file as formats.key_to_text writes it: n rows of
   n decimal symbols below n with no leading zeros, one space between
   symbols and '\n' after each row, and nothing after the last.  Writes the
   symbols row-major to mul (n x n, n at most 256, so each fits a byte) and
   the column of each symbol in each row to ldiv, and marks in seen, n * n
   zeroed bytes, each symbol's row and column as sebq_first_repeat does.
   Returns 0 when no row or column repeats a symbol, and ldiv is then the
   left-division table; 1 when one does; or -1 at the first byte that does
   not fit, leaving the tables partly written.  Reads no byte at or past
   buf + len. */
int sebq_parse_table(const char *buf, size_t len, int64_t n, uint8_t *mul, uint8_t *ldiv, uint8_t *seen)
{
    const char *p = buf, *end = buf + len;
    int repeat = 0;
    for (int64_t r = 0; r < n; r++) {
        for (int64_t s = 0; s < n; s++)
            seen[s] &= 1;
        for (int64_t c = 0; c < n; c++) {
            if (p == end || *p < '0' || *p > '9')
                return -1;
            int64_t v = *p++ - '0';
            /* a leading 0 is the whole symbol; stopping once v >= n keeps v small */
            while (v && v < n && p != end && *p >= '0' && *p <= '9')
                v = v * 10 + (*p++ - '0');
            if (v >= n || p == end || *p++ != (c < n - 1 ? ' ' : '\n'))
                return -1;
            *mul++ = (uint8_t)v;
            ldiv[r * n + v] = (uint8_t)c;
            repeat |= (seen[v] & 2) | (seen[c * n + v] & 1);
            seen[v] |= 2;
            seen[c * n + v] |= 1;
        }
    }
    return p == end ? repeat != 0 : -1;
}

/* the first line of the n x n row-major grid a, of symbols in -1..n-1,
   that repeats a symbol, skipping -1 cells: row i as i, else column j as
   n + j, else -1.  One row-major pass, so the first row found to repeat is
   the first such row; the first column is the least found.  seen is n * n
   zeroed bytes of scratch: bit 0 of seen[j * n + s] marks s seen in column
   j, and bit 1 of seen[s] marks s seen in the current row.  Returns -2 at
   the first symbol outside -1..n-1 it reaches, before indexing with it. */
int64_t sebq_first_repeat(const int64_t *a, int64_t n, uint8_t *seen)
{
    int64_t col = -1;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t s = 0; s < n; s++)
            seen[s] &= 1;
        for (int64_t j = 0; j < n; j++) {
            int64_t s = a[i * n + j];
            if (s == -1)
                continue;
            if (s < -1 || s >= n)
                return -2;
            if (seen[s] & 2)
                return i;
            seen[s] |= 2;
            if (!(seen[j * n + s] & 1))
                seen[j * n + s] |= 1;
            else if (col < 0 || j < col)
                col = j;
        }
    }
    return col < 0 ? -1 : n + col;
}

/* out[i * n + s] = the column of s in row i of the m x n row-major grid a,
   of symbols in -1..n-1, or -1 where row i lacks s; where a row repeats s,
   its last column stands.  Returns -1 at the first symbol outside -1..n-1,
   before indexing with it, leaving out partly written; else 0. */
int sebq_positions(const int64_t *a, int64_t m, int64_t n, int64_t *out)
{
    for (int64_t i = 0; i < m * n; i++)
        out[i] = -1;
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < n; j++) {
            int64_t s = a[i * n + j];
            if (s < -1 || s >= n)
                return -1;
            if (s >= 0)
                out[i * n + s] = j;
        }
    return 0;
}
"""

FLAGS = ("-O2", "-shared", "-fPIC")
PRUNE_AGE = 30 * 24 * 3600  # seconds; kernels this much older than a new build are deleted

_P, _N, _I64 = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int64
_EXPORTS = (
    ("sebq_chain", [_P, ctypes.c_int, _P, _N, _P, _P, _N, ctypes.c_int], None),
    ("sebq_cca2", [_P, _P, ctypes.c_int, _P, _N, _P, _N, _P, _P, _N, _P, _P, _N, ctypes.c_int], None),
    ("sebq_walk", [_P, _P, _P, _I64, _I64, _P, _I64, _P, _I64, _P, _P, _I64], ctypes.c_int),
    ("sebq_parse_table", [_P, _N, _I64, _P, _P, _P], ctypes.c_int),
    ("sebq_first_repeat", [_P, _I64, _P], _I64),
    ("sebq_positions", [_P, _I64, _I64, _P], ctypes.c_int),
)


def _check_table(table: np.ndarray, k: int) -> None:
    order = 1 << k
    if table.dtype != np.uint8 or table.shape != (order, order) or not table.flags.c_contiguous:
        raise ValueError(f"table must be a contiguous uint8 array of shape ({order}, {order})")


class Kernel:
    """The compiled loops of one loaded library: plain and cca2, each way, the key walk,
    the key-file parse, the Latin scan and the symbol-position scatter."""

    def __init__(self, lib: ctypes.CDLL):
        fns = []
        for name, argtypes, restype in _EXPORTS:
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
            fns.append(fn)
        self._chain, self._cca2, self._walk, self._parse, self._first_repeat, self._positions = fns

    def run(self, table: np.ndarray, k: int, state, blocks, inverse: bool = False):
        """``(blocks_out, final_state)`` as ``uint8`` arrays, like the Python loops.

        ``table`` is the contiguous ``uint8`` mul (or, with ``inverse``,
        ldiv) table of order ``2**k``.  Every symbol of ``state`` and
        ``blocks`` must be below ``2**k``: the caller checks that.
        """
        state = np.array(state, dtype=np.uint8)
        blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
        _check_table(table, k)
        if not state.size:
            raise ValueError("empty state")
        out = np.empty_like(blocks)
        self._chain(table.ctypes.data, k, state.ctypes.data, state.size,
                    blocks.ctypes.data, out.ctypes.data, blocks.size, inverse)
        return out, state

    def run_cca2(self, tables, k: int, iv, blocks, squeeze, a: int, inverse: bool = False):
        """``blocks_out`` as a ``uint8`` array: the cca2 loop with the sponge as expander.

        ``tables`` is the ``(mul, ldiv)`` pair as in :meth:`run`; the
        sponge runs on mul in both directions.  ``iv`` is the first seed,
        ``squeeze`` the sponge's squeeze string and ``a`` the leader length,
        at most ``len(squeeze)``.  Every symbol of ``iv``, ``squeeze`` and
        ``blocks`` must be below ``2**k``: the caller checks that.
        """
        mul, tab = tables[0], tables[inverse]
        _check_table(mul, k)
        _check_table(tab, k)
        seed = np.array(iv, dtype=np.uint8)
        squeeze = np.ascontiguousarray(squeeze, dtype=np.uint8)
        blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
        if not seed.size:
            raise ValueError("empty seed")
        if not 1 <= a <= squeeze.size:
            raise ValueError(f"leader length a={a} must be in 1..{squeeze.size}, the squeeze length")
        # scratch for the sponge state and the leader, sized here: the C side has no buffers
        state = np.empty(seed.size, dtype=np.uint8)
        leader = np.empty(a, dtype=np.uint8)
        out = np.empty_like(blocks)
        self._cca2(mul.ctypes.data, tab.ctypes.data, k,
                   seed.ctypes.data, seed.size, squeeze.ctypes.data, squeeze.size,
                   state.ctypes.data, leader.ctypes.data, a,
                   blocks.ctypes.data, out.ctypes.data, blocks.size, inverse)
        return out

    def walk(self, L, col_of, row_of, steps: int, cells, adds, nbits: int, gen) -> None:
        """Run the Latin-square walk in place, drawing its bits from ``gen``.

        ``L``, ``col_of`` and ``row_of`` are the ``n x n`` arrays of
        :func:`sebq.latin.random_latin_square` and ``cells`` and ``adds`` its
        draw buffers, all contiguous ``int64`` arrays; the grids are updated
        in place.  ``gen`` is the walk's ``numpy.random.Generator``: each
        defect move draws 3 bits from its bit generator, the bits
        ``gen.integers(0, 2, size=nbits)`` would give, a buffer at a time.
        Nothing else may draw from ``gen`` during the call.  Every entry of
        the grids and buffers must be below ``n``: the caller draws them so.
        """
        n = L.shape[0]
        if any(g.dtype != np.int64 or g.shape != (n, n) or not g.flags.c_contiguous
               for g in (L, col_of, row_of)):
            raise ValueError(f"walk grids must be contiguous int64 arrays of shape ({n}, {n})")
        if any(b.dtype != np.int64 or b.ndim != 1 or not b.flags.c_contiguous for b in (cells, adds)):
            raise ValueError("walk buffers must be contiguous 1-D int64 arrays")
        bitgen = gen.bit_generator.ctypes
        rc = self._walk(L.ctypes.data, col_of.ctypes.data, row_of.ctypes.data, n, steps,
                        cells.ctypes.data, cells.size, adds.ctypes.data, adds.size,
                        bitgen.next_uint32, bitgen.state_address, nbits)
        if rc < 0:
            raise RuntimeError("internal error: the Latin-square walk would read outside its cells or adds")

    def parse_table(self, body, order: int) -> tuple[np.ndarray, np.ndarray | None] | None:
        """``(mul, ldiv)``, the ``order x order`` ``uint8`` tables of a canonical key-file body, else ``None``.

        ``body`` is the text after the order line: bytes, or a buffer of
        them such as a ``memoryview`` slice, read in place.  Canonical is
        the text :func:`sebq.formats.key_to_text` writes: rows of
        ``order`` decimal symbols below ``order`` with no leading zeros, one
        space between symbols and ``\\n`` after each row, and nothing
        more.  Any other ``body``, or an ``order`` over 256, gives ``None``.
        ``mul`` is the table as read.  The same pass marks each symbol's
        row and column: ``ldiv`` is the left-division table of ``mul``, or
        ``None`` when a row or column of ``mul`` repeats a symbol.  A
        symbol takes at least two bytes, so a ``body`` too short for the
        table is refused before the tables are allocated: the allocation is
        bounded by ``body``, not by ``order``.
        """
        if not 1 <= order <= 256 or len(body) < 2 * order * order:
            return None
        body = np.frombuffer(body, dtype=np.uint8)  # a view: the text is not copied
        # two tables, not one array of both: a 128 KiB array would get fresh pages on every load
        mul, ldiv = (np.empty((order, order), dtype=np.uint8) for _ in range(2))
        seen = np.zeros(order * order, dtype=np.uint8)  # held here: the C side writes to it
        verdict = self._parse(body.ctypes.data, body.size, order,
                              mul.ctypes.data, ldiv.ctypes.data, seen.ctypes.data)
        if verdict < 0:
            return None
        return mul, (None if verdict else ldiv)

    def first_repeat(self, grid: np.ndarray) -> int:
        """The first line of ``grid`` that repeats a known symbol: row ``i`` as
        ``i``, else column ``j`` as ``n + j``, else ``-1``.

        ``grid`` is a contiguous ``n x n`` ``int64`` array of symbols in
        ``-1..n-1``; ``-1`` cells are unknown.  A symbol outside that range
        raises ``ValueError``.  The scan's scratch is ``n * n`` bytes.
        """
        n = grid.shape[0]
        if grid.dtype != np.int64 or grid.shape != (n, n) or not grid.flags.c_contiguous:
            raise ValueError("grid must be a contiguous square int64 array")
        seen = np.zeros(n * n, dtype=np.uint8)  # held here: the C side writes to it
        line = self._first_repeat(grid.ctypes.data, n, seen.ctypes.data)
        if line == -2:
            raise ValueError(f"grid holds a symbol outside -1..{n - 1}")
        return line

    def positions(self, grid: np.ndarray) -> np.ndarray:
        """``out[i, s]``, the column of ``s`` in row ``i`` of ``grid``, or ``-1`` where row ``i`` lacks ``s``.

        ``grid`` is a contiguous ``m x n`` ``int64`` array of symbols in
        ``-1..n-1``; where a row repeats a symbol its last column stands.
        A symbol outside that range raises ``ValueError``.  ``out`` is a new
        contiguous ``m x n`` ``int64`` array.
        """
        if grid.dtype != np.int64 or grid.ndim != 2 or not grid.flags.c_contiguous:
            raise ValueError("grid must be a contiguous 2-D int64 array")
        m, n = grid.shape
        out = np.empty((m, n), dtype=np.int64)
        if self._positions(grid.ctypes.data, m, n, out.ctypes.data) < 0:
            raise ValueError(f"grid holds a symbol outside -1..{n - 1}")
        return out



def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "sebq")


def _prune(cache: str, keep: str) -> None:
    """Delete the kernels in ``cache`` built over :data:`PRUNE_AGE` seconds before ``keep``.

    By age, not by name: a kernel another checkout built from other source
    lives on until it is old, so two checkouts do not rebuild each other's.
    """
    for old in glob.glob(os.path.join(glob.escape(cache), "chain-*.so")):
        with contextlib.suppress(OSError):
            if old != keep and os.path.getmtime(old) < os.path.getmtime(keep) - PRUNE_AGE:
                os.remove(old)


def load(*, _cc: str = "cc", _cache: str | None = None) -> Kernel | None:
    """The compiled kernel, built on first use; ``None`` if it cannot be had.

    ``_cc`` and ``_cache`` stand in for the compiler and the cache
    directory in tests.
    """
    cache = _cache or _cache_dir()
    ident = "\0".join((SOURCE, *FLAGS, sys.platform, platform.machine()))
    path = os.path.join(cache, f"chain-{hashlib.sha256(ident.encode()).hexdigest()[:16]}.so")
    try:
        if not os.path.exists(path):
            os.makedirs(cache, exist_ok=True)
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                subprocess.run([_cc, *FLAGS, "-x", "c", "-o", tmp, "-"], input=SOURCE.encode(),
                               capture_output=True, check=True, timeout=120)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
            _prune(cache, path)
        return Kernel(ctypes.CDLL(path))
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None


@cache
def kernel() -> Kernel | None:
    """The compiled loops, loaded (and built, the first time ever) on first use."""
    return load()
