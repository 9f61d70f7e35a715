"""The chained step and the key walk compiled from C, loaded with :mod:`ctypes`.

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
same key on either side.  The source is compiled once with ``cc`` into
``$XDG_CACHE_HOME/sebq/`` (default ``~/.cache/sebq/``), under a name made
from the SHA-256 of the source, the flags and the platform; each new build
deletes the kernels there built over 30 days before it.  Without a
compiler or a writable cache :func:`load` returns ``None`` and the Python
loops, which stay the reference, run instead.  :func:`kernel` is the one
loaded copy the package shares.
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
"""

FLAGS = ("-O2", "-shared", "-fPIC")
PRUNE_AGE = 30 * 24 * 3600  # seconds; kernels this much older than a new build are deleted

_P, _N, _I64 = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int64
_EXPORTS = (
    ("sebq_chain", [_P, ctypes.c_int, _P, _N, _P, _P, _N, ctypes.c_int], None),
    ("sebq_cca2", [_P, _P, ctypes.c_int, _P, _N, _P, _N, _P, _P, _N, _P, _P, _N, ctypes.c_int], None),
    ("sebq_walk", [_P, _P, _P, _I64, _I64, _P, _I64, _P, _I64, _P, _P, _I64], ctypes.c_int),
)


def _check_table(table: np.ndarray, k: int) -> None:
    order = 1 << k
    if table.dtype != np.uint8 or table.shape != (order, order) or not table.flags.c_contiguous:
        raise ValueError(f"table must be a contiguous uint8 array of shape ({order}, {order})")


class Kernel:
    """The compiled loops of one loaded library: plain and cca2, each way, and the key walk."""

    def __init__(self, lib: ctypes.CDLL):
        fns = []
        for name, argtypes, restype in _EXPORTS:
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
            fns.append(fn)
        self._chain, self._cca2, self._walk = fns

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
