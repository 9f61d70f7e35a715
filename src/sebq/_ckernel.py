"""The chained step compiled from C, loaded with :mod:`ctypes`.

The chained step below is written once per direction and run by two pairs
of entry points.  ``sebq_encrypt``/``sebq_decrypt`` are
:func:`sebq.transforms._encrypt_chain` and ``_decrypt_chain`` over a flat
``order x order`` ``uint8`` table indexed ``state << k | symbol``.
``sebq_cca2_encrypt``/``sebq_cca2_decrypt`` are the per-block cca2 loop
of :func:`sebq.cipher._run` with :class:`sebq.feistel.QuasigroupSponge` as
its expander: sponge, fold and seed fold-back for every block of a message
in one call.  The source is compiled once with ``cc`` into
``$XDG_CACHE_HOME/sebq/`` (default ``~/.cache/sebq/``), under a name made
from the SHA-256 of the source, the flags and the platform.  Without a
compiler or a writable cache :func:`load` returns ``None`` and the Python
loops, which stay the reference, run instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys

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

void sebq_encrypt(const uint8_t *tab, int k, uint8_t *s, size_t n,
                  const uint8_t *in, uint8_t *out, size_t l)
{
    for (size_t j = 0; j < l; j++)
        out[j] = (uint8_t)enc_step(tab, k, s, n, in[j]);
}

void sebq_decrypt(const uint8_t *tab, int k, uint8_t *s, size_t n,
                  const uint8_t *in, uint8_t *out, size_t l)
{
    for (size_t j = 0; j < l; j++)
        out[j] = (uint8_t)dec_step(tab, k, s, n, in[j]);
}

/* cca2: per block, the sponge absorbs the w-symbol seed into an all-zero
   state over mul and squeezes the whole squeeze string, of which the
   first a outputs are the leader; the block steps through that leader
   (tab is mul, or ldiv with inverse) and the advanced leader XOR-folds
   back into the seed.  st (w) and lead (a) are scratch. */
static inline void cca2(const uint8_t *mul, const uint8_t *tab, int k,
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

void sebq_cca2_encrypt(const uint8_t *mul, const uint8_t *tab, int k,
                       uint8_t *seed, size_t w, const uint8_t *sq, size_t nsq,
                       uint8_t *st, uint8_t *lead, size_t a,
                       const uint8_t *in, uint8_t *out, size_t l)
{
    cca2(mul, tab, k, seed, w, sq, nsq, st, lead, a, in, out, l, 0);
}

void sebq_cca2_decrypt(const uint8_t *mul, const uint8_t *tab, int k,
                       uint8_t *seed, size_t w, const uint8_t *sq, size_t nsq,
                       uint8_t *st, uint8_t *lead, size_t a,
                       const uint8_t *in, uint8_t *out, size_t l)
{
    cca2(mul, tab, k, seed, w, sq, nsq, st, lead, a, in, out, l, 1);
}
"""

FLAGS = ("-O2", "-shared", "-fPIC")

_ARGTYPES = [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_size_t,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t]
_CCA2_ARGTYPES = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int,
                  ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t,
                  ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
                  ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t]


def _check_table(table: np.ndarray, k: int) -> None:
    order = 1 << k
    if table.dtype != np.uint8 or table.shape != (order, order) or not table.flags.c_contiguous:
        raise ValueError(f"table must be a contiguous uint8 array of shape ({order}, {order})")


class Kernel:
    """The compiled loops of one loaded library: plain and cca2, each way."""

    def __init__(self, lib: ctypes.CDLL):
        self._loops = (lib.sebq_encrypt, lib.sebq_decrypt)
        self._cca2 = (lib.sebq_cca2_encrypt, lib.sebq_cca2_decrypt)
        for fns, argtypes in ((self._loops, _ARGTYPES), (self._cca2, _CCA2_ARGTYPES)):
            for fn in fns:
                fn.argtypes = argtypes
                fn.restype = None

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
        self._loops[inverse](table.ctypes.data, k, state.ctypes.data, state.size,
                             blocks.ctypes.data, out.ctypes.data, blocks.size)
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
        self._cca2[inverse](mul.ctypes.data, tab.ctypes.data, k,
                            seed.ctypes.data, seed.size, squeeze.ctypes.data, squeeze.size,
                            state.ctypes.data, leader.ctypes.data, a,
                            blocks.ctypes.data, out.ctypes.data, blocks.size)
        return out


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "sebq")


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
        return Kernel(ctypes.CDLL(path))
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
