"""The chained step compiled from C, loaded with :mod:`ctypes`.

The two loops below are :func:`sebq.transforms._encrypt_chain` and
``_decrypt_chain`` over a flat ``order x order`` ``uint8`` table indexed
``state << k | symbol``.  The source is compiled once with ``cc`` into
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

void sebq_encrypt(const uint8_t *tab, int k, uint8_t *s, size_t n,
                  const uint8_t *in, uint8_t *out, size_t l)
{
    for (size_t j = 0; j < l; j++) {
        unsigned acc = in[j], x = 0;
        for (size_t i = 0; i < n; i++) {
            acc = tab[(size_t)s[i] << k | acc];
            s[i] = (uint8_t)acc;
            x ^= acc;
        }
        out[j] = (uint8_t)acc;
        s[n - 1] = (uint8_t)x;
    }
}

/* s[i] is read, then overwritten with the chain value found one step
   earlier, so the new state is built in place */
void sebq_decrypt(const uint8_t *tab, int k, uint8_t *s, size_t n,
                  const uint8_t *in, uint8_t *out, size_t l)
{
    for (size_t j = 0; j < l; j++) {
        unsigned u = in[j], x = u;
        for (size_t i = n - 1; i > 0; i--) {
            unsigned t = tab[(size_t)s[i] << k | u];
            s[i] = (uint8_t)u;
            u = t;
            x ^= t;
        }
        out[j] = tab[(size_t)s[0] << k | u];
        s[0] = (uint8_t)u;
        s[n - 1] = (uint8_t)x;
    }
}
"""

FLAGS = ("-O2", "-shared", "-fPIC")

_ARGTYPES = [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_size_t,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t]


class Kernel:
    """The two compiled loops of one loaded library."""

    def __init__(self, lib: ctypes.CDLL):
        self._loops = (lib.sebq_encrypt, lib.sebq_decrypt)
        for fn in self._loops:
            fn.argtypes = _ARGTYPES
            fn.restype = None

    def run(self, table: np.ndarray, k: int, state, blocks, inverse: bool = False):
        """``(blocks_out, final_state)`` as ``uint8`` arrays, like the Python loops.

        ``table`` is the contiguous ``uint8`` mul (or, with ``inverse``,
        ldiv) table of order ``2**k``.  Every symbol of ``state`` and
        ``blocks`` must be below ``2**k``: the caller checks that.
        """
        state = np.array(state, dtype=np.uint8)
        blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
        order = 1 << k
        if table.dtype != np.uint8 or table.shape != (order, order) or not table.flags.c_contiguous:
            raise ValueError(f"table must be a contiguous uint8 array of shape ({order}, {order})")
        if not state.size:
            raise ValueError("empty state")
        out = np.empty_like(blocks)
        self._loops[inverse](table.ctypes.data, k, state.ctypes.data, state.size,
                             blocks.ctypes.data, out.ctypes.data, blocks.size)
        return out, state


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
