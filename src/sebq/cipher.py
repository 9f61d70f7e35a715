"""The SEBQ block cipher.

Key generation from random Latin squares of power-of-two order, the
per-block encrypt/decrypt maps with their chained leader state, the
whole-message maps (plain, or with a leader expander per block), and the
plumbing that connects k-bit symbols to byte streams.  The symbol layout
(MSB first, contiguous) lives in :func:`pack_bits` and ``_unpack_blocks``
alone, and the ``1 0*`` padding rule in ``_padded_blocks`` and
``_unpadded_length`` alone; both work on bytes.  With g = gcd(k, 8), a
symbol is k/g parts of g bits and a packed byte holds 8/g parts.  For
g > 1 one multiply spreads each byte to a little-endian word of 8/g bytes,
a part a byte, and one multiply gathers a word back to a byte; at k = 2, 4
and 8 the parts are the symbols.  For g = 1 the parts are bits, spread and
gathered by ``np.unpackbits``/``np.packbits``.  The chained step itself
lives in :mod:`sebq.transforms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from sebq.latin import LatinSquare, Quasigroup, SeedLike, random_latin_square
from sebq.transforms import _check_symbols, _decrypt_chain, _encrypt_chain, _kernel
from sebq.transforms import compress_fold, d_transform, e_transform

if TYPE_CHECKING:
    from sebq.feistel import Expander

__all__ = [
    "MAX_SYMBOL_BITS",
    "PaddingError",
    "SebqKey",
    "CipherState",
    "keygen",
    "encrypt_block",
    "decrypt_block",
    "encrypt",
    "decrypt",
    "pack_bits",
    "unpack_bits",
    "pad",
    "unpad",
]

# an order-256 table is 64 KiB; 2**16 would be gigabytes
MAX_SYMBOL_BITS = 8

# a compiled call costs what some 64 Python lookups do (a few microseconds);
# shorter runs, such as single blocks, stay in Python
_C_MIN_LOOKUPS = 64


class PaddingError(ValueError):
    """Unpadding failed: no terminating 1 bit in the padded tail."""


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_SYMBOL_BITS:
        raise ValueError(f"k must be in 1..{MAX_SYMBOL_BITS}, got {k}")


class SebqKey:
    """Secret key: a quasigroup of order ``2**k`` over k-bit symbols, ``k`` read off the order.

    ``SebqKey(q)`` holds the quasigroup ``q``.  A key the compiled parse
    reads from a key file holds only the two ``uint8`` tables the compiled
    loops read (see :meth:`_from_tables`); its ``q``, the ``int64``
    :class:`Quasigroup` the Python loops and the sponge read, is built from
    them on first use, with no second Latin scan.  ``order`` and ``k``
    never need ``q``.  Immutable; two keys are equal when their
    multiplication tables are.
    """

    def __init__(self, q: Quasigroup):
        self._hold(q.order, q=q)

    @classmethod
    def _from_tables(cls, mul: np.ndarray, ldiv: np.ndarray) -> "SebqKey":
        """The key of ``mul``, a contiguous ``uint8`` Latin square, and ``ldiv``, its left-division table.

        Both are held as they are, frozen, with no scan: the caller has
        checked ``mul`` and scattered ``ldiv`` from it.
        """
        key = object.__new__(cls)
        key._hold(len(mul), _tables=_frozen(mul, ldiv))
        return key

    def _hold(self, order: int, **held) -> None:
        vars(self).update(order=order, **held)
        if order != 1 << self.k:
            raise ValueError("key square order must be a power of two")
        _check_k(self.k)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def k(self) -> int:
        return self.order.bit_length() - 1

    @property
    def base(self) -> "SebqKey":
        """The key itself, so ``key.base`` is the table for plain and hardened keys alike."""
        return self

    @cached_property
    def q(self) -> Quasigroup:
        """The quasigroup, from a loaded key's tables: widened to ``int64``, not scanned again."""
        mul, ldiv = (LatinSquare._of(t.astype(np.int64), checked=True) for t in self._tables)
        return Quasigroup._pair(mul, ldiv)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The mul and ldiv tables as frozen contiguous ``uint8`` arrays, for the compiled loop."""
        return _frozen(*(np.ascontiguousarray(t.table, dtype=np.uint8) for t in (self.q.mul, self.q.ldiv)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SebqKey):
            return NotImplemented
        return np.array_equal(self._tables[0], other._tables[0])

    def __hash__(self) -> int:
        return hash(self._tables[0].tobytes())

    def __repr__(self) -> str:
        return f"SebqKey(order={self.order})"

    @classmethod
    def from_square(cls, square: LatinSquare) -> "SebqKey":
        return cls(Quasigroup.from_square(square))


def _frozen(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """``tables``, each made read-only: what a key holds, nothing may write to."""
    for t in tables:
        t.setflags(write=False)
    return tables


@dataclass(frozen=True)
class CipherState:
    """The evolving leader vector threaded through block-by-block operation."""

    leader: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "leader", tuple(int(b) for b in self.leader))
        if not self.leader:
            raise ValueError("leader must hold at least one block")

    @property
    def n(self) -> int:
        return len(self.leader)


def keygen(k: int, seed: SeedLike = None) -> SebqKey:
    """Generate a random key over k-bit symbols (order ``2**k`` table).

    Deterministic for a fixed seed; k is in ``1..MAX_SYMBOL_BITS``.
    """
    _check_k(k)
    return SebqKey.from_square(random_latin_square(1 << k, seed))


def encrypt_block(key: SebqKey, m: int, state: CipherState) -> tuple[int, CipherState]:
    """Encrypt one block: fold through the leader, then advance the leader."""
    (c,), leader = e_transform(key.q, state.leader, (m,))
    return c, CipherState(leader)


def decrypt_block(key: SebqKey, c: int, state: CipherState) -> tuple[int, CipherState]:
    """Invert :func:`encrypt_block`; the returned state matches the encrypt side."""
    (m,), leader = d_transform(key.q, state.leader, (c,))
    return m, CipherState(leader)


def lookups_per_block(n: int, a: int | None = None) -> int:
    """Table lookups one block costs under an n-block IV and, for cca2, an a-block leader.

    ``n`` for the plain scheme (``a`` None).  For cca2 the sponge absorbs
    the n-block seed (``n**2``) and squeezes ``ceil(a/2)`` pairs
    (``2n*ceil(a/2)``), then the block folds through the a-block leader.
    """
    if a is None:
        return n
    return n * n + 2 * n * ((a + 1) // 2) + a


def _listed(v):
    return v.tolist() if isinstance(v, np.ndarray) else v


def _run(key: SebqKey, iv, blocks, expander: Expander | None, inverse: bool):
    """Check the input, then run the chain over ``blocks`` (its inverse with ``inverse``).

    Without an ``expander`` the chain runs over the whole string under the
    IV.  With one, each block runs under its own leader ``expander.expand(seed)``
    and the advanced leader is XOR-folded back to seed width for the next
    block; the first seed is the IV.  The branch stays outside the per-block
    loop, so the plain path pays nothing for the expander.

    A run of at least ``_C_MIN_LOOKUPS`` lookups (:func:`lookups_per_block`
    times the block count) goes to the compiled kernel when one is loaded
    and comes back as a ``uint8`` array: a plain run, or a cca2 run
    whose expander is exactly a :class:`sebq.feistel.QuasigroupSponge` over
    the key's own quasigroup.  Every other expander, a subclass included,
    runs its own ``expand`` on the Python per-block loop, the reference,
    which returns a list.
    """
    _check_symbols(key.order, iv, "iv")
    if not len(iv):
        raise ValueError("iv must hold at least one block")
    _check_symbols(key.order, blocks, "ciphertext" if inverse else "message")
    a = None if expander is None else expander.a
    if lookups_per_block(len(iv), a) * len(blocks) >= _C_MIN_LOOKUPS and _kernel() is not None:
        if expander is None:
            return _kernel().run(key._tables[inverse], key.k, iv, blocks, inverse)[0]
        from sebq.feistel import QuasigroupSponge  # feistel imports this module

        # the exact type: a subclass may override expand, and then runs its own
        if type(expander) is QuasigroupSponge and expander.q is key.q:
            return _kernel().run_cca2(key._tables, key.k, iv, blocks, expander._squeeze, a, inverse)
    chain, rows = (_decrypt_chain, key.q.ldiv_rows) if inverse else (_encrypt_chain, key.q.mul_rows)
    iv, blocks = _listed(iv), _listed(blocks)
    if expander is None:
        return chain(rows, iv, blocks)[0]
    expand = expander.expand
    order = len(rows)
    width = len(iv)
    seed = iv
    out = []
    append = out.append
    for b in blocks:
        leader = expand(seed)
        # an expander may be plug-in code: its output is checked like outside input
        _check_symbols(order, leader, "expander output")
        (y,), leader = chain(rows, leader, (b,))
        append(y)
        seed = compress_fold(leader, width)
    return out


def encrypt(
    key: SebqKey, iv: Sequence[int], message: Sequence[int], expander: Expander | None = None
) -> list[int]:
    """Encrypt a block sequence under an initial leader vector.

    Runs the chained double loop: per message block, fold through the
    current leader while recording the chain, emit the last chain value as
    ciphertext, then XOR-checksum the chain into the next leader.  With an
    ``expander`` this is the chosen-ciphertext-hardened mode: every block's
    leader is ``expander.expand`` of a seed that starts at ``iv``.  The
    ``iv`` itself is unmodified and must travel with the ciphertext.
    """
    return _listed(_run(key, iv, message, expander, inverse=False))


def decrypt(
    key: SebqKey, iv: Sequence[int], ciphertext: Sequence[int], expander: Expander | None = None
) -> list[int]:
    """Invert :func:`encrypt` for the same key, IV and expander.

    Rebuilds the encrypt-side chain from the top down with the
    left-division table, so the internal state sequence matches the
    encrypt run block for block.
    """
    return _listed(_run(key, iv, ciphertext, expander, inverse=True))


def _bits(bits) -> np.ndarray:
    """``bits`` flattened to a ``uint8`` array, refused unless every value is 0 or 1."""
    arr = np.asarray(bits).ravel()
    # on uint8, the common case, one max() pass is the whole check
    bad = arr.max(initial=0) > 1 if arr.dtype == np.uint8 else not ((arr == 0) | (arr == 1)).all()
    if bad:
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


@cache
def _word(g: int) -> tuple[np.dtype, np.unsignedinteger, np.unsignedinteger]:
    """The word a packed byte's ``8/g`` g-bit parts spread to, a byte each; its multiplier and mask.

    A packed byte times the multiplier holds copies of the byte ``8 + g``
    bits apart, so the j-th copy has part j at bit ``8j + 8 - g``; copies
    never overlap, so no carry crosses them.  A spread word times the same
    value gathers its parts, most significant first, in its top byte.  The
    mask keeps the low g bits of every byte.
    """
    n = 8 // g
    word = np.dtype(f"<u{n}")
    spread = sum(1 << j * (8 + g) for j in range(n))
    return word, word.type(spread), word.type(((1 << g) - 1) * ((1 << 8 * n) // 255))


def pack_bits(blocks: Sequence[int], k: int) -> bytes:
    """Pack k-bit symbols into bytes, most significant bit first, contiguous."""
    _check_k(k)
    arr = np.asarray(blocks)
    _check_symbols(1 << k, arr, "block")
    arr = arr.astype(np.uint8, copy=False)
    g = math.gcd(k, 8)
    word, spread, _ = _word(g)
    # a byte per part, padded to a whole word for every packed byte
    parts = np.empty(-(-arr.size * k // 8) * word.itemsize, dtype=np.uint8)
    cols = parts[: arr.size * k // g].reshape(-1, k // g)
    for j in range(k // g):
        np.right_shift(arr, k - g - g * j, out=cols[:, j])
    cols &= (1 << g) - 1
    if g == 1:
        return np.packbits(cols).tobytes()
    parts[cols.size :] = 0
    packed = parts.view(word)
    packed *= spread
    return parts[word.itemsize - 1 :: word.itemsize].tobytes()


def _unpack_blocks(data: bytes, k: int, count: int) -> np.ndarray:
    """:func:`unpack_bits` as a ``uint8`` array."""
    _check_k(k)
    if count < 0:
        raise ValueError("count must be non-negative")
    need = k * count
    if len(data) * 8 < need:
        raise ValueError(f"need {need} bits, have {len(data) * 8}")
    g = math.gcd(k, 8)
    if g == 1:
        parts = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=need)
    else:
        word, spread, mask = _word(g)
        words = np.frombuffer(data, dtype=np.uint8, count=(need + 7) // 8).astype(word)
        words *= spread
        words >>= 8 - g
        words &= mask
        parts = words.view(np.uint8)
    cols = parts[: need // g].reshape(-1, k // g)
    if k == g:
        return cols[:, 0]
    out = cols[:, 0].copy()
    for j in range(1, k // g):
        out <<= g
        out |= cols[:, j]
    return out


def unpack_bits(data: bytes, k: int, count: int) -> list[int]:
    """Inverse of :func:`pack_bits`: read ``count`` k-bit symbols."""
    return _unpack_blocks(data, k, count).tolist()


def _padded_blocks(bit_length: int, k: int) -> int:
    """The k-bit symbols a ``bit_length``-bit message fills once padded: it always gains a bit."""
    return bit_length // k + 1


def _unpadded_length(data: bytes) -> int:
    """The bits of ``data`` before its last 1 bit, the pad marker; :class:`PaddingError` if none."""
    body = data.rstrip(b"\0")
    if not body:
        raise PaddingError("malformed padding: no terminating 1 bit")
    # the marker is the lowest set bit of the last non-zero byte
    return 8 * len(body) - (body[-1] & -body[-1]).bit_length()


def pad(bits: Sequence[int], k: int) -> list[int]:
    """Append a 1 bit then 0 bits up to the next k-bit boundary; emit blocks.

    Always appends at least one bit, so aligned input grows by one full
    block and removal is unambiguous.
    """
    _check_k(k)
    arr = _bits(bits)
    # the zero byte covers the marker's zeros past the last whole byte
    data = np.packbits(np.append(arr, 1)).tobytes() + b"\0"
    return unpack_bits(data, k, _padded_blocks(arr.size, k))


def unpad(blocks: Sequence[int], k: int) -> np.ndarray:
    """Strip one ``1 0*`` suffix from the bit expansion of ``blocks``.

    Raises :class:`PaddingError` when no 1 bit terminates the data.
    """
    data = pack_bits(blocks, k)
    if not data:
        raise PaddingError("no data to unpad")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=_unpadded_length(data))
