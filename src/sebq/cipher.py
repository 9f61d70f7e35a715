"""The SEBQ block cipher.

Key generation from random Latin squares of power-of-two order, the
per-block encrypt/decrypt maps with their chained leader state, the
whole-message maps (plain, or with a leader expander per block), and the
bit-packing / padding plumbing that connects k-bit symbols to byte
streams.  The chained step itself lives in :mod:`sebq.transforms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from sebq.latin import LatinSquare, Quasigroup, SeedLike, random_latin_square
from sebq.transforms import _check_symbols, _decrypt_chain, _encrypt_chain, compress_fold

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

# maps a leader seed to the leader one block runs under (an Expander's expand)
Expand = Callable[[Sequence[int]], Sequence[int]]


class PaddingError(ValueError):
    """Unpadding failed: no terminating 1 bit in the padded tail."""


@dataclass(frozen=True)
class SebqKey:
    """Secret key: a quasigroup of order ``2**k`` over k-bit symbols."""

    q: Quasigroup
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= MAX_SYMBOL_BITS:
            raise ValueError(f"k must be in 1..{MAX_SYMBOL_BITS}, got {self.k}")
        if self.q.order != 1 << self.k:
            raise ValueError(f"key order {self.q.order} does not match k={self.k}")

    @property
    def order(self) -> int:
        return self.q.order

    @property
    def base(self) -> "SebqKey":
        """The key itself, so ``key.base`` is the table for plain and hardened keys alike."""
        return self

    @classmethod
    def from_square(cls, square: LatinSquare) -> "SebqKey":
        k = square.order.bit_length() - 1
        if square.order != 1 << k:
            raise ValueError("key square order must be a power of two")
        return cls(Quasigroup.from_square(square), k)


@dataclass(frozen=True)
class CipherState:
    """The evolving leader vector threaded through block-by-block operation."""

    leader: tuple[int, ...]

    def __post_init__(self):
        if not self.leader:
            raise ValueError("leader must hold at least one block")
        object.__setattr__(self, "leader", tuple(int(b) for b in self.leader))

    @property
    def n(self) -> int:
        return len(self.leader)


def keygen(k: int, seed: SeedLike = None) -> SebqKey:
    """Generate a random key over k-bit symbols (order ``2**k`` table).

    Deterministic for a fixed seed; ``1 <= k <= 8``.
    """
    if not 1 <= k <= MAX_SYMBOL_BITS:
        raise ValueError(f"k must be in 1..{MAX_SYMBOL_BITS}, got {k}")
    square = random_latin_square(1 << k, seed)
    return SebqKey(Quasigroup.from_square(square), k)


def _check_input(key: SebqKey, iv: Sequence[int], blocks: Sequence[int], what: str) -> None:
    if not iv:
        raise ValueError("iv must hold at least one block")
    _check_symbols(key.order, iv, "iv")
    _check_symbols(key.order, blocks, what)


def encrypt_block(key: SebqKey, m: int, state: CipherState) -> tuple[int, CipherState]:
    """Encrypt one block: fold through the leader, then advance the leader."""
    _check_symbols(key.order, (m,), "message")
    _check_symbols(key.order, state.leader, "state")
    (c,), leader = _encrypt_chain(key.q.mul_rows, state.leader, (m,))
    return c, CipherState(leader)


def decrypt_block(key: SebqKey, c: int, state: CipherState) -> tuple[int, CipherState]:
    """Invert :func:`encrypt_block`; the returned state matches the encrypt side."""
    _check_symbols(key.order, (c,), "ciphertext")
    _check_symbols(key.order, state.leader, "state")
    (m,), leader = _decrypt_chain(key.q.ldiv_rows, state.leader, (c,))
    return m, CipherState(leader)


def _run(chain, rows, iv: Sequence[int], blocks: Sequence[int], expand: Expand | None) -> list[int]:
    """Run ``chain`` over ``blocks``, plain or with a leader expander.

    Without ``expand`` the chain runs over the whole string under the IV.
    With it, each block runs under its own leader ``expand(seed)`` and the
    advanced leader is XOR-folded back to seed width for the next block;
    the first seed is the IV.  The branch stays outside the per-block loop,
    so the plain path pays nothing for the expander.
    """
    if expand is None:
        return chain(rows, iv, blocks)[0]
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
    key: SebqKey, iv: Sequence[int], message: Sequence[int], expand: Expand | None = None
) -> list[int]:
    """Encrypt a block sequence under an initial leader vector.

    Runs the chained double loop: per message block, fold through the
    current leader while recording the chain, emit the last chain value as
    ciphertext, then XOR-checksum the chain into the next leader.  With
    ``expand`` (an expander's ``expand`` method) this is the
    chosen-ciphertext-hardened mode: every block's leader is ``expand`` of
    a seed that starts at ``iv``.  The ``iv`` itself is unmodified and must
    travel with the ciphertext.
    """
    _check_input(key, iv, message, "message")
    return _run(_encrypt_chain, key.q.mul_rows, iv, message, expand)


def decrypt(
    key: SebqKey, iv: Sequence[int], ciphertext: Sequence[int], expand: Expand | None = None
) -> list[int]:
    """Invert :func:`encrypt` for the same key, IV and expander.

    Rebuilds the encrypt-side chain from the top down with the
    left-division table, so the internal state sequence matches the
    encrypt run block for block.
    """
    _check_input(key, iv, ciphertext, "ciphertext")
    return _run(_decrypt_chain, key.q.ldiv_rows, iv, ciphertext, expand)


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_SYMBOL_BITS:
        raise ValueError(f"k must be in 1..{MAX_SYMBOL_BITS}, got {k}")


def pack_bits(blocks: Sequence[int], k: int) -> bytes:
    """Pack k-bit symbols into bytes, most significant bit first, contiguous."""
    _check_k(k)
    arr = np.asarray(blocks, dtype=np.int64)
    if arr.size == 0:
        return b""
    if arr.min() < 0 or arr.max() >= 1 << k:
        raise ValueError(f"block value out of range for k={k}")
    shifts = np.arange(k - 1, -1, -1)
    bits = ((arr[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bits).tobytes()


def unpack_bits(data: bytes, k: int, count: int) -> list[int]:
    """Inverse of :func:`pack_bits`: read ``count`` k-bit symbols."""
    _check_k(k)
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    need = k * count
    if len(data) * 8 < need:
        raise ValueError(f"need {need} bits, have {len(data) * 8}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=need)
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    return (bits.reshape(count, k) @ weights).tolist()


def pad(bits: Sequence[int], k: int) -> list[int]:
    """Append a 1 bit then 0 bits up to the next k-bit boundary; emit blocks.

    Always appends at least one bit, so aligned input grows by one full
    block and removal is unambiguous.
    """
    _check_k(k)
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0 or 1")
    tail = (-(arr.size + 1)) % k
    padded = np.concatenate([arr, np.ones(1, dtype=np.uint8), np.zeros(tail, dtype=np.uint8)])
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    return (padded.reshape(-1, k) @ weights).tolist()


def unpad(blocks: Sequence[int], k: int) -> np.ndarray:
    """Strip one ``1 0*`` suffix from the bit expansion of ``blocks``.

    Raises :class:`PaddingError` when no 1 bit terminates the data.
    """
    _check_k(k)
    arr = np.asarray(blocks, dtype=np.int64)
    if arr.size == 0:
        raise PaddingError("no data to unpad")
    if arr.min() < 0 or arr.max() >= 1 << k:
        raise ValueError(f"block value out of range for k={k}")
    shifts = np.arange(k - 1, -1, -1)
    bits = ((arr[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    ones = np.nonzero(bits)[0]
    if ones.size == 0:
        raise PaddingError("malformed padding: no terminating 1 bit")
    return bits[: ones[-1]]
