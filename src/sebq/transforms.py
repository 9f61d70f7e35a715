"""Quasigroup string transformations.

The cipher is one chained step: fold a symbol through the leader while
recording the chain of partial folds, emit the last one, and XOR-checksum
the chain into the last slot to form the next leader.  :func:`_encrypt_chain`
runs that step over a block string and :func:`_decrypt_chain` runs its
inverse; every encrypt and decrypt path in the package runs one of them.
The two loops check nothing: each public entry checks its input once.
Block symbols are integers (a float is refused on every path) in
``0..order-1``; leaders and messages are sequences or 1-D arrays of them.

The same step compiled from C (:mod:`sebq._ckernel`) carries long runs when
a C compiler is at hand: ``sebq_chain`` plain runs, and ``sebq_cca2`` those
whose expander is the key's own :class:`sebq.feistel.QuasigroupSponge`,
each in the direction it is given.  The same library runs the key walk of
:func:`sebq.latin.random_latin_square`, one call per square.
:data:`BACKEND` names what loaded, ``"c"`` or ``"python"``, for both.  The
Python loops stay the reference.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from sebq import _ckernel
from sebq.latin import Quasigroup

__all__ = [
    "fold_apply",
    "fold_reverse",
    "xor_checksum",
    "compress_fold",
    "leader_update_enc",
    "leader_update_dec",
    "e_transform",
    "d_transform",
    "BACKEND",
]


_kernel = _ckernel.kernel  # the package's one loaded copy, shared with sebq.latin


def __getattr__(name: str):
    # read lazily, so importing sebq starts no compiler and opens no file
    if name == "BACKEND":
        return "python" if _kernel() is None else "c"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_symbols(order: int, v: Sequence[int], what: str) -> None:
    """Raise ``ValueError`` unless ``v`` is a 1-D sequence of integers in ``0..order-1``."""
    if isinstance(v, np.ndarray):
        if v.ndim != 1:
            raise ValueError(f"{what} must be a 1-D sequence of symbols, got shape {v.shape}")
        if v.dtype.kind in "iu" and (not len(v) or 0 <= v.min() and v.max() < order):
            return
        v = v.tolist()
    elif not hasattr(v, "__iter__"):
        raise ValueError(f"{what} must be a 1-D sequence of symbols, got {type(v).__name__}")
    # one pass in Python, cheapest for the short leaders and single blocks most
    # calls check; a float would be truncated by the compiled loop
    for s in v:
        try:
            if 0 <= operator.index(s) < order:
                continue
        except TypeError:
            raise ValueError(f"{what} symbol {s} is not an integer") from None
        raise ValueError(f"{what} symbol {s} out of range 0..{order - 1}")


def _encrypt_chain(mul, state: Sequence[int], message) -> tuple[list[int], list[int]]:
    """The chained encrypt step over ``message``: ``(cipher, final_state)``.

    ``mul`` holds the multiplication-table rows.  Per block, ``d_i = s_i *
    d_{i-1}`` with ``d_0`` the block; the last ``d`` is the cipher block and
    ``(d_1, ..., d_{n-1}, d_1 ^ ... ^ d_n)`` the next state.  The caller's
    ``state`` (non-empty) is not modified.
    """
    state = list(state)
    n = len(state)
    last = n - 1
    out = []
    append = out.append
    for m in message:
        acc = m
        x = 0
        for i in range(n):
            acc = mul[state[i]][acc]
            state[i] = acc
            x ^= acc
        append(acc)
        state[last] = x
    return out, state


def _decrypt_chain(ldiv, state: Sequence[int], ciphertext) -> tuple[list[int], list[int]]:
    """Inverse of :func:`_encrypt_chain` under the left-division rows ``ldiv``.

    Rebuilds the encrypt-side chain from the top down
    (``d_{i-1} = s_i \\ d_i`` with ``d_n`` the cipher block), so the state
    sequence matches the encrypt run block for block.  The new state is
    built in place: ``s_i`` is read, then overwritten with ``d_i``, the
    value found one step earlier (``s_n`` gets the checksum last).
    """
    state = list(state)
    last = len(state) - 1
    top_down = range(last, 0, -1)
    out = []
    append = out.append
    for c in ciphertext:
        u = x = c
        for i in top_down:
            state[i], u = u, ldiv[state[i]][u]
            x ^= u
        append(ldiv[state[0]][u])
        state[0] = u
        state[last] = x
    return out, state


def fold_apply(q: Quasigroup, beta: Sequence[int], a: int) -> int:
    """Left-fold ``a`` through the leader: ``b_n * (... * (b_2 * (b_1 * a)))``.

    An empty leader is the identity map.
    """
    if beta:
        return e_transform(q, beta, (a,))[0][0]
    _check_symbols(q.order, (a,), "input")
    return a


def fold_reverse(q: Quasigroup, beta: Sequence[int], c: int) -> int:
    """Inverse of :func:`fold_apply`: ``b_1 \\ (b_2 \\ (... (b_n \\ c)))``."""
    if beta:
        return d_transform(q, beta, (c,))[0][0]
    _check_symbols(q.order, (c,), "input")
    return c


def xor_checksum(v: Sequence[int]) -> list[int]:
    """Copy ``v`` with the last block replaced by the XOR of all blocks."""
    if not v:
        raise ValueError("checksum of an empty vector")
    out = list(v)
    x = 0
    for b in out:
        x ^= b
    out[-1] = x
    return out


def compress_fold(blocks: Sequence[int], width: int) -> list[int]:
    """XOR-fold ``blocks`` down to ``width`` blocks, position-wise.

    Bridges an expander's wide output leader back to the seed width so the
    state recurrence closes.
    """
    if width < 1:
        raise ValueError("width must be positive")
    out = [0] * width
    for i, b in enumerate(blocks):
        out[i % width] ^= b
    return out


def _check_args(q: Quasigroup, leader: Sequence[int], blocks: Sequence[int]) -> None:
    if not leader:
        raise ValueError("empty leader")
    _check_symbols(q.order, leader, "leader")
    _check_symbols(q.order, blocks, "input")


def leader_update_enc(q: Quasigroup, a: int, delta: Sequence[int]) -> list[int]:
    """Leader evolution on the encrypt side.

    Replaces the leader with the chain of partial folds of ``a`` through it
    (``d_i = b_i * d_{i-1}`` with ``d_0 = a``), then applies
    :func:`xor_checksum` to the last position.
    """
    return e_transform(q, delta, (a,))[1]


def leader_update_dec(q: Quasigroup, c: int, delta: Sequence[int]) -> list[int]:
    """Leader evolution on the decrypt side.

    Rebuilds the same chain values the encrypt side produced: walking the
    leader backwards, ``u_{i-1} = b_i \\ u_i`` with ``u_n = c``, the new
    leader is ``(u_1, ..., u_{n-1}, c)`` followed by :func:`xor_checksum`.
    Paired encrypt/decrypt runs therefore carry identical leaders.
    """
    return d_transform(q, delta, (c,))[1]


def e_transform(
    q: Quasigroup, leader: Sequence[int], alpha: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Encrypt a block string under an evolving leader.

    Each block is folded through the current leader (:func:`fold_apply`)
    and the leader is advanced as in :func:`leader_update_enc`.  Returns
    ``(cipher, final_leader)``; an empty input returns the leader unchanged.
    """
    _check_args(q, leader, alpha)
    return _encrypt_chain(q.mul_rows, leader, alpha)


def d_transform(
    q: Quasigroup, leader: Sequence[int], gamma: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Inverse of :func:`e_transform`: ``(plain, final_leader)``.

    Uses the reversed fold per block and the state of
    :func:`leader_update_dec`, so the final leader matches the paired
    encrypt run.
    """
    _check_args(q, leader, gamma)
    return _decrypt_chain(q.ldiv_rows, leader, gamma)
