"""Feistel-style hardening of the cipher against chosen-ciphertext attacks.

Instead of feeding the chained leader vector straight into the per-block
map, each short leader seed is first stretched through a keyed
deterministic expander, so decryption-oracle answers no longer read single
table cells back out.  The expander is an interface: the default is a
sponge built from the secret quasigroup itself, and a vetted external PRF
can be substituted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from sebq.cipher import SebqKey, decrypt, encrypt, keygen
from sebq.latin import Quasigroup
from sebq.transforms import _check_symbols, _encrypt_chain, compress_fold

# Not used here: perfbench/spans.py wraps these names on this module, and its
# tracer stops on a name it cannot resolve.
from sebq.transforms import (  # noqa: F401
    e_transform,
    fold_apply,
    fold_reverse,
    leader_update_dec,
    leader_update_enc,
)

__all__ = [
    "Expander",
    "QuasigroupSponge",
    "ConstantExpander",
    "Cca2Key",
    "cca2_keygen",
    "compress_fold",
    "encrypt_cca2",
    "decrypt_cca2",
]


class Expander(ABC):
    """Deterministic seed-to-leader stretch with fixed output length ``a > 1``."""

    def __init__(self, a: int):
        if a <= 1:
            raise ValueError("expander output length a must exceed 1")
        self.a = a

    @abstractmethod
    def expand(self, seed: Sequence[int]) -> list[int]:
        """Map a non-empty block seed to exactly ``a`` blocks.

        The blocks must be symbols of the key's order: the cipher refuses a
        leader that holds any other value.
        """


class QuasigroupSponge(Expander):
    """Default expander: absorb-then-squeeze over the secret quasigroup.

    One chained run from an all-zeros public leader over the seed followed
    by ``ceil(a/2)`` (domain tag, counter) pairs: the seed's outputs are
    dropped (absorb) and the next ``a`` are the expansion (squeeze).  Keyed
    by the secret table only; deterministic.  Not a proven PRF: treat it as
    a pluggable placeholder with good empirical diffusion.
    """

    _TAG = 1

    def __init__(self, q: Quasigroup, a: int):
        super().__init__(a)
        self.q = q
        tag = self._TAG % q.order
        self._squeeze = [s for ctr in range((a + 1) // 2) for s in (tag, ctr % q.order)]

    def expand(self, seed: Sequence[int]) -> list[int]:
        if not seed:
            raise ValueError("empty expander seed")
        _check_symbols(self.q.order, seed, "seed")
        w = len(seed)
        out, _ = _encrypt_chain(self.q.mul_rows, [0] * w, [*seed, *self._squeeze])
        return out[w : w + self.a]


class ConstantExpander(Expander):
    """Degenerate expander returning a fixed vector; for differential tests."""

    def __init__(self, vector: Sequence[int]):
        super().__init__(len(vector))
        self.vector = list(vector)

    def expand(self, seed: Sequence[int]) -> list[int]:
        if not seed:
            raise ValueError("empty expander seed")
        return list(self.vector)


@dataclass(frozen=True)
class Cca2Key:
    """Base cipher key plus the leader expander."""

    base: SebqKey
    expander: Expander

    @property
    def order(self) -> int:
        return self.base.order

    @property
    def k(self) -> int:
        return self.base.k


def _scheme_a(scheme: str, n: int, a: int | None) -> int | None:
    """The expander length of ``scheme``: None for plain, ``a`` (default twice ``n``) for cca2."""
    if scheme == "plain":
        if a is not None:
            raise ValueError(f"expander length a={a} applies only to the cca2 scheme")
        return None
    if scheme != "cca2":
        raise ValueError(f"unknown scheme {scheme!r}")
    return 2 * n if a is None else a


def _sponge(key: SebqKey, a: int | None) -> QuasigroupSponge | None:
    """The key's sponge of length ``a``, or no expander when ``a`` is None."""
    return None if a is None else QuasigroupSponge(key.q, a)


def cca2_keygen(k: int, seed=None, *, seed_blocks: int = 2, a: int | None = None) -> Cca2Key:
    """Generate a hardened key; ``a`` defaults to twice the seed length."""
    if seed_blocks < 1:
        raise ValueError("seed_blocks must be positive")
    base = keygen(k, seed)
    return Cca2Key(base, _sponge(base, _scheme_a("cca2", seed_blocks, a)))


def encrypt_cca2(key: Cca2Key, iv: Sequence[int], message: Sequence[int]) -> list[int]:
    """:func:`sebq.cipher.encrypt` with the key's expander stretching every leader."""
    return encrypt(key.base, iv, message, key.expander)


def decrypt_cca2(key: Cca2Key, iv: Sequence[int], ciphertext: Sequence[int]) -> list[int]:
    """Invert :func:`encrypt_cca2`; the seed recurrence matches block for block."""
    return decrypt(key.base, iv, ciphertext, key.expander)
