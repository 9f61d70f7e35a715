"""Executable indistinguishability experiments and concrete attacks.

Oracle sessions wrap a scheme instance with a hidden challenge bit, query
logging, and rule enforcement (challenge exclusion, repeat restrictions,
query budgets).  Adversaries are small strategy objects; the game runners
estimate advantage empirically over many fresh-key trials.  The attacks
from the security analysis are implemented directly: chosen-IV column
recovery against the encryption oracle and full table recovery against the
decryption oracle, finished off by Latin-square completion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from sebq import feistel
from sebq.cipher import SebqKey, decrypt, encrypt, keygen
from sebq.latin import SeedLike, _as_square_array, _fill, _first_repeat, as_rng

__all__ = [
    "QueryRestrictionError",
    "UnsupportedConfiguration",
    "ChallengeQueryRejected",
    "Scheme",
    "PlainScheme",
    "make_scheme_factory",
    "OracleSession",
    "lr_oracle",
    "GameResult",
    "run_ind_cpa",
    "run_ind_cca",
    "RandomGuessStrategy",
    "ExhaustiveCpaStrategy",
    "RepeatedMessageCpaStrategy",
    "TableRecoveryCcaStrategy",
    "cpa_column_recovery",
    "cca_table_recovery",
    "TableRecoveryResult",
    "PartialLatinSquare",
    "CompletionResult",
    "complete_latin_square",
    "write_transcripts",
]


class QueryRestrictionError(RuntimeError):
    """A strategy violated the session's query rules; the run is aborted."""


class UnsupportedConfiguration(RuntimeError):
    """The session configuration does not support the requested operation."""


class ChallengeQueryRejected(RuntimeError):
    """Decryption of the challenge ciphertext was refused (and logged)."""


@dataclass(frozen=True)
class Scheme:
    """The chained-mode cipher with an ``n``-block IV.

    With an ``expander`` it is the hardened variant, whose IV seeds the
    expanded per-block leaders.
    """

    key: SebqKey
    n: int = 1
    expander: Optional[feistel.Expander] = None

    @property
    def order(self) -> int:
        return self.key.order

    @property
    def k(self) -> int:
        return self.key.k

    def fresh_iv(self, rng) -> tuple[int, ...]:
        return tuple(rng.randrange(self.order) for _ in range(self.n))

    def encrypt(self, iv: Sequence[int], message: Sequence[int]) -> tuple[int, ...]:
        return tuple(encrypt(self.key, list(iv), list(message), self.expander))

    def decrypt(self, iv: Sequence[int], ciphertext: Sequence[int]) -> tuple[int, ...]:
        return tuple(decrypt(self.key, list(iv), list(ciphertext), self.expander))


# the name existing callers use for the scheme without an expander
PlainScheme = Scheme


def make_scheme_factory(
    scheme: str, k: int, n: int = 1, *, a: int | None = None
) -> Callable[[object], object]:
    """Factory of per-trial scheme instances with fresh hidden keys."""
    a = feistel._scheme_a(scheme, n, a)

    def build(rng):
        key = keygen(k, rng.randrange(2**63))
        return Scheme(key, n, feistel._sponge(key, a))

    return build


class OracleSession:
    """One experiment instance: hidden bit, oracles, transcript, enforcement.

    ``chosen_iv`` lets the adversary pick encryption IVs;
    ``allow_repeated_messages=False`` aborts on a repeated encryption query;
    budgets cap the number of encryption/decryption queries.
    """

    def __init__(
        self,
        scheme,
        rng,
        *,
        bit: Optional[int] = None,
        decryption: bool = False,
        chosen_iv: bool = False,
        allow_repeated_messages: bool = True,
        max_encrypt_queries: Optional[int] = None,
        max_decrypt_queries: Optional[int] = None,
    ):
        self.scheme = scheme
        self._rng = rng
        self._bit = rng.randrange(2) if bit is None else int(bit)
        self.decryption = decryption
        self.chosen_iv = chosen_iv
        self.allow_repeated_messages = allow_repeated_messages
        self.max_encrypt_queries = max_encrypt_queries
        self.max_decrypt_queries = max_decrypt_queries
        self.q_e = 0
        self.q_d = 0
        self.mu_e = 0
        self.mu_d = 0
        self.log: list[dict] = []
        self.challenge: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
        self._seen_messages: set[tuple[int, ...]] = set()

    # -- encryption side ---------------------------------------------------

    def _check_encrypt_budget(self) -> None:
        if self.max_encrypt_queries is not None and self.q_e >= self.max_encrypt_queries:
            raise QueryRestrictionError(
                f"encryption query budget {self.max_encrypt_queries} exceeded"
            )

    def _encrypt(
        self, op: str, message: tuple[int, ...], iv: Sequence[int] | None = None, *, query=True
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Encrypt under ``iv`` (a fresh one when None) and log it as ``op``.

        A ``query`` counts towards ``q_e`` and ``mu_e``; the challenge does not.
        """
        iv_t = tuple(iv) if iv is not None else self.scheme.fresh_iv(self._rng)
        ct = self.scheme.encrypt(iv_t, message)
        if query:
            self.q_e += 1
            self.mu_e += len(ct)
        self.log.append({"op": op, "iv": list(iv_t), "ct": list(ct)})
        return iv_t, ct

    def encrypt_query(
        self, message: Sequence[int], iv: Sequence[int] | None = None
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        message = tuple(message)
        self._check_encrypt_budget()
        if iv is not None and not self.chosen_iv:
            raise UnsupportedConfiguration("session does not allow chosen IVs")
        if not self.allow_repeated_messages and message in self._seen_messages:
            raise QueryRestrictionError(f"repeated message query {message}")
        self._seen_messages.add(message)
        return self._encrypt("encrypt", message, iv)

    def lr_query(
        self, x0: Sequence[int], x1: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Left-or-right oracle: encrypt the hidden-bit-selected message."""
        x0, x1 = tuple(x0), tuple(x1)
        if len(x0) != len(x1):
            raise ValueError("left and right messages must have equal length")
        self._check_encrypt_budget()
        return self._encrypt("lr", x1 if self._bit else x0)

    def issue_challenge(
        self, x0: Sequence[int], x1: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        x0, x1 = tuple(x0), tuple(x1)
        if len(x0) != len(x1):
            raise ValueError("challenge messages must have equal length")
        if self.challenge is not None:
            raise QueryRestrictionError("challenge already issued")
        self.challenge = self._encrypt("challenge", x1 if self._bit else x0, query=False)
        return self.challenge

    # -- decryption side ---------------------------------------------------

    def decrypt_query(
        self, iv: Sequence[int], ciphertext: Sequence[int]
    ) -> tuple[int, ...]:
        if not self.decryption:
            raise UnsupportedConfiguration("session has no decryption oracle")
        if self.max_decrypt_queries is not None and self.q_d >= self.max_decrypt_queries:
            raise QueryRestrictionError(
                f"decryption query budget {self.max_decrypt_queries} exceeded"
            )
        iv_t, ct = tuple(iv), tuple(ciphertext)
        if self.challenge is not None and (iv_t, ct) == self.challenge:
            self.log.append({"op": "decrypt-rejected", "iv": list(iv_t), "ct": list(ct)})
            raise ChallengeQueryRejected("decryption of the challenge ciphertext refused")
        m = self.scheme.decrypt(iv_t, ct)
        self.q_d += 1
        self.mu_d += len(m)
        self.log.append({"op": "decrypt", "iv": list(iv_t), "ct": list(ct)})
        return m

    def counts(self) -> dict:
        return {"q_e": self.q_e, "mu_e": self.mu_e, "q_d": self.q_d, "mu_d": self.mu_d}


def lr_oracle(
    session: OracleSession, x0: Sequence[int], x1: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Module-level alias for the session's left-or-right query."""
    return session.lr_query(x0, x1)


# -- strategies -------------------------------------------------------------


class RandomGuessStrategy:
    """Baseline: pick two distinct random messages, guess by coin flip.

    The other strategies extend it: each draws its challenge pair here,
    then does its own queries.
    """

    def __init__(self, rng):
        self.rng = rng
        self.x0 = 0
        self.x1 = 1

    def challenge_pair(self, session):
        order = session.scheme.order
        self.x0 = self.rng.randrange(order)
        self.x1 = (self.x0 + 1 + self.rng.randrange(order - 1)) % order
        return (self.x0,), (self.x1,)

    def guess(self, session, challenge) -> int:
        return self.rng.randrange(2)


class ExhaustiveCpaStrategy(RandomGuessStrategy):
    """Query every message outside the challenge pair once (restricted game).

    The answers expose every table column but the challenge pair's two,
    which stay ambiguous, so the final guess is a coin flip.  Intended for
    single-block messages and single-block leaders.
    """

    def challenge_pair(self, session):
        pair = super().challenge_pair(session)
        for m in range(session.scheme.order):
            if m not in (self.x0, self.x1):
                session.encrypt_query((m,))
        return pair


class RepeatedMessageCpaStrategy(RandomGuessStrategy):
    """Chosen-IV repeated-message distinguisher (unrestricted game).

    Recovers the full table column of one challenge message and compares
    the challenge ciphertext against it; succeeds with probability 1.
    Requires chosen IVs, repeats allowed, and single-block leaders.
    """

    column: Optional[list[int]] = None

    def challenge_pair(self, session):
        pair = super().challenge_pair(session)
        self.column = cpa_column_recovery(session, self.x0)
        return pair

    def guess(self, session, challenge) -> int:
        (iv, ct) = challenge
        if len(iv) != 1:
            return self.rng.randrange(2)
        return 0 if self.column[iv[0]] == ct[0] else 1


class TableRecoveryCcaStrategy(RandomGuessStrategy):
    """Decryption-oracle table recovery, then decrypt the challenge locally.

    Against the plain scheme the completed table is exact and the guess is
    always right.  Against the expander-hardened scheme the inferred cells
    are garbage; the strategy falls back on the inferred row and ends up
    guessing at chance level.
    """

    recovery: Optional[TableRecoveryResult] = None

    def guess(self, session, challenge) -> int:
        (iv, ct) = challenge
        self.recovery = cca_table_recovery(session)
        r, c = iv[0], ct[0]
        table = self.recovery.completed
        if table is not None:
            row = table[r]
            m = int(np.nonzero(row == c)[0][0])
        else:
            # fall back on the one message the inferred row never produced
            row = self.recovery.inferred[r]
            seen = set(int(v) for v in row[row >= 0])
            missing = [m for m in range(session.scheme.order) if m not in seen]
            m = missing[0] if len(missing) == 1 else -1
        if m == self.x0:
            return 0
        if m == self.x1:
            return 1
        return self.rng.randrange(2)


# -- game runners -----------------------------------------------------------


@dataclass
class GameResult:
    """Empirical experiment outcome over balanced hidden-bit trials."""

    advantage: float
    trials: int
    p1: float
    p0: float
    records: list[dict] = field(default_factory=list)

    def __str__(self) -> str:
        return (
            f"advantage {self.advantage:+.3f} over {self.trials} trials "
            f"(Pr[guess 1 | b=1] = {self.p1:.3f}, Pr[guess 1 | b=0] = {self.p0:.3f})"
        )


def _run_game(
    strategy_factory, scheme_factory, trials: int, seed: SeedLike, collect: bool, **rules
) -> GameResult:
    """Play ``trials`` games, each an :class:`OracleSession` under ``rules``."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    rng = as_rng(seed)
    n_by_bit = [0, 0]
    guess1_by_bit = [0, 0]
    records: list[dict] = []
    for t in range(trials):
        b = t & 1  # balanced branches
        scheme = scheme_factory(rng)
        session = OracleSession(scheme, rng, bit=b, **rules)
        strategy = strategy_factory(rng)
        x0, x1 = strategy.challenge_pair(session)
        challenge = session.issue_challenge(x0, x1)
        guess = int(strategy.guess(session, challenge))
        n_by_bit[b] += 1
        guess1_by_bit[b] += guess
        if collect:
            rec = {"trial": t, "b": b, "b_guess": guess}
            rec.update(session.counts())
            rec["acc_guess1_b1"] = guess1_by_bit[1]
            rec["acc_guess1_b0"] = guess1_by_bit[0]
            records.append(rec)
    p1 = guess1_by_bit[1] / n_by_bit[1]
    p0 = guess1_by_bit[0] / n_by_bit[0]
    return GameResult(p1 - p0, trials, p1, p0, records)


def run_ind_cpa(
    strategy_factory,
    scheme_factory,
    trials: int = 1000,
    seed: SeedLike = None,
    *,
    collect: bool = False,
    **rules,
) -> GameResult:
    """Estimate the chosen-plaintext advantage of a strategy.

    Per trial: fresh hidden key, fresh hidden bit (balanced across trials),
    encryption oracle only.  Returns ``Pr[guess 1 | b=1] - Pr[guess 1 | b=0]``.
    ``rules`` are the :class:`OracleSession` query rules ``chosen_iv``,
    ``allow_repeated_messages`` and ``max_encrypt_queries``.  Query-rule
    violations abort the run with :class:`QueryRestrictionError`.
    """
    return _run_game(
        strategy_factory, scheme_factory, trials, seed, collect,
        decryption=False, max_decrypt_queries=None, **rules,
    )


def run_ind_cca(
    strategy_factory,
    scheme_factory,
    trials: int = 1000,
    seed: SeedLike = None,
    *,
    collect: bool = False,
    **rules,
) -> GameResult:
    """Like :func:`run_ind_cpa` but with a challenge-excluding decryption oracle.

    ``rules`` may also set ``max_decrypt_queries``.
    """
    return _run_game(strategy_factory, scheme_factory, trials, seed, collect, decryption=True, **rules)


# -- attacks ----------------------------------------------------------------


def cpa_column_recovery(session: OracleSession, m: int) -> list[int]:
    """Recover one full table column by re-encrypting ``m`` under every IV.

    Needs a session that permits chosen IVs and repeated messages, with
    single-block leaders; one query per table row.
    """
    if not session.chosen_iv or not session.allow_repeated_messages:
        raise UnsupportedConfiguration(
            "column recovery needs chosen IVs and repeated messages"
        )
    if getattr(session.scheme, "n", None) != 1:
        raise UnsupportedConfiguration("column recovery assumes single-block leaders")
    order = session.scheme.order
    column = []
    for r in range(order):
        _, ct = session.encrypt_query((m,), iv=(r,))
        column.append(ct[0])
    return column


@dataclass
class TableRecoveryResult:
    """Outcome of decryption-oracle table recovery."""

    inferred: np.ndarray  # multiplication table, -1 where unknown
    consistent: bool
    completed: Optional[np.ndarray]
    unique: bool
    queries: int

    def recovered_cells(self, truth: np.ndarray) -> int:
        """Count completed cells that match a reference table."""
        table = self.completed if self.completed is not None else self.inferred
        return int(np.count_nonzero((table >= 0) & (table == truth)))


def cca_table_recovery(session: OracleSession) -> TableRecoveryResult:
    """Rebuild the multiplication table from single-block decryption answers.

    Queries every (row, ciphertext) pair except the challenge ciphertext
    value, converts each answer ``m = row \\ c`` into the table cell
    ``row * m = c``, then forces the remaining cells by Latin-square
    completion.  Assumes single-block messages and leaders.
    """
    if getattr(session.scheme, "n", None) != 1:
        raise UnsupportedConfiguration("table recovery assumes single-block leaders")
    order = session.scheme.order
    avoid = session.challenge[1][0] if session.challenge is not None else None
    inferred = np.full((order, order), -1, dtype=np.int64)
    queries = 0
    consistent = True
    for r in range(order):
        for c in range(order):
            if avoid is not None and c == avoid:
                continue
            (m,) = session.decrypt_query((r,), (c,))
            queries += 1
            if inferred[r, m] >= 0 and inferred[r, m] != c:
                consistent = False
            else:
                inferred[r, m] = c
    completed = None
    unique = False
    if consistent:
        try:
            partial = PartialLatinSquare(inferred)
        except ValueError:
            consistent = False
        else:
            result = complete_latin_square(partial)
            completed = result.square
            unique = completed is not None and not result.multiple
    return TableRecoveryResult(inferred, consistent, completed, unique, queries)


# -- partial squares and completion ------------------------------------------


@dataclass(frozen=True)
class PartialLatinSquare:
    """An order-n grid with unknown cells marked ``-1``.

    Construction rejects grids whose known cells already repeat a symbol
    within a row or column.
    """

    cells: np.ndarray

    def __post_init__(self):
        # a copy, so the caller's array stays writable and cannot change the grid
        arr = _as_square_array(self.cells, lowest=-1).copy()
        repeat = _first_repeat(arr)
        if repeat is not None:
            raise ValueError(f"known cells repeat a symbol in {repeat.axis} {repeat.index}")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @property
    def order(self) -> int:
        return self.cells.shape[0]


@dataclass(frozen=True)
class CompletionResult:
    square: Optional[np.ndarray]  # None when no completion exists
    multiple: bool


def complete_latin_square(partial: PartialLatinSquare) -> CompletionResult:
    """Fill the unknown cells by backtracking over row and column bitmasks.

    The holes are ordered once, fewest candidates in the partial first.
    Each step fills the first hole in that order that has one candidate
    left, else the first open hole, trying its free symbols lowest first,
    and backs up when an open hole has none.  Stops after finding two
    completions, so ``multiple`` flags ambiguity without enumerating all.
    """
    found = []

    def keep(grid) -> bool:
        found.append(np.array(grid, dtype=np.int64))
        return len(found) == 2

    _fill(partial.cells.tolist(), keep)
    return CompletionResult(found[0] if found else None, len(found) > 1)


def write_transcripts(path, records: list[dict]) -> None:
    """Dump per-trial game records as JSON lines."""
    with open(path, "w", encoding="ascii") as fp:
        for rec in records:
            fp.write(json.dumps(rec) + "\n")
