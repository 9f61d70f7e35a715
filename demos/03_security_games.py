"""Indistinguishability games, played for real.

Runs the chosen-plaintext and chosen-ciphertext experiments against a
fresh hidden key per trial and prints the measured advantages, then walks
the two concrete attacks: chosen-IV column recovery through the
encryption oracle, and full table recovery through the decryption oracle,
which the expander-hardened variant blocks.
"""

import random

import numpy as np

from sebq.cipher import keygen
from sebq.games import (
    ExhaustiveCpaStrategy,
    OracleSession,
    RandomGuessStrategy,
    RepeatedMessageCpaStrategy,
    Scheme,
    TableRecoveryCcaStrategy,
    cca_table_recovery,
    cpa_column_recovery,
    make_scheme_factory,
    run_ind_cca,
    run_ind_cpa,
)

TRIALS = 400  # bump to 1000+ for tighter estimates

# --- chosen-plaintext games ----------------------------------------------------
print("chosen-plaintext experiments (k=2 toy order, fresh key per trial)")
res = run_ind_cpa(RandomGuessStrategy, make_scheme_factory("plain", 2, 1), TRIALS, seed=1)
print("  coin-flip adversary:     ", res)

res = run_ind_cpa(
    ExhaustiveCpaStrategy,
    make_scheme_factory("plain", 2, 1),
    TRIALS,
    seed=2,
    allow_repeated_messages=False,
)
print("  exhaustive (restricted): ", res)
print("  -> querying every other message leaves the two challenge columns")
print("     ambiguous, so the guess stays at chance level")

res = run_ind_cpa(
    RepeatedMessageCpaStrategy,
    make_scheme_factory("plain", 2, 1),
    TRIALS,
    seed=3,
    chosen_iv=True,
)
print("  repeated msg, chosen IV: ", res)
print("  -> re-encrypting one message under every IV reads a full table")
print("     column, a perfect distinguisher")

# --- the column recovery in isolation --------------------------------------------
rng = random.Random(4)
key = keygen(2, 55)
session = OracleSession(Scheme(key, 1), rng, bit=0, chosen_iv=True)
column = cpa_column_recovery(session, m=3)
print("\nrecovered column for message 3:", column)
print("true table column            :", [int(v) for v in key.q.mul.table[:, 3]])

# --- chosen-ciphertext: table recovery --------------------------------------------
print("\nchosen-ciphertext table recovery (k=4, order 16)")
scheme = Scheme(keygen(4, rng.randrange(2**63)), 1)
session = OracleSession(scheme, rng, bit=0, decryption=True)
session.issue_challenge((5,), (9,))
rec = cca_table_recovery(session)
exact = np.array_equal(rec.completed, scheme.key.q.mul.table)
print(f"  plain scheme: {rec.queries} queries, "
      f"{rec.recovered_cells(scheme.key.q.mul.table)}/256 cells, exact={exact}")

res = run_ind_cca(TableRecoveryCcaStrategy, make_scheme_factory("plain", 4, 1), 100, seed=5)
print("  game advantage vs plain:   ", res)

res = run_ind_cca(TableRecoveryCcaStrategy, make_scheme_factory("cca2", 4, 1), TRIALS, seed=6)
print("  game advantage vs hardened:", res)
# the same scheme type, now with the keyed sponge as its expander
scheme = make_scheme_factory("cca2", 4, 1)(rng)
session = OracleSession(scheme, rng, bit=0, decryption=True)
session.issue_challenge((5,), (9,))
rec = cca_table_recovery(session)
cells = rec.recovered_cells(scheme.key.q.mul.table)
print(f"  hardened scheme leaks only {cells}/256 cells at the same query budget:")
print("  expanding each leader seed through the keyed sponge means oracle")
print("  answers no longer read single table cells back out")
