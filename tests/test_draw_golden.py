"""Seeded experiment results and generator states, pinned.

``data/draw_golden.json`` was written by the code as it stood while every
trial's IV and plaintext were drawn one ``randrange`` call per symbol or bit.
A change to how a trial is drawn, in values or in the generator state it
leaves behind, shows up here as a different p-value, percentage or digest.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from sebq.analysis import avalanche_experiment, ciphertext_suite_experiment

GOLDEN = json.loads((Path(__file__).parent / "data" / "draw_golden.json").read_text())


def _state_digest(rng: random.Random) -> str:
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN["suite"], ids=lambda c: f"k{c['k']}-{c['plaintext']}")
def test_suite_reports_match(case):
    per_seq = ciphertext_suite_experiment(
        sequences=3, k=case["k"], leader_blocks=16, message_bits=4000,
        plaintext=case["plaintext"], seed=case["seed"],
    )
    got = [[[r.name, r.p_value, r.passed, r.skipped] for r in reps] for reps in per_seq]
    assert len(got) == len(case["reports"])
    for reps, want in zip(got, case["reports"]):
        assert [r[0] for r in reps] == [w[0] for w in want]
        assert [r[2:] for r in reps] == [w[2:] for w in want]
        assert [r[1] for r in reps] == pytest.approx([w[1] for w in want], rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("case", GOLDEN["avalanche"], ids=lambda c: c["target"])
def test_avalanche_percents_match(case):
    rep = avalanche_experiment(
        case["target"], k=4, leader_blocks=16, message_bits=800,
        positions=case["positions"], experiments=3, seed=case["seed"],
    )
    assert rep.percents.tolist() == case["percents"]


def test_generator_state_after_runs_matches():
    rng = random.Random(2024)
    got = []
    ciphertext_suite_experiment(sequences=2, k=8, leader_blocks=50, message_bits=4000, seed=rng)
    got.append(_state_digest(rng))
    ciphertext_suite_experiment(sequences=2, k=1, leader_blocks=9, message_bits=1000, seed=rng)
    got.append(_state_digest(rng))
    avalanche_experiment("iv", k=3, leader_blocks=7, message_bits=300, positions=range(5),
                         experiments=2, seed=rng)
    got.append(_state_digest(rng))
    assert got == GOLDEN["state_sha256"]
