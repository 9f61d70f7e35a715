"""The word-at-a-time draw of experiment IVs and plaintexts, pinned to CPython.

``analysis._draw_below`` relies on how ``random.Random.randrange`` spends
Mersenne Twister words.  These tests run it beside ``randrange`` itself, so a
CPython release that draws differently fails here by name.
"""

import random

import pytest

from sebq import analysis

SEEDS = range(20)


def _assert_same_draw(seed, m, count):
    ours, theirs = random.Random(seed), random.Random(seed)
    got = analysis._draw_below(ours, m, count).tolist()
    want = [theirs.randrange(m) for _ in range(count)]
    assert got == want, f"random.Random.randrange changed its draw: m={m} count={count} seed={seed}"
    assert ours.getstate() == theirs.getstate(), (
        f"random.Random.randrange changed its draw: generator state differs after "
        f"m={m} count={count} seed={seed}"
    )


@pytest.mark.parametrize("words", [analysis._DRAW_WORDS, 1000])
@pytest.mark.parametrize("m", [1, 2, 3, 16, 256])
def test_draw_below_matches_cpython_randrange(monkeypatch, words, m):
    # at 1000 words a call, the 4000- and 10000-value draws take several capped calls
    monkeypatch.setattr(analysis, "_DRAW_WORDS", words)
    for seed in SEEDS:
        for count in (0, 1, 7, 4000, 10000):
            _assert_same_draw(seed, m, count)


@pytest.mark.parametrize("m", [2**31, 2**32 - 1])
def test_draw_below_matches_cpython_randrange_at_32_bits(m):
    for seed in range(5):
        _assert_same_draw(seed, m, 300)


def test_draw_below_matches_cpython_randrange_past_one_call():
    assert 70000 > analysis._DRAW_WORDS
    _assert_same_draw(7, 2, 70000)
