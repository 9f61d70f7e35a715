"""Plain is the no-expander case of one cipher, one scheme choice and one frame path.

The expander travels as a value, the scheme name is turned into an
expander length in one place (``a`` defaulting to twice the seed length),
a version-1 frame carries ``a = None``, and a key's symbol width is read
off its table.
"""

import random

import pytest

from sebq.analysis import avalanche, avalanche_experiment
from sebq.cipher import SebqKey, decrypt, encrypt, keygen
from sebq.feistel import (
    Cca2Key,
    ConstantExpander,
    QuasigroupSponge,
    cca2_keygen,
    decrypt_cca2,
    encrypt_cca2,
)
from sebq.formats import decode_frame, seal_bytes
from sebq.games import make_scheme_factory
from sebq.latin import LatinSquare, Quasigroup


def test_expander_value_matches_cca2():
    rng = random.Random(11)
    keys = {k: keygen(k, 100 + k) for k in (1, 2, 4)}
    for _ in range(120):
        base = keys[rng.choice([1, 2, 4])]
        if rng.random() < 0.75:
            expander = QuasigroupSponge(base.q, rng.randint(2, 7))
        else:
            expander = ConstantExpander([rng.randrange(base.order) for _ in range(rng.randint(2, 5))])
        key = Cca2Key(base, expander)
        iv = [rng.randrange(base.order) for _ in range(rng.randint(1, 4))]
        msg = [rng.randrange(base.order) for _ in range(rng.randint(0, 20))]
        ct = encrypt(base, iv, msg, expander)
        assert ct == encrypt_cca2(key, iv, msg) == encrypt(base, iv, msg, expander=expander)
        assert decrypt(base, iv, ct, expander) == decrypt_cca2(key, iv, ct) == msg


def test_v1_frame_has_no_expander_length():
    key = keygen(2, 3)
    assert decode_frame(seal_bytes(key, b"ab", n=2, seed=1)).a is None
    assert decode_frame(seal_bytes(key, b"ab", n=2, seed=1, scheme="cca2")).a == 4


@pytest.mark.parametrize("n", [1, 3, 8])
def test_default_a_is_twice_n_everywhere(n):
    key = keygen(2, 5)
    assert decode_frame(seal_bytes(key, b"x", n=n, seed=1, scheme="cca2")).a == 2 * n
    assert make_scheme_factory("cca2", 2, n)(random.Random(0)).expander.a == 2 * n
    assert cca2_keygen(2, 5, seed_blocks=n).expander.a == 2 * n


def test_plain_scheme_refuses_a():
    key = keygen(2, 5)
    with pytest.raises(ValueError, match="a=5"):
        seal_bytes(key, b"x", scheme="plain", a=5)
    with pytest.raises(ValueError, match="a=5"):
        make_scheme_factory("plain", 2, 1, a=5)
    assert make_scheme_factory("plain", 2, 1)(random.Random(0)).expander is None


def test_unknown_scheme_refused():
    with pytest.raises(ValueError, match="unknown scheme"):
        make_scheme_factory("cca3", 2)
    with pytest.raises(ValueError, match="unknown scheme"):
        seal_bytes(keygen(2, 5), b"x", scheme="cca3")


def test_key_width_read_off_the_table():
    assert SebqKey(keygen(4, 1).q).k == 4
    with pytest.raises(ValueError, match="power of two"):
        SebqKey(Quasigroup.from_square(LatinSquare([[0, 1, 2], [1, 2, 0], [2, 0, 1]])))


def test_key_avalanche_without_swaps_named():
    key = keygen(2, 1)
    with pytest.raises(ValueError, match="^key avalanche"):
        avalanche("key", key, [0, 1], [1, 0, 1, 1], trials=0)
    with pytest.raises(ValueError, match="^key avalanche"):
        avalanche_experiment("key", k=2, leader_blocks=4, message_bits=40, positions=(), experiments=1)
