"""Known-answer vectors: the seed-to-key mapping and exact frame bytes.

``data/kat.json`` was written by the code as it stood before the chained
step was unified; any change to key generation, the cipher, the expander or
the frame layout shows up here as a byte difference.
"""

import functools
import json
from pathlib import Path

import pytest

from sebq import cipher
from sebq.cipher import keygen
from sebq.formats import key_fingerprint, open_bytes, seal_bytes

KAT = json.loads((Path(__file__).parent / "data" / "kat.json").read_text())
FRAMES = KAT["frames"]


@functools.lru_cache(maxsize=None)
def _key(k):
    return keygen(k, KAT["key_seed"])


def _frame_id(vec):
    return f"k{vec['k']}-{vec['scheme']}"


@pytest.mark.parametrize("k", sorted(KAT["fingerprints"], key=int))
def test_key_fingerprint(k):
    assert key_fingerprint(_key(int(k))) == KAT["fingerprints"][k]


@pytest.mark.parametrize("vec", FRAMES, ids=_frame_id)
def test_seal_matches_vector(vec):
    frame = seal_bytes(
        _key(vec["k"]), bytes.fromhex(vec["plaintext_hex"]), iv=vec["iv"], scheme=vec["scheme"]
    )
    assert frame.hex() == vec["frame_hex"]


@pytest.mark.parametrize("vec", FRAMES, ids=_frame_id)
def test_open_matches_vector(vec):
    plain = open_bytes(_key(vec["k"]), bytes.fromhex(vec["frame_hex"]))
    assert plain.hex() == vec["plaintext_hex"]


@pytest.mark.parametrize("vec", FRAMES, ids=_frame_id)
def test_python_loops_match_vector(vec, monkeypatch):
    """Without the compiled loops, which carry every vector, the Python loops give the same bytes."""
    monkeypatch.setattr(cipher, "_kernel", lambda: None)
    key = _key(vec["k"])
    frame = seal_bytes(key, bytes.fromhex(vec["plaintext_hex"]), iv=vec["iv"], scheme=vec["scheme"])
    assert frame.hex() == vec["frame_hex"]
    assert open_bytes(key, frame).hex() == vec["plaintext_hex"]
