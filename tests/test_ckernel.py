"""The compiled chained loop against the Python reference loops.

The compiled side is skipped only where no C compiler could build it
(``sebq.transforms.BACKEND == "python"``); the fallback checks always run.
"""

import os
import random

import numpy as np
import pytest

from sebq import _ckernel, transforms
from sebq.cipher import _C_MIN_LOOKUPS, decrypt, encrypt, keygen, pack_bits, pad
from sebq.formats import decode_frame, open_bytes, seal_bytes
from sebq.transforms import _decrypt_chain, _encrypt_chain

compiled = pytest.mark.skipif(transforms.BACKEND == "python", reason="no compiled kernel loaded")


@pytest.fixture(scope="module")
def keys():
    return {k: keygen(k, 2408 + k) for k in (1, 2, 4, 8)}


@compiled
def test_compiled_matches_python_loops(keys):
    kernel = transforms._kernel()
    rng = random.Random(5150)
    crossed = set()
    for _ in range(2400):
        k = rng.choice((1, 2, 4, 8))
        key = keys[k]
        order = key.order
        n = rng.randint(1, 9)
        blocks = [rng.randrange(order) for _ in range(rng.randint(0, 300))]
        iv = [rng.randrange(order) for _ in range(n)]
        crossed.add(n * len(blocks) >= _C_MIN_LOOKUPS)
        for inverse, chain, rows in ((False, _encrypt_chain, key.q.mul_rows),
                                     (True, _decrypt_chain, key.q.ldiv_rows)):
            want, want_state = chain(rows, iv, blocks)
            got, got_state = kernel.run(key._tables[inverse], k, iv, blocks, inverse)
            assert got.tolist() == want and got_state.tolist() == want_state
        # the public entry points, whichever loop they pick, agree with the reference
        ct = encrypt(key, iv, blocks)
        assert ct == _encrypt_chain(key.q.mul_rows, iv, blocks)[0]
        assert decrypt(key, iv, ct) == blocks
    assert crossed == {False, True}


@pytest.mark.parametrize("k", [4, 8])
def test_seal_open_64k_matches_reference(keys, k):
    key = keys[k]
    data = random.Random(k).randbytes(64 * 1024)
    iv = list(range(1, 9))
    frame = seal_bytes(key, data, iv=iv)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    want = _encrypt_chain(key.q.mul_rows, iv, pad(bits, k))[0]
    assert decode_frame(frame).payload == pack_bits(want, k)
    assert open_bytes(key, frame) == data


def test_loader_falls_back_without_compiler(tmp_path):
    missing = str(tmp_path / "no-such-cc")
    assert _ckernel.load(_cc=missing, _cache=str(tmp_path / "cache")) is None


def test_loader_falls_back_on_unwritable_cache(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _ckernel.load(_cache=str(blocker / "cache")) is None


@compiled
def test_loader_builds_into_cache(tmp_path):
    kernel = _ckernel.load(_cache=str(tmp_path))
    assert kernel is not None
    built = os.listdir(tmp_path)
    assert len(built) == 1 and built[0].startswith("chain-") and built[0].endswith(".so")
    # a second load reuses the file, so it needs no compiler
    assert _ckernel.load(_cc=str(tmp_path / "no-such-cc"), _cache=str(tmp_path)) is not None
