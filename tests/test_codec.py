"""The symbol codec against a bit-by-bit reference, and seal_bytes against the column codec."""

import random
import tracemalloc

import numpy as np
import pytest

from sebq import formats
from sebq.cipher import _check_k, _unpack_blocks, keygen, pack_bits, unpack_bits
from sebq.formats import open_bytes, seal_bytes
from sebq.transforms import _check_symbols

COUNTS = [*range(81), 1001, 4097]


def reference_pack(symbols, k):
    """Each symbol's k bits, most significant first, strung together and cut into bytes."""
    bits = [(s >> (k - 1 - i)) & 1 for s in symbols for i in range(k)]
    bits += [0] * (-len(bits) % 8)
    return bytes(sum(b << (7 - i) for i, b in enumerate(bits[j : j + 8])) for j in range(0, len(bits), 8))


def reference_unpack(data, k, count):
    bits = [(byte >> (7 - i)) & 1 for byte in data for i in range(8)]
    return [sum(b << (k - 1 - i) for i, b in enumerate(bits[j * k : j * k + k])) for j in range(count)]


def column_pack(blocks, k):
    """The codec before words: one strided column per bit, then packbits."""
    _check_k(k)
    arr = np.asarray(blocks)
    _check_symbols(1 << k, arr, "block")
    arr = arr.astype(np.uint8, copy=False)
    cols = np.empty((arr.size, k), dtype=np.uint8)
    for j in range(k):
        np.right_shift(arr, k - 1 - j, out=cols[:, j])
    cols &= 1
    return np.packbits(cols).tobytes()


def column_unpack(data, k, count):
    _check_k(k)
    if count < 0:
        raise ValueError("count must be non-negative")
    need = k * count
    if len(data) * 8 < need:
        raise ValueError(f"need {need} bits, have {len(data) * 8}")
    cols = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=need).reshape(-1, k)
    out = cols[:, 0].copy()
    for j in range(1, k):
        out <<= 1
        out |= cols[:, j]
    return out


@pytest.mark.parametrize("k", range(1, 9))
def test_pack_matches_reference(k):
    rng = np.random.default_rng(k)
    for count in COUNTS:
        symbols = rng.integers(0, 1 << k, count)
        want = reference_pack(symbols.tolist(), k)
        strided = np.zeros(2 * count, dtype=np.int64)
        strided[::2] = symbols
        for form in (symbols.tolist(), symbols, symbols.astype(np.uint8), strided[::2]):
            assert pack_bits(form, k) == want, (k, count, type(form))


@pytest.mark.parametrize("k", range(1, 9))
def test_unpack_matches_reference(k):
    rng = random.Random(k)
    for count in COUNTS:
        # random bytes: the bits past the last symbol, in its byte or in
        # whole trailing bytes, are not zero and must be ignored
        for extra in (0, 1, 9):
            data = rng.randbytes((k * count + 7) // 8 + extra)
            want = reference_unpack(data, k, count)
            for form in (data, bytearray(data), memoryview(data)):
                got = _unpack_blocks(form, k, count)
                assert got.dtype == np.uint8 and got.shape == (count,)
                assert got.tolist() == want, (k, count, extra, type(form))
            assert unpack_bits(data, k, count) == want


@pytest.mark.parametrize("k", range(1, 9))
def test_errors_unchanged(k):
    with pytest.raises(ValueError, match=rf"block symbol {1 << k} out of range 0\.\.{(1 << k) - 1}"):
        pack_bits([0, 1 << k], k)
    with pytest.raises(ValueError, match=r"block symbol -1 out of range"):
        pack_bits(np.array([0, -1]), k)
    for count in (1, 7, 8, 9, 100):
        have = (k * count + 7) // 8 - 1
        with pytest.raises(ValueError, match=rf"^need {k * count} bits, have {8 * have}$"):
            _unpack_blocks(bytes(have), k, count)


@pytest.mark.parametrize("k", [4, 8])
def test_no_array_of_a_byte_per_bit(k):
    data = random.Random(k).randbytes(1 << 16)
    count = len(data) * 8 // k
    symbols = _unpack_blocks(data, k, count)
    for call in (lambda: _unpack_blocks(data, k, count), lambda: pack_bits(symbols, k)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a byte per bit alone would be 8 * len(data)
        assert peak < 4 * len(data)


@pytest.mark.parametrize("scheme", ["plain", "cca2"])
@pytest.mark.parametrize("k", range(1, 9))
def test_seal_frames_match_column_codec(k, scheme, monkeypatch):
    key = keygen(k, 40 + k)
    rng = random.Random(k)
    messages = [rng.randbytes(length) for length in range(301)]
    frames = [seal_bytes(key, m, n=3, seed=i, scheme=scheme) for i, m in enumerate(messages)]
    with monkeypatch.context() as patch:
        patch.setattr(formats, "pack_bits", column_pack)
        patch.setattr(formats, "_unpack_blocks", column_unpack)
        oracle = [seal_bytes(key, m, n=3, seed=i, scheme=scheme) for i, m in enumerate(messages)]
    assert frames == oracle
    assert [open_bytes(key, f) for f in frames] == messages
