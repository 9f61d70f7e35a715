"""Seeded byte mutations of valid frames: opening one ends in bytes or a documented error."""

import random

import pytest

from sebq.cipher import PaddingError, keygen
from sebq.cli import main
from sebq.formats import FrameError, open_bytes, save_key, seal_bytes

MUTANTS_PER_FRAME = 100
CLI_SAMPLE_EVERY = 10


def _mutate(frame: bytes, rng: random.Random) -> bytes:
    blob = bytearray(frame)
    kind = rng.randrange(4)
    if kind == 0:  # flip one bit
        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
    elif kind == 1:  # overwrite a header byte, where the lengths and sizes live
        blob[rng.randrange(min(len(blob), 24))] = rng.randrange(256)
    elif kind == 2:  # truncate
        del blob[rng.randrange(len(blob)) :]
    else:  # append
        blob += bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
    return bytes(blob)


@pytest.fixture(scope="module")
def cases():
    """(key, mutants) for v1 and v2 frames at k=4 and k=8."""
    rng = random.Random(8086)
    out = []
    for k in (4, 8):
        key = keygen(k, 100 + k)
        for scheme in ("plain", "cca2"):
            data = bytes(rng.randrange(256) for _ in range(48))
            frame = seal_bytes(key, data, n=4, seed=rng.randrange(2**32), scheme=scheme)
            out.append((key, [_mutate(frame, rng) for _ in range(MUTANTS_PER_FRAME)]))
    return out


def test_open_bytes_returns_bytes_or_documented_error(cases):
    outcomes = {"bytes": 0, "frame": 0, "padding": 0}
    for key, mutants in cases:
        for blob in mutants:
            try:
                out = open_bytes(key, blob)
            except FrameError:
                outcomes["frame"] += 1
            except PaddingError:
                outcomes["padding"] += 1
            else:
                assert isinstance(out, bytes)
                outcomes["bytes"] += 1
    assert sum(outcomes.values()) == 4 * MUTANTS_PER_FRAME
    assert outcomes["frame"] > 0


def test_cli_decrypt_exits_with_documented_code(cases, tmp_path, capsys):
    codes = set()
    for i, (key, mutants) in enumerate(cases):
        key_path = tmp_path / f"key{i}.lsq"
        save_key(key_path, key)
        for j, blob in enumerate(mutants[::CLI_SAMPLE_EVERY]):
            frame_path = tmp_path / f"m{i}-{j}.sebq"
            frame_path.write_bytes(blob)
            code = main(["decrypt", "--key", str(key_path), "--in", str(frame_path),
                         "--out", str(tmp_path / "out")])
            assert code in (0, 3, 4, 5), capsys.readouterr().err
            codes.add(code)
    capsys.readouterr()
    assert 3 in codes
