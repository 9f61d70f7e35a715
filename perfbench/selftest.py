"""Self-test of the reference checker.

    python3 perfbench/selftest.py

Shows two things. First, ``reference.py`` agrees with sebq on small random
cases for k in {1, 2, 4, 8}: key files, left division, padding and packing,
and whole v1 and v2 frames. Second, the checker turns a flipped ciphertext
bit, a wrong frame length and a non-Latin key into a failed check, and a
workload counts such a check as an incorrect run. Exits 0 when all hold.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import reference
from reference import CheckError
from workload import SRC, Workload


def require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"the reference and sebq disagree on {what}")


def expect_failure(what: str, fn) -> None:
    try:
        fn()
    except CheckError:
        return
    raise AssertionError(f"the checker accepted {what}")


def agreement(rng: random.Random, cases: int) -> int:
    from sebq import cipher, formats

    checked = 0
    for k in (1, 2, 4, 8):
        for _ in range(cases if k < 8 else 1):
            key = cipher.keygen(k, rng.randrange(2**63))
            table = reference.parse_key(formats.key_to_text(key))
            require(table == key.q.mul.table.tolist(), "key file parse")
            require(reference.left_division(table) == key.q.ldiv.table.tolist(), "left division")
            data = rng.randbytes(rng.randrange(0, 40))
            blocks = reference.pad_blocks(data, k)
            require(blocks == cipher.pad(reference.bytes_to_bits(data), k), "padding")
            for limit in (1, 3, 64):
                require(reference.pad_blocks(data, k, limit) == blocks[:limit], "padded prefix")
            packed = reference.bytes_to_bits(cipher.pack_bits(blocks, k))
            require(reference.bits_to_symbols(packed, k)[: len(blocks)] == blocks, "packing")
            n = rng.randrange(1, 5)
            for scheme in ("plain", "cca2"):
                frame = formats.seal_bytes(key, data, n=n, seed=rng.randrange(2**63), scheme=scheme)
                reference.check_frame(frame, table, data, scheme=scheme, n=n, prefix=len(blocks))
                checked += 1
    return checked


def detection(rng: random.Random) -> None:
    from sebq import cipher, formats

    key = cipher.keygen(4, rng.randrange(2**63))
    table = key.q.mul.table.tolist()
    data = rng.randbytes(32)
    for scheme in ("plain", "cca2"):
        frame = formats.seal_bytes(key, data, seed=rng.randrange(2**63), scheme=scheme)
        reference.check_frame(frame, table, data, scheme=scheme, n=8)
        head = (reference.V1 if scheme == "plain" else reference.V2).size + 4  # header + IV
        flipped = bytearray(frame)
        flipped[head] ^= 0x10
        expect_failure(f"a flipped {scheme} ciphertext bit",
                       lambda: reference.check_frame(bytes(flipped), table, data, scheme=scheme, n=8))
        expect_failure(f"a long {scheme} frame",
                       lambda: reference.check_frame(frame + b"\0", table, data, scheme=scheme, n=8))
        expect_failure(f"a short {scheme} frame",
                       lambda: reference.check_frame(frame[:-1], table, data, scheme=scheme, n=8))
    bad = [row[:] for row in table]
    bad[0][0], bad[0][1] = bad[0][1], bad[0][0]  # rows stay permutations, columns do not
    expect_failure("a non-Latin key", lambda: reference.parse_key(reference.key_text(bad)))

    with tempfile.TemporaryDirectory() as tmp:
        wl = Workload("file-plain", 0, Path(tmp))
        wl.op("encrypt", 1, lambda: reference.check_frame(frame[:-1], table, data, scheme="cca2", n=8))
        if wl.correct or wl.failed or wl.attempted != 1:
            raise AssertionError("a failed check did not mark the workload run incorrect")


def main() -> int:
    sys.path.insert(0, str(SRC))
    rng = random.Random(20240808)
    checked = agreement(rng, cases=6)
    detection(rng)
    print(f"selftest ok: {checked} frames agree with the reference; "
          "flipped bit, wrong length and non-Latin key are caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
