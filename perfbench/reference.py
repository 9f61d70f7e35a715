"""Reference checker for sebq outputs, written apart from the package.

Nothing here imports ``sebq``. The definitions come from the README's key
file and frame formats and from the paper's chained step:

* key file: ``SEBQ-LSQ v1``, the order, then the table rows;
* the left-division table: ``ldiv[x][mul[x][y]] = y``;
* padding: append ``1`` then ``0`` bits up to a whole k-bit block, always at
  least one bit; symbols are packed most significant bit first;
* frame: ``>4sBBHQ`` (v1) or ``>4sBBHHBQ`` (v2), then the packed IV, then the
  packed ciphertext blocks;
* one chained step folds a symbol through the leader, records the chain, and
  replaces the last chain slot with the XOR of the whole chain;
* the cca2 scheme stretches the seed through the default sponge (absorb the
  seed through a zero leader, squeeze ``(1, counter)`` pairs), takes one
  chained step under that leader, and XOR-folds the new leader back to the
  seed width.

Every check raises :class:`CheckError` with a short reason.
"""

from __future__ import annotations

import struct

KEY_HEADER = "SEBQ-LSQ v1"
MAGIC = b"SEBQ"
V1 = struct.Struct(">4sBBHQ")
V2 = struct.Struct(">4sBBHHBQ")
SPONGE_TAG = 1


class CheckError(Exception):
    """An output of the program disagrees with the reference."""


def parse_key(text: str) -> list[list[int]]:
    """Parse key-file text into its multiplication table."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or lines[0] != KEY_HEADER:
        raise CheckError("key file header missing")
    order = int(lines[1])
    table = [[int(v) for v in ln.split()] for ln in lines[2:]]
    if len(table) != order or order < 2 or order & (order - 1):
        raise CheckError(f"key file order {order} with {len(table)} rows")
    check_latin(table)
    return table


def key_text(table: list[list[int]]) -> str:
    """Key-file text for ``table`` (the inverse of :func:`parse_key`)."""
    rows = [" ".join(map(str, row)) for row in table]
    return "\n".join([KEY_HEADER, str(len(table))] + rows) + "\n"


def check_latin(table: list[list[int]]) -> None:
    """Every row and every column is a permutation of ``0..n-1``."""
    n = len(table)
    symbols = list(range(n))
    for i, row in enumerate(table):
        if len(row) != n or sorted(row) != symbols:
            raise CheckError(f"key row {i} is not a permutation")
    for j in range(n):
        if sorted(row[j] for row in table) != symbols:
            raise CheckError(f"key column {j} is not a permutation")


def left_division(table: list[list[int]]) -> list[list[int]]:
    """The left-division table, checked to be Latin and to undo ``table``."""
    n = len(table)
    ldiv = [[0] * n for _ in range(n)]
    for x, row in enumerate(table):
        for y, z in enumerate(row):
            ldiv[x][z] = y
    check_latin(ldiv)
    for x in range(n):
        if any(table[x][ldiv[x][z]] != z for z in range(n)):
            raise CheckError(f"left division fails in row {x}")
    return ldiv


def bytes_to_bits(data: bytes) -> list[int]:
    return [(b >> s) & 1 for b in data for s in range(7, -1, -1)]


def bits_to_symbols(bits: list[int], k: int) -> list[int]:
    out = []
    for i in range(0, len(bits) - k + 1, k):
        v = 0
        for b in bits[i : i + k]:
            v = (v << 1) | b
        out.append(v)
    return out


def pad_blocks(data: bytes, k: int, limit: int | None = None) -> list[int]:
    """The ``1 0*``-padded k-bit blocks of ``data`` (the first ``limit`` only)."""
    whole = limit is None or (limit * k + 7) // 8 + 1 >= len(data)
    bits = bytes_to_bits(data if whole else data[: (limit * k + 7) // 8 + 1])
    if whole:
        bits.append(1)
        bits.extend([0] * ((-len(bits)) % k))
    blocks = bits_to_symbols(bits, k)
    return blocks if limit is None else blocks[:limit]


def padded_block_count(bit_length: int, k: int) -> int:
    return bit_length // k + 1


def step(table: list[list[int]], leader: list[int], m: int) -> tuple[int, list[int]]:
    """One chained step: ``(ciphertext symbol, next leader)``."""
    chain = []
    acc = m
    x = 0
    for b in leader:
        acc = table[b][acc]
        chain.append(acc)
        x ^= acc
    chain[-1] = x
    return acc, chain


def encrypt_plain(table, iv: list[int], message: list[int]) -> list[int]:
    out = []
    leader = list(iv)
    for m in message:
        c, leader = step(table, leader, m)
        out.append(c)
    return out


def sponge_expand(table, seed: list[int], a: int) -> list[int]:
    order = len(table)
    state = [0] * len(seed)
    for s in seed:
        _, state = step(table, state, s)
    out: list[int] = []
    ctr = 0
    while len(out) < a:
        for sym in (SPONGE_TAG % order, ctr % order):
            c, state = step(table, state, sym)
            out.append(c)
        ctr += 1
    return out[:a]


def encrypt_cca2(table, iv: list[int], message: list[int], a: int) -> list[int]:
    out = []
    seed = list(iv)
    width = len(seed)
    for m in message:
        c, chain = step(table, sponge_expand(table, seed, a), m)
        out.append(c)
        seed = [0] * width
        for i, b in enumerate(chain):
            seed[i % width] ^= b
    return out


def check_frame(
    frame: bytes,
    table: list[list[int]],
    plaintext: bytes,
    *,
    scheme: str,
    n: int,
    a: int | None = None,
    prefix: int = 32,
) -> None:
    """Check a frame's header, its length and its first ciphertext blocks.

    The mode only chains forward, so the first ``prefix`` blocks depend only
    on the key, the IV and the first ``prefix`` plaintext blocks.
    """
    k = len(table).bit_length() - 1
    version = 1 if scheme == "plain" else 2
    if len(frame) < 5 or frame[:4] != MAGIC:
        raise CheckError("frame magic")
    if frame[4] != version:
        raise CheckError(f"frame version {frame[4]} != {version}")
    if version == 1:
        if len(frame) < V1.size:
            raise CheckError("frame shorter than its header")
        _, _, fk, fn, bit_length = V1.unpack_from(frame)
        offset = V1.size
    else:
        if len(frame) < V2.size:
            raise CheckError("frame shorter than its header")
        _, _, fk, fn, fa, exp_id, bit_length = V2.unpack_from(frame)
        offset = V2.size
        if (fa, exp_id) != (a if a is not None else 2 * n, 0):
            raise CheckError(f"frame expander a={fa} id={exp_id}")
    if (fk, fn, bit_length) != (k, n, 8 * len(plaintext)):
        raise CheckError(f"frame header k={fk} n={fn} bits={bit_length}")
    iv_len = (n * k + 7) // 8
    blocks = padded_block_count(bit_length, k)
    if len(frame) != offset + iv_len + (blocks * k + 7) // 8:
        raise CheckError(f"frame length {len(frame)}")
    iv = bits_to_symbols(bytes_to_bits(frame[offset : offset + iv_len]), k)[:n]
    count = min(prefix, blocks)
    payload = frame[offset + iv_len : offset + iv_len + (count * k + 7) // 8]
    got = bits_to_symbols(bytes_to_bits(payload), k)[:count]
    message = pad_blocks(plaintext, k, count)
    if version == 1:
        want = encrypt_plain(table, iv, message)
    else:
        want = encrypt_cca2(table, iv, message, fa)
    if got != want:
        raise CheckError("ciphertext prefix differs from the reference")


def frame_v1(k: int, n: int, bit_length: int, body: bytes) -> bytes:
    """A v1 header followed by ``body`` (IV and payload bytes)."""
    return V1.pack(MAGIC, 1, k, n, bit_length) + body


def frame_v2(k: int, n: int, a: int, bit_length: int, body: bytes) -> bytes:
    return V2.pack(MAGIC, 2, k, n, a, 0, bit_length) + body


def frame_body_len(k: int, n: int, bit_length: int) -> int:
    return (n * k + 7) // 8 + (padded_block_count(bit_length, k) * k + 7) // 8
