"""On-disk formats: the text key file and the binary cipher frame.

Key file (ASCII): line 1 is the literal header ``SEBQ-LSQ v1``, line 2 the
decimal order ``n``, then ``n`` lines of ``n`` space-separated decimal
symbols.  Blank lines, and whitespace around a line or between symbols,
are allowed.  Loading rejects anything that is not a Latin square.
:func:`key_to_text` writes the canonical form: the header, the order with
no leading zeros, then each row as symbols below ``n`` with no leading
zeros, one space between symbols and ``\\n`` after each row, and nothing
more.  When the compiled kernel is loaded, a file whose first two lines
are canonical, with an order that is a power of two up to
``2**MAX_SYMBOL_BITS``, has its table read in one pass in C; if the rest
is not canonical, or with no kernel, the per-row reference parse reads it,
and only that parse refuses a file.  Both build the key the same way, so
a file gives the same key, or the same :class:`KeyFileError`, on either.

Cipher frame (big-endian): magic ``SEBQ``, version byte, ``k`` (1 byte),
``n`` (2 bytes), then for version 2 the expander length ``a`` (2 bytes) and
an expander identifier byte, then the plaintext bit length (8 bytes), the
packed IV (``ceil(n*k/8)`` bytes), and the packed ciphertext of the
plaintext padded ``1 0*`` to whole k-bit symbols.  The padding is added and
removed on bytes, with no array of one byte per bit.

A header fixes the table lookups each payload block costs to decrypt
(:func:`lookups_per_block`): ``n`` for version 1 and ``n**2 + 2n*ceil(a/2)
+ a`` for version 2.  Headers over :data:`MAX_LOOKUPS_PER_BLOCK` (4096) are
refused on both sides, so a frame's decode work is bounded by its length.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from sebq import _ckernel, feistel
from sebq.cipher import (
    MAX_SYMBOL_BITS,
    PaddingError,
    SebqKey,
    _padded_blocks,
    _run,
    _unpack_blocks,
    _unpadded_length,
    lookups_per_block,
    pack_bits,
    unpack_bits,
)
from sebq.latin import LatinSquare, SeedLike, as_rng
from sebq.transforms import _check_symbols

# Not used here: perfbench/spans.py wraps these names on this module, and its
# tracer stops on a name it cannot resolve.
from sebq.cipher import decrypt, encrypt, pad, unpad  # noqa: F401
from sebq.latin import validate_latin_square  # noqa: F401

__all__ = [
    "KEY_HEADER",
    "FRAME_MAGIC",
    "FRAME_V1",
    "FRAME_V2",
    "EXPANDER_SPONGE",
    "FrameError",
    "BadMagic",
    "KeyMismatch",
    "KeyFileError",
    "MAX_LOOKUPS_PER_BLOCK",
    "CipherFrame",
    "key_to_text",
    "key_from_text",
    "save_key",
    "load_key",
    "key_fingerprint",
    "lookups_per_block",
    "encode_frame",
    "decode_frame",
    "seal_bytes",
    "open_bytes",
]

KEY_HEADER = "SEBQ-LSQ v1"
FRAME_MAGIC = b"SEBQ"
FRAME_V1 = 0x01
FRAME_V2 = 0x02
EXPANDER_SPONGE = 0x00

# some 20 times the default cca2 block (n=8, a=16: 208 lookups); also keeps
# n and a inside their 16-bit header fields
MAX_LOOKUPS_PER_BLOCK = 4096

# the header and order lines of a canonical key file, for each power-of-two order up to 2**MAX_SYMBOL_BITS
_CANONICAL_HEADS = {f"{KEY_HEADER}\n{1 << k}\n".encode(): 1 << k for k in range(MAX_SYMBOL_BITS + 1)}

_HEADERS = {FRAME_V1: struct.Struct(">4sBBHQ"), FRAME_V2: struct.Struct(">4sBBHHBQ")}


class FrameError(ValueError):
    """Frame bytes are structurally unusable."""


class BadMagic(FrameError):
    """Frame does not start with the SEBQ magic."""


class KeyMismatch(FrameError):
    """Frame symbol width disagrees with the supplied key."""


class KeyFileError(ValueError):
    """Key file is missing, malformed, or fails the Latin-square check."""


def key_to_text(key: SebqKey) -> str:
    names = [str(v) for v in range(key.order)]
    lines = [KEY_HEADER, str(key.order)]
    lines += [" ".join(map(names.__getitem__, row)) for row in key.q.mul.to_lists()]
    return "\n".join(lines) + "\n"


def key_from_text(text: str) -> SebqKey:
    # a non-ASCII character becomes "?", which no canonical file holds
    table = _canonical_table(text.encode("ascii", "replace"))
    return _key_from_table(_reference_table(text) if table is None else table)


def _key_from_table(table) -> SebqKey:
    # LatinSquare rejects ragged rows, out-of-range symbols and repeats
    try:
        return SebqKey.from_square(LatinSquare(table))
    except ValueError as exc:
        raise KeyFileError(str(exc)) from None


def _canonical_table(data: bytes) -> np.ndarray | None:
    """The table of canonical key-file ``data``, read by the compiled kernel; else ``None``."""
    kernel = _ckernel.kernel()
    if kernel is None:
        return None
    split = data.find(b"\n", len(KEY_HEADER) + 1) + 1
    order = _CANONICAL_HEADS.get(data[:split])
    return None if order is None else kernel.parse_table(data[split:], order)


def _reference_table(text: str) -> list[np.ndarray]:
    """The rows of key-file ``text``, one array each; raises :class:`KeyFileError`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != KEY_HEADER:
        raise KeyFileError(f"missing key header {KEY_HEADER!r}")
    try:
        order = int(lines[1].strip())
    except (IndexError, ValueError):
        raise KeyFileError("missing or non-numeric order line") from None
    rows = lines[2:]
    if len(rows) != order:
        raise KeyFileError(f"expected {order} table rows, found {len(rows)}")
    # a token fromstring cannot read to its end (x, 1.0, 1_0, 0,1) raises
    # ValueError, or on numpy 1.x warns, which the filter makes an error
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return [np.fromstring(row, dtype=np.int64, sep=" ") for row in rows]
    except (ValueError, DeprecationWarning):
        raise KeyFileError("non-integer table entry") from None


def save_key(path, key: SebqKey) -> str:
    """Write ``key`` to ``path`` as a key file; return its :func:`key_fingerprint`."""
    text = key_to_text(key)
    with open(path, "w", encoding="ascii") as fp:
        fp.write(text)
    return _text_fingerprint(text)


def load_key(path) -> SebqKey:
    # read once as bytes: the compiled parse takes them as they are, and only
    # the reference parse needs text
    try:
        with open(path, "rb") as fp:
            data = fp.read()
        table = _canonical_table(data)
        if table is None:
            table = _reference_table(data.decode("ascii"))
    except (OSError, UnicodeDecodeError) as exc:
        raise KeyFileError(f"cannot read key file: {exc}") from None
    return _key_from_table(table)


def key_fingerprint(key: SebqKey) -> str:
    """SHA-256 of the canonical key file text, hex-truncated to 16 chars."""
    return _text_fingerprint(key_to_text(key))


def _text_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class CipherFrame:
    """Parsed frame header plus payload, independent of any key; ``a`` is None for version 1."""

    version: int
    k: int
    n: int
    bit_length: int
    iv: tuple[int, ...]
    payload: bytes
    a: int | None = None
    expander_id: int = 0

    @property
    def payload_blocks(self) -> int:
        return _padded_blocks(self.bit_length, self.k)


def _check_header(k: int, n: int, a: int | None, error: type[ValueError]) -> None:
    """Raise ``error`` unless a header's k, n and a (None for version 1) are usable."""
    if not 1 <= k <= MAX_SYMBOL_BITS or n < 1:
        raise error(f"bad frame parameters k={k} n={n}")
    if a is not None and a < 2:
        raise error(f"bad expander length a={a}")
    work, cap = lookups_per_block(n, a), MAX_LOOKUPS_PER_BLOCK
    if work > cap:
        raise error(f"header n={n} a={a} costs {work} lookups per block, over the cap of {cap}")


def encode_frame(
    key: SebqKey,
    iv: tuple[int, ...] | list[int],
    bit_length: int,
    payload: bytes,
    *,
    a: int | None = None,
    expander_id: int = EXPANDER_SPONGE,
) -> bytes:
    """Assemble frame bytes; ``a`` switches the header to version 2.

    Raises ``ValueError`` for a bad IV symbol or a header :func:`decode_frame` would refuse.
    """
    _check_symbols(key.order, iv, "iv")
    n = len(iv)
    _check_header(key.k, n, a, ValueError)
    iv_bytes = pack_bits(iv, key.k)
    tail = () if a is None else (a, expander_id)
    version = FRAME_V2 if tail else FRAME_V1
    head = _HEADERS[version].pack(FRAME_MAGIC, version, key.k, n, *tail, bit_length)
    return head + iv_bytes + payload


def decode_frame(data: bytes) -> CipherFrame:
    if len(data) < 5 or data[:4] != FRAME_MAGIC:
        raise BadMagic("not a SEBQ frame")
    version = data[4]
    head = _HEADERS.get(version)
    if head is None:
        raise FrameError(f"unsupported frame version {version}")
    if len(data) < head.size:
        raise FrameError("truncated frame header")
    _, _, k, n, *tail, bit_length = head.unpack_from(data)
    a, expander_id = tail or (None, 0)
    _check_header(k, n, a, FrameError)
    iv_end = head.size + (n * k + 7) // 8
    size = iv_end + (_padded_blocks(bit_length, k) * k + 7) // 8
    if len(data) != size:
        raise FrameError(f"frame length {len(data)} != expected {size}")
    iv = tuple(unpack_bits(data[head.size : iv_end], k, n))
    return CipherFrame(version, k, n, bit_length, iv, data[iv_end:], a, expander_id)


def seal_bytes(
    key: SebqKey,
    data: bytes,
    *,
    n: int = 8,
    seed: SeedLike = None,
    iv: list[int] | None = None,
    scheme: str = "plain",
    a: int | None = None,
) -> bytes:
    """Encrypt raw bytes into a frame.

    The IV is drawn from ``seed`` unless given explicitly; ``scheme`` is
    ``"plain"`` (version 1) or ``"cca2"`` (version 2, leader vectors pass
    through the keyed expander, ``a`` defaults to ``2*n``).
    """
    a = feistel._scheme_a(scheme, n if iv is None else len(iv), a)
    if iv is None:
        # refuse the n given, not the length of an IV drawn from range(n)
        _check_header(key.k, n, a, ValueError)
        rng = as_rng(seed)
        iv = [rng.randrange(key.order) for _ in range(n)]
    padded = b"".join((data, b"\x80"))  # join takes any bytes-like data; 0x80 starts the pad
    bit_length = 8 * len(padded) - 8
    # the header first: it rejects an IV or expander length the frame cannot hold
    head = encode_frame(key, iv, bit_length, b"", a=a)
    blocks = _unpack_blocks(padded, key.k, _padded_blocks(bit_length, key.k))
    ct = _run(key, iv, blocks, feistel._sponge(key, a), inverse=False)
    return head + pack_bits(ct, key.k)


def open_bytes(key: SebqKey, frame_bytes: bytes) -> bytes:
    """Decrypt a frame produced by :func:`seal_bytes` back to raw bytes."""
    frame = decode_frame(frame_bytes)
    if frame.k != key.k:
        raise KeyMismatch(f"frame k={frame.k} but key k={key.k}")
    if frame.expander_id != EXPANDER_SPONGE:
        raise FrameError(f"expander 0x{frame.expander_id:02x} requires an external plug-in")
    ct = _unpack_blocks(frame.payload, frame.k, frame.payload_blocks)
    data = pack_bits(_run(key, frame.iv, ct, feistel._sponge(key, frame.a), inverse=True), frame.k)
    n = _unpadded_length(data)
    if n != frame.bit_length:
        raise PaddingError(f"recovered {n} plaintext bits, header says {frame.bit_length}")
    if n % 8:
        raise FrameError("plaintext bit length is not byte-aligned")
    return data[: n // 8]
