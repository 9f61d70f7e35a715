import random
import struct
import tracemalloc

import numpy as np
import pytest

import sebq.latin
from sebq import _ckernel, formats
from sebq.cipher import PaddingError, SebqKey, decrypt, encrypt, keygen, pack_bits, pad, unpack_bits
from sebq.feistel import QuasigroupSponge
from sebq.formats import (
    BadMagic,
    FrameError,
    KeyFileError,
    KeyMismatch,
    MAX_LOOKUPS_PER_BLOCK,
    decode_frame,
    encode_frame,
    key_fingerprint,
    key_from_text,
    key_to_text,
    load_key,
    lookups_per_block,
    open_bytes,
    save_key,
    seal_bytes,
)
from test_ckernel import compiled


class TestKeyFile:
    def test_round_trip(self, tmp_path):
        key = keygen(4, 42)
        path = tmp_path / "key.lsq"
        save_key(path, key)
        loaded = load_key(path)
        assert loaded.q.mul == key.q.mul
        assert loaded.k == key.k

    def test_header_line(self):
        text = key_to_text(keygen(2, 1))
        lines = text.splitlines()
        assert lines[0] == "SEBQ-LSQ v1"
        assert lines[1] == "4"
        assert len(lines) == 2 + 4

    def test_fingerprint_stable(self):
        assert key_fingerprint(keygen(3, 9)) == key_fingerprint(keygen(3, 9))
        assert key_fingerprint(keygen(3, 9)) != key_fingerprint(keygen(3, 10))

    def test_rejects_bad_header(self):
        with pytest.raises(KeyFileError):
            key_from_text("NOPE\n2\n0 1\n1 0\n")

    def test_rejects_non_latin_table(self):
        text = "SEBQ-LSQ v1\n2\n0 0\n1 1\n"
        with pytest.raises(KeyFileError):
            key_from_text(text)

    def test_rejects_tampered_symbol(self, tmp_path):
        key = keygen(2, 5)
        text = key_to_text(key)
        lines = text.splitlines()
        lines[2] = lines[2].replace(lines[2][0], "9", 1)
        path = tmp_path / "bad.lsq"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(KeyFileError):
            load_key(path)

    def test_rejects_non_power_of_two_order(self):
        rows = ["0 1 2", "1 2 0", "2 0 1"]
        text = "SEBQ-LSQ v1\n3\n" + "\n".join(rows) + "\n"
        with pytest.raises(KeyFileError):
            key_from_text(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(KeyFileError):
            load_key(tmp_path / "nope.lsq")


class TestOneLatinScanPerKey:
    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        real = sebq.latin.validate_latin_square

        def counting(table):
            calls.append(1)
            return real(table)

        monkeypatch.setattr(sebq.latin, "validate_latin_square", counting)
        # the compiled parse marks rows and columns as it reads: a table it returns was scanned
        parse = _ckernel.Kernel.parse_table

        def counting_parse(self, body, order):
            tables = parse(self, body, order)
            if tables is not None:
                calls.append(1)
            return tables

        monkeypatch.setattr(_ckernel.Kernel, "parse_table", counting_parse)
        return calls

    def test_keygen(self, scans):
        key = keygen(8, 11)
        assert len(scans) == 1
        assert not key.q.ldiv.table.flags.writeable

    def test_key_file(self, scans):
        text = key_to_text(keygen(8, 11))
        scans.clear()
        key_from_text(text)
        assert len(scans) == 1


class TestKeyFileParse:
    @pytest.mark.parametrize("row", ["x 1", "0 1.0", "0 1_0", "0,1"])
    def test_rejects_non_integer_token(self, row):
        with pytest.raises(KeyFileError, match="non-integer table entry"):
            key_from_text(f"SEBQ-LSQ v1\n2\n{row}\n1 0\n")

    @pytest.mark.parametrize("row", ["0 1 0", "0 12345678901234567890"])
    def test_rejects_ragged_row_and_huge_token(self, row):
        with pytest.raises(KeyFileError):
            key_from_text(f"SEBQ-LSQ v1\n2\n{row}\n1 0\n")

    @pytest.mark.parametrize("k", range(1, 9))
    def test_round_trip_every_width(self, k, tmp_path):
        key = keygen(k, 300 + k)
        path = tmp_path / "key.lsq"
        save_key(path, key)
        loaded = load_key(path)
        assert loaded.q.mul == key.q.mul
        assert key_fingerprint(loaded) == key_fingerprint(key)


def _outcome(text):
    """The fingerprint of the key ``text`` loads to, or the message it is refused with."""
    try:
        return key_fingerprint(key_from_text(text))
    except KeyFileError as exc:
        return f"KeyFileError: {exc}"


def _variants(text):
    """Near-canonical edits of a key file's text, each a small step off the canonical form."""
    head, order, *rows = text.splitlines()
    first, *rest = rows[0].split(" ")

    def body(*new_rows, end="\n"):
        return "\n".join((head, order, *new_rows)) + end

    yield text.replace(" ", "\t")
    yield text.replace("\n", "\r\n")
    yield text.replace(" ", "  ")
    yield body(*(" " + r for r in rows))
    yield body(*(r + " " for r in rows))
    yield body(*rows, end="")
    yield body(*rows, end="\n\n")
    yield "\n" + text
    yield body(*(r + "\n" for r in rows))
    kept, moved = rows[0].rsplit(" ", 1)
    yield body(kept, *rows[1:])
    yield body(rows[0] + " 0", *rows[1:])
    yield body(kept, moved + " " + rows[1], *rows[2:])
    yield body(kept, moved, *rows[1:])
    yield body(rows[0] + " " + rows[1], *rows[2:])
    yield body(*rows[:-1])
    yield body(*rows, rows[0])
    for token in ("0" + first, "01", "00", "+1", "-1", "1" * 20, order, str(int(order) + 1), rest[0], "x", "\u0661", "é"):
        yield body(" ".join((token, *rest)), *rows[1:])
    for new_order in ("0" + order, " " + order, order + " ", "+" + order, str(int(order) * 2), "1"):
        yield "\n".join((head, new_order, *rows)) + "\n"
    yield text.replace(head, head + " ", 1)
    yield text.replace(head, "sebq-lsq v1", 1)


@compiled
class TestCompiledKeyParse:
    """The compiled parse of canonical key files against the per-row reference parse."""

    @pytest.fixture
    def both(self, monkeypatch):
        def run(text):
            compiled_side = _outcome(text)
            with monkeypatch.context() as m:
                m.setattr(_ckernel, "kernel", lambda: None)
                return compiled_side, _outcome(text)

        return run

    @pytest.mark.parametrize("k", range(1, 9))
    def test_canonical_text_takes_the_compiled_parse(self, k, monkeypatch):
        key = keygen(k, 700 + k)
        monkeypatch.setattr(formats, "_reference_table", lambda text: pytest.fail("the reference parse ran"))
        assert key_fingerprint(key_from_text(key_to_text(key))) == key_fingerprint(key)

    def test_variants_match_reference(self, both):
        seen = set()
        for k in (1, 2, 3, 8):
            text = key_to_text(keygen(k, 40 + k))
            for variant in (text, *_variants(text)):
                compiled_side, reference = both(variant)
                assert compiled_side == reference, repr(variant[:80])
                seen.add(reference.startswith("KeyFileError"))
        assert seen == {False, True}  # both loads and refusals were compared

    def test_every_prefix_of_a_k2_file_matches_reference(self, both):
        text = key_to_text(keygen(2, 3))
        for end in range(len(text) + 1):
            compiled_side, reference = both(text[:end])
            assert compiled_side == reference, repr(text[:end])

    def test_seeded_mutations_of_a_k3_file_match_reference(self, both):
        text = key_to_text(keygen(3, 8))
        rng = random.Random(1717)
        alphabet = "0123456789  \n\t\r-+x\u00e9"
        for _ in range(400):
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(chars))
                kind = rng.randrange(4)
                if kind == 0:
                    chars[i] = rng.choice(alphabet)
                elif kind == 1:
                    chars[i] = {" ": "\n", "\n": " "}.get(chars[i], chars[i])
                elif kind == 2:
                    chars.insert(i, rng.choice(alphabet))
                else:
                    del chars[i]
            mutant = "".join(chars)
            compiled_side, reference = both(mutant)
            assert compiled_side == reference, repr(mutant)

    def test_short_canonical_body_refused_before_allocating(self):
        tracemalloc.start()
        try:
            assert _ckernel.kernel().parse_table(b"0 1\n1 0\n", 256) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096


class TestKeyFileBounds:
    def test_huge_order_refused_with_reference_message(self):
        text = f"SEBQ-LSQ v1\n{2**40}\n0 1\n1 0\n"
        tracemalloc.start()
        try:
            with pytest.raises(KeyFileError) as exc:
                key_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"expected {2**40} table rows, found 2"
        assert peak < 64 * 1024

    @pytest.mark.parametrize("k", range(1, 9))
    def test_canonical_keys_load_without_the_kernel(self, k, monkeypatch):
        key = keygen(k, 900 + k)
        text = key_to_text(key)
        monkeypatch.setattr(_ckernel, "kernel", lambda: None)
        assert key_fingerprint(key_from_text(text)) == key_fingerprint(key)


def _table_text(rows):
    """A key file holding ``rows`` in the canonical form, whatever the rows are."""
    return f"SEBQ-LSQ v1\n{len(rows)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


@compiled
class TestUint8KeyPath:
    """The canonical key path, ``uint8`` from the parse to the key, against the ``int64`` reference parse."""

    @staticmethod
    def reference(load, arg):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_ckernel, "kernel", lambda: None)
            return load(arg)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_load_key_matches_reference_parse(self, k, tmp_path):
        path = tmp_path / "key.lsq"
        save_key(path, keygen(k, 500 + k))
        got, want = load_key(path), self.reference(load_key, path)
        assert all(t.dtype == np.uint8 and t.flags.c_contiguous for t in got._tables)
        assert [t.tobytes() for t in got._tables] == [t.tobytes() for t in want._tables]
        assert key_fingerprint(got) == key_fingerprint(want)
        assert "q" not in vars(got)  # nothing above needed the int64 quasigroup
        for side in ("mul", "ldiv"):
            table, reference = getattr(got.q, side).table, getattr(want.q, side).table
            assert table.dtype == np.int64 and not table.flags.writeable
            assert np.array_equal(table, reference)

    @pytest.mark.parametrize("edit", ["row", "column", "symbol"])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_canonical_refusals_match_reference(self, k, edit, monkeypatch):
        rows = keygen(k, 600 + k).q.mul.table.tolist()
        n = len(rows)
        rng = random.Random(k)
        i, j = rng.randrange(n), rng.randrange(n)
        j2 = (j + 1 + rng.randrange(n - 1)) % n
        if edit == "row":  # a cell takes its neighbour's symbol: a repeat in its row and its column
            rows[i][j] = rows[i][j2]
            refusal = f"not a Latin square: symbol {rows[i][j2]} repeats in row {i}"
        elif edit == "column":  # two cells of a row swap: repeats in their columns only
            rows[i][j], rows[i][j2] = rows[i][j2], rows[i][j]
            refusal = "not a Latin square: symbol "
        else:
            rows[i][j] = n
            refusal = f"symbol {n} out of range 0..{n - 1}"
        text = _table_text(rows)
        if edit != "symbol":  # the compiled parse reads these; only the scan refuses them
            monkeypatch.setattr(formats, "_reference_table", lambda text: pytest.fail("the reference parse ran"))
        with pytest.raises(KeyFileError) as got:
            key_from_text(text)
        monkeypatch.undo()
        with pytest.raises(KeyFileError) as want:
            self.reference(key_from_text, text)
        assert str(got.value) == str(want.value)
        assert str(want.value).startswith(refusal)
        assert (" repeats in column " in str(want.value)) == (edit == "column")


@compiled
class TestKeyLoadStaysUint8:
    """Guards for the ``uint8`` key path: no ``int64`` table on a load or a plain round trip."""

    def test_k8_load_key_peak_beyond_the_file_is_under_256_kib(self, tmp_path):
        path = tmp_path / "key.lsq"
        save_key(path, keygen(8, 31))
        load_key(path)  # the first call's imports and caches are not the load's
        tracemalloc.start()
        try:
            load_key(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file is read whole (234 KB at k=8); beyond it the load holds the
        # two 64 KiB tables and, during the scan, its 64 KiB of marks.  One
        # int64 table would be 512 KiB
        assert peak - path.stat().st_size < 256 * 1024

    def test_compiled_plain_round_trip_never_builds_q(self, tmp_path):
        path = tmp_path / "key.lsq"
        save_key(path, keygen(8, 32))
        key = load_key(path)
        data = bytes(range(256)) * 4
        assert open_bytes(key, seal_bytes(key, data, seed=3)) == data
        key_fingerprint(key)
        assert "q" not in vars(key)


class TestKeysHoldFrozenTables:
    """A key from every path holds read-only tables, and compares, hashes and prints alike."""

    @pytest.fixture(params=[1, 4, 8])
    def keys(self, request, tmp_path, monkeypatch):
        key = keygen(request.param, 800 + request.param)
        path = tmp_path / "key.lsq"
        save_key(path, key)
        made = {"keygen": key, "SebqKey(q)": SebqKey(key.q), "compiled load": load_key(path)}
        with monkeypatch.context() as m:
            m.setattr(_ckernel, "kernel", lambda: None)
            made["reference load"] = load_key(path)
        return made

    def test_tables_are_read_only(self, keys):
        for name, key in keys.items():
            for table in key._tables:
                assert table.dtype == np.uint8 and not table.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 1

    def test_equal_keys_compare_equal_and_hash_alike(self, keys):
        first, *rest = keys.values()
        other = SebqKey.from_square(sebq.latin.LatinSquare(first.q.mul.table[::-1]))
        for key in rest:
            assert key == first and hash(key) == hash(first)
            assert key != other
        assert len(set(keys.values())) == 1

    def test_assignment_raises(self, keys):
        for key in keys.values():
            for name in ("order", "k", "q", "_tables", "anything"):
                with pytest.raises(AttributeError):
                    setattr(key, name, None)

    def test_repr_names_the_order(self, keys):
        assert {repr(key) for key in keys.values()} == {f"SebqKey(order={next(iter(keys.values())).order})"}


class TestFrameCodec:
    def test_v1_round_trip(self):
        key = keygen(4, 3)
        payload = bytes(range(10))
        blob = encode_frame(key, (1, 2, 3), 73, payload)
        # 73 plaintext bits at k=4 pad to 19 blocks -> 10 payload bytes
        frame = decode_frame(blob)
        assert frame.version == 1
        assert (frame.k, frame.n, frame.bit_length) == (4, 3, 73)
        assert frame.iv == (1, 2, 3)
        assert frame.payload == payload
        assert frame.payload_blocks == 19

    def test_v2_carries_expander_fields(self):
        key = keygen(2, 3)
        # 7 plaintext bits at k=2 pad to 4 blocks = 8 bits = 1 payload byte
        blob = encode_frame(key, (0, 1), 7, bytes(1), a=4, expander_id=0)
        frame = decode_frame(blob)
        assert frame.version == 2 and frame.a == 4 and frame.expander_id == 0

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            decode_frame(b"XEBQ" + bytes(20))

    def test_truncated(self):
        key = keygen(4, 3)
        blob = encode_frame(key, (1, 2), 40, bytes(6))
        with pytest.raises(FrameError):
            decode_frame(blob[:-1])

    def test_unsupported_version(self):
        blob = bytearray(encode_frame(keygen(4, 3), (1,), 3, b"\x00"))
        blob[4] = 0x7F
        with pytest.raises(FrameError):
            decode_frame(bytes(blob))


class TestSealOpen:
    @pytest.mark.parametrize("scheme", ["plain", "cca2"])
    def test_round_trip(self, scheme):
        rng = random.Random(0)
        for k in (1, 2, 4, 8):
            key = keygen(k, rng.randrange(10**9))
            data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))
            frame = seal_bytes(key, data, n=4, seed=rng.randrange(10**9), scheme=scheme)
            assert open_bytes(key, frame) == data

    @pytest.mark.parametrize("scheme", ["plain", "cca2"])
    def test_byte_padding_matches_bit_padding(self, scheme):
        # seal pads on bytes; the payload must still be pad() of the message bits
        rng = random.Random(11)
        for k in range(1, 9):
            key = keygen(k, k)
            for length in range(41):
                data = rng.randbytes(length)
                frame = seal_bytes(key, data, n=3, seed=length, scheme=scheme)
                for like in (bytearray(data), memoryview(data)):
                    assert seal_bytes(key, like, n=3, seed=length, scheme=scheme) == frame
                f = decode_frame(frame)
                expander = None if f.a is None else QuasigroupSponge(key.q, f.a)
                ct = unpack_bits(f.payload, k, f.payload_blocks)
                assert decrypt(key, f.iv, ct, expander) == pad(np.unpackbits(np.frombuffer(data, np.uint8)), k)
                assert open_bytes(key, frame) == data

    def test_bad_iv_named_as_iv(self):
        with pytest.raises(ValueError, match="^iv symbol 99 out of range"):
            seal_bytes(keygen(4, 1), b"ab", iv=[99])

    def test_empty_input_still_frames(self):
        key = keygen(4, 1)
        frame = seal_bytes(key, b"", n=4, seed=2)
        decoded = decode_frame(frame)
        assert decoded.bit_length == 0
        assert decoded.payload_blocks == 1  # the lone padding block
        assert open_bytes(key, frame) == b""

    def test_seeded_frames_reproducible(self):
        key = keygen(4, 5)
        a = seal_bytes(key, b"hello world", n=8, seed=7)
        b = seal_bytes(key, b"hello world", n=8, seed=7)
        assert a == b

    def test_explicit_iv_recorded(self):
        key = keygen(4, 5)
        frame = seal_bytes(key, b"x", iv=[5, 10, 15])
        assert decode_frame(frame).iv == (5, 10, 15)

    def test_key_mismatch(self):
        frame = seal_bytes(keygen(4, 1), b"data", n=2, seed=3)
        with pytest.raises(KeyMismatch):
            open_bytes(keygen(2, 1), frame)

    def test_malformed_padding_detected(self):
        # craft a frame whose decryption yields all-zero bits
        key = keygen(4, 9)
        iv = [1, 2]
        blocks = [0, 0, 0]  # unpads to nothing: no terminating 1 bit
        ct = encrypt(key, iv, blocks)
        blob = encode_frame(key, tuple(iv), 11, pack_bits(ct, 4))
        with pytest.raises(PaddingError):
            open_bytes(key, blob)

    def test_bit_length_not_byte_aligned_refused(self):
        # 7 plaintext bits padded 1 0* to two 4-bit symbols: the padding is consistent with the header
        key = keygen(4, 9)
        iv = (1, 2)
        ct = encrypt(key, iv, pad([1, 0, 1, 1, 0, 0, 1], 4))
        with pytest.raises(FrameError, match="^plaintext bit length is not byte-aligned$"):
            open_bytes(key, encode_frame(key, iv, 7, pack_bits(ct, 4)))

    def test_external_expander_id_rejected(self):
        key = keygen(2, 4)
        frame = bytearray(seal_bytes(key, b"ab", n=2, seed=1, scheme="cca2"))
        frame[10] = 0x01  # expander id byte in the v2 header
        with pytest.raises(FrameError):
            open_bytes(key, bytes(frame))

    def test_wrong_key_fails_or_garbles(self):
        rng = random.Random(1)
        outcomes = {"padding": 0, "garbled": 0, "clean": 0}
        for trial in range(40):
            k1 = keygen(4, rng.randrange(10**9))
            k2 = keygen(4, rng.randrange(10**9))
            data = bytes(rng.randrange(256) for _ in range(32))
            frame = seal_bytes(k1, data, n=4, seed=rng.randrange(10**9))
            try:
                out = open_bytes(k2, frame)
            except (PaddingError, FrameError):
                outcomes["padding"] += 1
            else:
                outcomes["garbled" if out != data else "clean"] += 1
        assert outcomes["clean"] == 0
        assert outcomes["padding"] + outcomes["garbled"] == 40


class TestWorkCap:
    def test_default_cca2_block(self):
        assert lookups_per_block(8) == 8
        assert lookups_per_block(8, 16) == 208

    def test_rewritten_expander_length_rejected(self):
        key = keygen(4, 6)
        frame = bytearray(seal_bytes(key, bytes(2048), n=8, seed=1, scheme="cca2"))
        frame[8:10] = (65535).to_bytes(2, "big")  # the v2 header's expander length
        with pytest.raises(FrameError, match="cap"):
            decode_frame(bytes(frame))

    @pytest.mark.parametrize(
        "n, a", [(4096, None), (4097, None), (1, 2047), (1, 2048), (8, 16), (64, 2)]
    )
    def test_seal_refuses_what_decode_refuses(self, n, a):
        k, bits = 2, 8
        over = lookups_per_block(n, a) > MAX_LOOKUPS_PER_BLOCK
        # the same header packed by hand, past the encoder's own check
        if a is None:
            head = struct.pack(">4sBBHQ", b"SEBQ", 1, k, n, bits)
        else:
            head = struct.pack(">4sBBHHBQ", b"SEBQ", 2, k, n, a, 0, bits)
        blob = head + bytes((n * k + 7) // 8) + bytes(2)  # 8 bits pad to 5 blocks, 2 bytes
        key = keygen(k, 1)
        scheme = "plain" if a is None else "cca2"
        if over:
            with pytest.raises(FrameError, match="cap"):
                decode_frame(blob)
            with pytest.raises(ValueError, match="cap") as exc:
                seal_bytes(key, b"x", iv=[0] * n, scheme=scheme, a=a)
            assert not isinstance(exc.value, FrameError)  # sebq encrypt exits 1, not 3
        else:
            assert decode_frame(blob).n == n
            frame = seal_bytes(key, b"x", iv=[0] * n, scheme=scheme, a=a)
            assert open_bytes(key, frame) == b"x"
