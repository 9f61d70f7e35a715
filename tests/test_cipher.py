import itertools
import random

import numpy as np
import pytest

from sebq.cipher import (
    CipherState,
    PaddingError,
    SebqKey,
    decrypt,
    decrypt_block,
    encrypt,
    encrypt_block,
    keygen,
    pack_bits,
    pad,
    unpack_bits,
    unpad,
)
from sebq.formats import seal_bytes
from sebq.latin import xor_latin_square
from sebq.transforms import d_transform, e_transform


@pytest.fixture
def xor_key():
    return SebqKey.from_square(xor_latin_square(4))


class TestKeygen:
    def test_reproducible(self):
        assert keygen(4, 7).q.mul == keygen(4, 7).q.mul

    def test_order_matches_k(self):
        for k in (1, 2, 4, 8):
            assert keygen(k, 0).order == 1 << k

    def test_k_guard(self):
        with pytest.raises(ValueError):
            keygen(9, 0)
        with pytest.raises(ValueError):
            keygen(0, 0)

    def test_order_two_key_is_one_of_two_squares(self):
        tables = {tuple(keygen(1, s).q.mul.table.ravel()) for s in range(20)}
        assert tables <= {(0, 1, 1, 0), (1, 0, 0, 1)}
        assert len(tables) == 2

    def test_from_square_rejects_non_power_of_two(self):
        from sebq.latin import cyclic_latin_square

        with pytest.raises(ValueError):
            SebqKey.from_square(cyclic_latin_square(5))


class TestBlockOps:
    def test_xor_block_example(self, xor_key):
        c, state = encrypt_block(xor_key, 3, CipherState((1, 2)))
        assert c == 0 and state.leader == (2, 2)

    def test_single_leader_is_table_read(self):
        key = keygen(3, 5)
        for r in range(8):
            for m in range(8):
                c, _ = encrypt_block(key, m, CipherState((r,)))
                assert c == key.q.mul.table[r, m]
                p, _ = decrypt_block(key, c, CipherState((r,)))
                assert p == m

    def test_zero_state_fixed_point(self, xor_key):
        c, state = encrypt_block(xor_key, 0, CipherState((0, 0, 0)))
        assert c == 0 and state.leader == (0, 0, 0)

    def test_decrypt_block_inverts_and_tracks_state(self, xor_key):
        m, state = decrypt_block(xor_key, 0, CipherState((1, 2)))
        assert m == 3 and state.leader == (2, 2)

    def test_round_trip_many(self):
        rng = random.Random(0)
        for _ in range(500):
            k = rng.choice([1, 2, 4])
            key = keygen(k, rng.randrange(10**9))
            state = CipherState(tuple(rng.randrange(key.order) for _ in range(rng.randint(1, 5))))
            m = rng.randrange(key.order)
            c, st_e = encrypt_block(key, m, state)
            m2, st_d = decrypt_block(key, c, state)
            assert m2 == m and st_d.leader == st_e.leader

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            CipherState(())


class TestMessageOps:
    def test_xor_worked_trace(self, xor_key):
        assert encrypt(xor_key, [1, 2], [3, 0]) == [0, 0]
        assert decrypt(xor_key, [1, 2], [0, 0]) == [3, 0]

    def test_empty_message(self, xor_key):
        assert encrypt(xor_key, [1, 2], []) == []
        assert decrypt(xor_key, [1, 2], []) == []

    def test_iv_not_mutated(self, xor_key):
        iv = [1, 2, 3]
        encrypt(xor_key, iv, [0, 1, 2])
        assert iv == [1, 2, 3]

    def test_matches_string_transform(self):
        rng = random.Random(1)
        for _ in range(300):
            k = rng.choice([1, 2, 4])
            key = keygen(k, rng.randrange(10**9))
            iv = [rng.randrange(key.order) for _ in range(rng.randint(1, 6))]
            msg = [rng.randrange(key.order) for _ in range(rng.randint(0, 15))]
            ct = encrypt(key, iv, msg)
            assert ct == e_transform(key.q, iv, msg)[0]
            assert decrypt(key, iv, ct) == d_transform(key.q, iv, ct)[0] == msg

    def test_block_chain_equals_whole_message(self):
        key = keygen(4, 9)
        rng = random.Random(2)
        iv = tuple(rng.randrange(16) for _ in range(4))
        msg = [rng.randrange(16) for _ in range(10)]
        state = CipherState(iv)
        chained = []
        for m in msg:
            c, state = encrypt_block(key, m, state)
            chained.append(c)
        assert chained == encrypt(key, list(iv), msg)

    @pytest.mark.parametrize("k", [1, 2])
    def test_exhaustive_bijection_l3(self, k):
        key = keygen(k, 12)
        order = 1 << k
        iv = [order - 1, 1 % order]
        images = {
            tuple(encrypt(key, iv, list(msg)))
            for msg in itertools.product(range(order), repeat=3)
        }
        assert len(images) == order**3
        for msg in itertools.product(range(order), repeat=3):
            assert decrypt(key, iv, encrypt(key, iv, list(msg))) == list(msg)

    def test_decrypt_state_sequence_matches_encrypt(self):
        key = keygen(2, 3)
        rng = random.Random(4)
        iv = tuple(rng.randrange(4) for _ in range(3))
        msg = [rng.randrange(4) for _ in range(8)]
        st_e = CipherState(iv)
        enc_states = []
        ct = []
        for m in msg:
            c, st_e = encrypt_block(key, m, st_e)
            ct.append(c)
            enc_states.append(st_e.leader)
        st_d = CipherState(iv)
        dec_states = []
        for c in ct:
            _, st_d = decrypt_block(key, c, st_d)
            dec_states.append(st_d.leader)
        assert dec_states == enc_states

    def test_iv_change_changes_ciphertext(self):
        # per-block collision rate under a fresh IV stays near 2^-k
        rng = random.Random(5)
        key = keygen(4, 77)
        msg = [rng.randrange(16) for _ in range(20)]
        same = 0
        total = 0
        for _ in range(200):
            iv1 = [rng.randrange(16) for _ in range(3)]
            iv2 = [rng.randrange(16) for _ in range(3)]
            if iv1 == iv2:
                continue
            c1 = encrypt(key, iv1, msg)
            c2 = encrypt(key, iv2, msg)
            same += sum(a == b for a, b in zip(c1, c2))
            total += len(msg)
        assert same / total < 2 * (1 / 16)

    def test_symbol_range_enforced(self, xor_key):
        with pytest.raises(ValueError):
            encrypt(xor_key, [1], [4])
        with pytest.raises(ValueError):
            encrypt(xor_key, [7], [0])
        with pytest.raises(ValueError):
            encrypt(xor_key, [], [0])

    def test_array_input(self):
        key = keygen(4, 3)
        iv, msg = [3, 1, 4, 1, 5], [9, 2, 6, 5, 3, 5, 8, 9, 7, 9] * 20
        ct = encrypt(key, iv, msg)
        assert encrypt(key, np.array(iv), np.array(msg, dtype=np.uint8)) == ct
        assert decrypt(key, np.array(iv, dtype=np.int64), np.array(ct)) == msg
        assert encrypt(key, np.array(iv), np.array(msg[:3])) == ct[:3]  # below the compiled-loop cut
        with pytest.raises(ValueError, match="message symbol 16 out of range 0..15"):
            encrypt(key, np.array(iv), np.array([1, 16, 2]))
        with pytest.raises(ValueError, match="iv symbol -1 out of range 0..15"):
            decrypt(key, np.array([2, -1]), np.array(ct))
        with pytest.raises(ValueError, match="iv must hold at least one block"):
            encrypt(key, np.array([], dtype=np.uint8), msg)

    def test_non_integer_symbols_refused_on_either_loop(self):
        key = keygen(4, 3)
        iv = list(range(1, 9))
        # 100 blocks run on the compiled loop when it loads, 1 block on the Python one
        for msg in ([1.5] * 100, [1.5], np.full(100, 1.5), [1, 2, 2.0]):
            with pytest.raises(ValueError, match=r"message symbol [\d.]+ is not an integer"):
                encrypt(key, iv, msg)
        with pytest.raises(ValueError, match="iv symbol 1.5 is not an integer"):
            decrypt(key, [1.5] * 8, [1] * 100)
        with pytest.raises(ValueError, match="symbol 1.5 is not an integer"):
            pack_bits([1.5, 2.9], 4)
        with pytest.raises(ValueError, match="symbol 1.5 is not an integer"):
            seal_bytes(key, bytes(64), iv=[1.5] * 8)


class TestPacking:
    def test_nibble_packing(self):
        assert pack_bits((0xA, 0xB), 4) == b"\xab"

    def test_bit_packing(self):
        assert pack_bits((1, 0, 1, 1, 0, 0, 0, 0), 1) == b"\xb0"

    def test_empty(self):
        assert pack_bits((), 4) == b""
        assert unpack_bits(b"", 4, 0) == []

    def test_round_trip_all_k(self):
        rng = random.Random(6)
        for k in range(1, 9):
            for _ in range(30):
                blocks = [rng.randrange(1 << k) for _ in range(rng.randint(0, 40))]
                assert unpack_bits(pack_bits(blocks, k), k, len(blocks)) == blocks

    def test_insufficient_bytes(self):
        with pytest.raises(ValueError):
            unpack_bits(b"\xff", 4, 3)

    def test_value_range(self):
        with pytest.raises(ValueError):
            pack_bits((16,), 4)


class TestPadding:
    def test_seven_bits_k4(self):
        blocks = pad([1, 1, 1, 1, 1, 1, 1], 4)
        assert len(blocks) == 2
        assert blocks[-1] & 1 == 1  # final bit is the pad marker

    def test_aligned_input_gets_full_block(self):
        blocks = pad([0, 1, 0, 1, 0, 1, 0, 1], 4)
        assert len(blocks) == 3
        assert blocks[-1] == 0b1000

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randint(1, 8)
            bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 50))]
            assert unpad(pad(bits, k), k).tolist() == bits

    def test_malformed_padding(self):
        with pytest.raises(PaddingError):
            unpad([0, 0, 0], 4)
        with pytest.raises(PaddingError):
            unpad([], 4)


class TestSymbolShape:
    # _check_symbols is the one boundary check: a symbol array is 1-D
    def test_two_dimensional_message_refused_on_either_loop(self):
        key = keygen(4, 3)
        for rows in (2, 16):  # 16 rows of 8 passes the compiled-loop cut
            with pytest.raises(ValueError, match="message"):
                encrypt(key, [1, 2], np.zeros((rows, 8), dtype=np.int64))
            with pytest.raises(ValueError, match="ciphertext"):
                decrypt(key, [1, 2], np.zeros((rows, 8), dtype=np.int64))

    def test_two_dimensional_iv_refused(self):
        with pytest.raises(ValueError, match="iv"):
            encrypt(keygen(4, 3), np.array([[1, 2]]), [0] * 40)

    def test_two_dimensional_blocks_refused_by_pack_bits(self):
        with pytest.raises(ValueError, match="block"):
            pack_bits(np.array([[1, 2], [3, 4]]), 4)

    def test_scalar_refused(self):
        key = keygen(4, 3)
        for scalar in (np.array(5), 5):
            with pytest.raises(ValueError, match="message"):
                encrypt(key, [1], scalar)
        with pytest.raises(ValueError, match="iv"):
            encrypt(key, np.array(1), [5])
