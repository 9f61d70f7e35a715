import random

import pytest

from sebq.cipher import encrypt, keygen
from sebq.feistel import (
    Cca2Key,
    ConstantExpander,
    QuasigroupSponge,
    cca2_keygen,
    compress_fold,
    decrypt_cca2,
    encrypt_cca2,
)


class TestExpander:
    def test_deterministic(self):
        key = cca2_keygen(4, 7, seed_blocks=2)
        seed = [3, 9]
        assert key.expander.expand(seed) == key.expander.expand(seed)

    def test_output_length_contract(self):
        base = keygen(2, 1)
        for a in (2, 3, 5, 8):
            exp = QuasigroupSponge(base.q, a)
            assert len(exp.expand([1])) == a

    def test_a_must_exceed_one(self):
        base = keygen(2, 1)
        with pytest.raises(ValueError):
            QuasigroupSponge(base.q, 1)
        with pytest.raises(ValueError):
            ConstantExpander([3])

    def test_empty_seed_rejected(self):
        key = cca2_keygen(2, 2)
        with pytest.raises(ValueError):
            key.expander.expand([])

    def test_default_a_is_twice_seed_blocks(self):
        assert cca2_keygen(2, 1, seed_blocks=3).expander.a == 6

    def test_single_bit_seed_diffusion(self):
        # flipping one seed bit should flip roughly half the output bits
        rng = random.Random(3)
        base = keygen(4, 11)
        exp = QuasigroupSponge(base.q, 8)
        percents = []
        for _ in range(100):
            seed = [rng.randrange(16), rng.randrange(16)]
            pos = rng.randrange(8)
            other = list(seed)
            other[pos // 4] ^= 1 << (pos % 4)
            a_out = exp.expand(seed)
            b_out = exp.expand(other)
            bits = sum(bin(x ^ y).count("1") for x, y in zip(a_out, b_out))
            percents.append(100.0 * bits / (4 * exp.a))
        mean = sum(percents) / len(percents)
        assert 45.0 <= mean <= 55.0


class TestCompressFold:
    def test_xor_folds_chunks(self):
        assert compress_fold([1, 2, 4, 8], 2) == [1 ^ 4, 2 ^ 8]

    def test_uneven_tail(self):
        assert compress_fold([1, 2, 3], 2) == [1 ^ 3, 2]

    def test_width_guard(self):
        with pytest.raises(ValueError):
            compress_fold([1], 0)


class TestCca2Cipher:
    def test_round_trip_random(self):
        rng = random.Random(0)
        for _ in range(300):
            k = rng.choice([2, 4])
            key = cca2_keygen(k, rng.randrange(10**9), seed_blocks=rng.randint(1, 3))
            iv = [rng.randrange(key.order) for _ in range(rng.randint(1, 3))]
            msg = [rng.randrange(key.order) for _ in range(rng.randint(0, 15))]
            assert decrypt_cca2(key, iv, encrypt_cca2(key, iv, msg)) == msg

    def test_empty_message(self):
        key = cca2_keygen(2, 5)
        assert encrypt_cca2(key, [1], []) == []

    def test_constant_expander_degenerates_to_fixed_leader(self):
        # every block then encrypts like a fresh single-block message with
        # the constant vector as IV
        rng = random.Random(1)
        key = keygen(2, 3)
        vector = [1, 3, 0]
        ck = Cca2Key(key, ConstantExpander(vector))
        msg = [rng.randrange(4) for _ in range(12)]
        ct = encrypt_cca2(ck, [0], msg)
        for m, c in zip(msg, ct):
            assert c == encrypt(key, vector, [m])[0]
        assert decrypt_cca2(ck, [0], ct) == msg

    def test_tampered_block_garbles_suffix(self):
        # default seed width: the folded state depends on the whole chain,
        # so damage propagates to every later block
        rng = random.Random(2)
        changed = [0, 0]
        trials = 100
        for _ in range(trials):
            key = cca2_keygen(4, rng.randrange(10**9), seed_blocks=2)
            iv = [rng.randrange(16), rng.randrange(16)]
            msg = [rng.randrange(16) for _ in range(6)]
            ct = encrypt_cca2(key, iv, msg)
            pos = rng.randrange(4)
            bad = list(ct)
            bad[pos] ^= 1 + rng.randrange(15)
            out = decrypt_cca2(key, iv, bad)
            for offset in (1, 2):
                changed[offset - 1] += out[pos + offset] != msg[pos + offset]
        # each downstream block should change nearly always (>= 1 - 2^-k - noise)
        for count in changed:
            assert count / trials >= 1 - 1 / 16 - 0.08

    def test_width_one_seed_degenerates_to_ciphertext_feedback(self):
        # XOR-folding the checksummed leader to one block cancels everything
        # except the ciphertext block, so the mode self-synchronizes after
        # two blocks; table-recovery resistance is unaffected
        rng = random.Random(12)
        key = cca2_keygen(4, 5, seed_blocks=1)
        iv = [rng.randrange(16)]
        msg = [rng.randrange(16) for _ in range(6)]
        ct = encrypt_cca2(key, iv, msg)
        bad = list(ct)
        bad[1] ^= 7
        out = decrypt_cca2(key, iv, bad)
        assert out[:1] == msg[:1]
        assert out[3:] == msg[3:]
        assert out[1] != msg[1]

    def test_mismatched_expander_length_breaks_round_trip(self):
        rng = random.Random(3)
        base = keygen(4, 21)
        enc_key = Cca2Key(base, QuasigroupSponge(base.q, 4))
        dec_key = Cca2Key(base, QuasigroupSponge(base.q, 6))
        msg = [rng.randrange(16) for _ in range(20)]
        ct = encrypt_cca2(enc_key, [5, 1], msg)
        assert decrypt_cca2(dec_key, [5, 1], ct) != msg

    def test_empty_iv_rejected(self):
        key = cca2_keygen(2, 1)
        with pytest.raises(ValueError):
            encrypt_cca2(key, [], [0])

    def test_symbol_range_enforced(self):
        key = cca2_keygen(2, 1)
        with pytest.raises(ValueError):
            encrypt_cca2(key, [0], [4])

    @pytest.mark.parametrize("vector", [[-1, 2], [1, 4]])
    def test_out_of_range_expander_output_rejected(self, vector):
        key = Cca2Key(keygen(2, 3), ConstantExpander(vector))
        with pytest.raises(ValueError):
            encrypt_cca2(key, [0], [1])
        with pytest.raises(ValueError):
            decrypt_cca2(key, [0], [1])
