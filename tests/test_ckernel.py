"""The compiled chained loop and key walk against the Python reference loops.

The compiled side is skipped only where no C compiler could build it
(``sebq.transforms.BACKEND == "python"``); the fallback checks always run.
"""

import os
import random
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from sebq import _ckernel, latin, transforms
from sebq.cipher import _C_MIN_LOOKUPS, decrypt, encrypt, keygen, lookups_per_block, pack_bits, pad
from sebq.feistel import ConstantExpander, QuasigroupSponge
from sebq.formats import decode_frame, key_fingerprint, open_bytes, seal_bytes
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


@compiled
def test_build_prunes_old_kernels_by_age(tmp_path):
    stale = tmp_path / "chain-0000000000000000.so"
    young = tmp_path / "chain-1111111111111111.so"
    other = tmp_path / "notes.so"
    for path in (stale, young, other):
        path.write_bytes(b"")
    old = time.time() - _ckernel.PRUNE_AGE - 60
    for path in (stale, other):
        os.utime(path, (old, old))
    assert _ckernel.load(_cache=str(tmp_path)) is not None
    built = [p for p in tmp_path.glob("chain-*.so") if p not in (stale, young)]
    assert len(built) == 1
    assert not stale.exists() and young.exists() and other.exists()
    # a plain load deletes nothing, whatever its age, the loaded kernel included
    stale.write_bytes(b"")
    os.utime(stale, (old, old))
    os.utime(built[0], (old, old))
    assert _ckernel.load(_cc=str(tmp_path / "no-such-cc"), _cache=str(tmp_path)) is not None
    assert stale.exists() and built[0].exists()


class PythonLoopSponge(QuasigroupSponge):
    """The key's sponge on the Python per-block loop: a subclass never takes the compiled path."""


class CountingSponge(QuasigroupSponge):
    """A subclass that overrides ``expand``, counting its calls."""

    def __init__(self, q, a):
        super().__init__(q, a)
        self.calls = 0

    def expand(self, seed):
        self.calls += 1
        return super().expand(seed)


@compiled
def test_cca2_compiled_matches_python_loop(keys):
    kernel = transforms._kernel()
    rng = random.Random(6160)
    crossed = set()
    for _ in range(2000):
        key = keys[rng.choice((1, 2, 4, 8))]
        a = rng.randint(2, 40)
        iv = [rng.randrange(key.order) for _ in range(rng.randint(1, 9))]
        blocks = [rng.randrange(key.order) for _ in range(rng.randint(0, 60))]
        sponge, reference = QuasigroupSponge(key.q, a), PythonLoopSponge(key.q, a)
        crossed.add(lookups_per_block(len(iv), a) * len(blocks) >= _C_MIN_LOOKUPS)
        want = encrypt(key, iv, blocks, reference)
        # the kernel itself, on either side of the cut, and the public entry points
        assert kernel.run_cca2(key._tables, key.k, iv, blocks, sponge._squeeze, a).tolist() == want
        assert encrypt(key, iv, blocks, sponge) == want
        got = kernel.run_cca2(key._tables, key.k, iv, want, sponge._squeeze, a, inverse=True)
        assert got.tolist() == blocks == decrypt(key, iv, want, reference)
        assert decrypt(key, iv, want, sponge) == blocks
    assert crossed == {False, True}


@compiled
@pytest.mark.parametrize("iv, squeeze, a", [([], [1, 0], 2), ([1], [1, 0], 3), ([1], [1, 0], 0)])
def test_cca2_kernel_refuses_unsized_scratch(keys, iv, squeeze, a):
    with pytest.raises(ValueError):
        transforms._kernel().run_cca2(keys[2]._tables, 2, iv, [0, 1], squeeze, a)


@compiled
def test_cca2_long_run_skips_python_expand(keys, monkeypatch):
    key = keys[4]
    iv, blocks = [1, 2, 3], list(range(16)) * 4
    want = encrypt(key, iv, blocks, PythonLoopSponge(key.q, 6))
    calls = []
    real = QuasigroupSponge.expand
    monkeypatch.setattr(QuasigroupSponge, "expand", lambda self, seed: calls.append(1) or real(self, seed))
    assert encrypt(key, iv, blocks, QuasigroupSponge(key.q, 6)) == want
    assert calls == []
    # under the cut the sponge runs in Python, once per block
    assert encrypt(key, iv, blocks[:1], QuasigroupSponge(key.q, 6)) == want[:1]
    assert len(calls) == 1


def test_cca2_other_expanders_take_python_path(keys):
    key, other = keys[4], keygen(4, 99)
    rng = random.Random(17)
    iv = [rng.randrange(16) for _ in range(8)]
    blocks = [rng.randrange(16) for _ in range(50)]

    counting = CountingSponge(key.q, 16)
    want = encrypt(key, iv, blocks, PythonLoopSponge(key.q, 16))
    assert encrypt(key, iv, blocks, counting) == want
    assert decrypt(key, iv, want, counting) == blocks
    assert counting.calls == 2 * len(blocks)

    class CountingConstant(ConstantExpander):
        calls = 0

        def expand(self, seed):
            CountingConstant.calls += 1
            return super().expand(seed)

    constant = CountingConstant([rng.randrange(16) for _ in range(16)])
    want = encrypt(key, iv, blocks, ConstantExpander(constant.vector))
    assert encrypt(key, iv, blocks, constant) == want
    assert decrypt(key, iv, want, constant) == blocks
    assert CountingConstant.calls == 2 * len(blocks)

    # a sponge over another quasigroup, even an equal copy, is not the key's own
    for q in (other.q, type(key.q).from_square(key.q.mul)):
        foreign = QuasigroupSponge(q, 16)
        foreign_calls = []
        real = foreign.expand
        foreign.expand = lambda seed: foreign_calls.append(1) or real(seed)
        want = encrypt(key, iv, blocks, PythonLoopSponge(q, 16))
        assert encrypt(key, iv, blocks, foreign) == want
        assert decrypt(key, iv, want, foreign) == blocks
        assert len(foreign_calls) == 2 * len(blocks)


@pytest.mark.parametrize("k", [4, 8])
def test_cca2_seal_open_64k_matches_python_loop(keys, k):
    key = keys[k]
    data = random.Random(100 + k).randbytes(64 * 1024)
    iv = list(range(1, 9))
    frame = seal_bytes(key, data, iv=iv, scheme="cca2")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    want = encrypt(key, iv, pad(bits, k), PythonLoopSponge(key.q, 16))
    assert decode_frame(frame).payload == pack_bits(want, k)
    assert open_bytes(key, frame) == data


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_source_compiles_without_warnings(tmp_path):
    cmd = ["cc", *_ckernel.FLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c", "-o", str(tmp_path / "k.so"), "-"]
    built = subprocess.run(cmd, input=_ckernel.SOURCE.encode(), capture_output=True, timeout=120)
    assert built.returncode == 0, built.stderr.decode()


@pytest.fixture
def python_walk(monkeypatch):
    """Call it to switch ``random_latin_square`` to the Python walk for the rest of the test."""

    def use():
        monkeypatch.setattr(latin, "_kernel", lambda: None)

    return use


@compiled
def test_walk_keys_match_python_walk(python_walk):
    seeds = [(k, 1000 * k + s) for k in range(1, 9) for s in range(50)]
    compiled_keys = [key_fingerprint(keygen(k, s)) for k, s in seeds]
    python_walk()
    assert compiled_keys == [key_fingerprint(keygen(k, s)) for k, s in seeds]


@compiled
def test_walk_squares_match_python_walk(python_walk):
    cases = [(n, 31 * n + s) for n in [*range(1, 21), 31, 100, 300] for s in range(3)]
    compiled_squares = [latin.random_latin_square(n, s) for n, s in cases]
    compiled_rng = random.Random(77)
    compiled_squares.append(latin.random_latin_square(40, compiled_rng))
    python_walk()
    python_rng = random.Random(77)
    want = [latin.random_latin_square(n, s) for n, s in cases]
    want.append(latin.random_latin_square(40, python_rng))
    assert compiled_squares == want
    # a caller's Random object is advanced alike on both sides
    assert compiled_rng.getstate() == python_rng.getstate()


@compiled
def test_order_256_walk_is_one_kernel_call(python_walk, monkeypatch):
    calls, draws = [], []
    walk = _ckernel.Kernel.walk

    def counting_walk(self, *args):
        calls.append(args[6])
        return walk(self, *args)

    class CountingGenerator(np.random.Generator):
        def integers(self, low, high, size):
            draws.append((low, high, size))
            return super().integers(low, high, size=size)

    monkeypatch.setattr(_ckernel.Kernel, "walk", counting_walk)
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    square = latin.random_latin_square(256, 4)
    # one call, and Python draws only the cells and adds: the C walk draws its own bits
    assert calls == [latin._BUF]
    assert draws == [(0, 256, latin._BUF), (0, 255, latin._BUF)]
    python_walk()
    assert latin.random_latin_square(256, 4) == square


@pytest.mark.parametrize("seed", [0, 1, 77, 2408])
def test_bit_draws_are_top_bits_of_next_uint32(seed):
    """The C walk's bit rule: ``integers(0, 2)`` is the top bit of one ``next_uint32``."""
    gen, twin = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for g in (gen, twin):  # like the walk's cells and adds, odd sizes leave a half word
        g.integers(0, 256, size=8191)
        g.integers(0, 5, size=3)
    want = np.concatenate([gen.integers(0, 2, size=8192), gen.integers(0, 2, size=777)])
    bitgen = twin.bit_generator.ctypes
    assert [bitgen.next_uint32(bitgen.state) >> 31 for _ in range(want.size)] == want.tolist()
    assert gen.bit_generator.state == twin.bit_generator.state


def walk_arrays(n, ncells=8192, nadds=8192):
    L = (np.arange(n)[:, None] + np.arange(n)) % n
    col_of = np.argsort(L, axis=1)
    row_of = np.ascontiguousarray(np.argsort(L, axis=0).T)
    gen = np.random.default_rng(3)
    return L, col_of, row_of, 256, gen.integers(0, n, ncells), gen.integers(0, n - 1, nadds), 8192, gen


@compiled
@pytest.mark.parametrize("ncells, nadds", [(511, 8192), (8192, 255), (0, 0)])
def test_walk_refuses_to_read_past_cells_or_adds(ncells, nadds):
    with pytest.raises(RuntimeError, match="internal error"):
        transforms._kernel().walk(*walk_arrays(8, ncells, nadds))


@compiled
@pytest.mark.parametrize("which, bad", [(0, np.zeros((8, 8), dtype=np.int32)),
                                        (1, np.zeros((8, 7), dtype=np.int64)),
                                        (4, np.zeros((2, 8), dtype=np.int64)),
                                        (5, np.zeros(8192, dtype=np.float64))])
def test_walk_refuses_misshapen_arrays(which, bad):
    args = list(walk_arrays(8))
    args[which] = bad
    with pytest.raises(ValueError):
        transforms._kernel().walk(*args)


def test_python_fallback_walks_to_the_same_key(tmp_path):
    """With no compiler on PATH and an empty cache the Python walk runs, to the same key."""
    code = "from sebq import cipher, formats, transforms; " \
           "print(transforms.BACKEND, formats.key_fingerprint(cipher.keygen(8, 21)))"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PATH": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path / "cache"), "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert out == ["python", key_fingerprint(keygen(8, 21))]
