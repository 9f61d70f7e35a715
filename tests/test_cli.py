import json
import os
import subprocess
import sys

import pytest

from sebq.cipher import encrypt, pack_bits
from sebq.cli import build_parser, main
from sebq.formats import decode_frame, encode_frame, load_key


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKeygen:
    def test_writes_key_and_prints_fingerprint(self, capsys, tmp_path):
        path = tmp_path / "key.lsq"
        code, out, _ = run(capsys, "keygen", "--k", "4", "--seed", "7", "--out", str(path))
        assert code == 0
        assert "order 16" in out
        assert "fingerprint" in out
        key = load_key(path)
        assert key.k == 4

    def test_deterministic_files(self, capsys, tmp_path):
        a = tmp_path / "a.lsq"
        b = tmp_path / "b.lsq"
        run(capsys, "keygen", "--k", "4", "--seed", "7", "--out", str(a))
        run(capsys, "keygen", "--k", "4", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_k_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "keygen", "--k", "12", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "1..8" in err

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "keygen", "--k", "2", "--out", str(tmp_path / "no" / "dir" / "x.lsq")
        )
        assert code == 2


class TestCrypt:
    @pytest.fixture
    def key_path(self, capsys, tmp_path):
        path = tmp_path / "key.lsq"
        run(capsys, "keygen", "--k", "4", "--seed", "3", "--out", str(path))
        return path

    @pytest.mark.parametrize("scheme", ["plain", "cca2"])
    def test_round_trip(self, capsys, tmp_path, key_path, scheme):
        src = tmp_path / "msg.bin"
        src.write_bytes(os.urandom(3000))
        enc = tmp_path / "msg.sebq"
        dec = tmp_path / "msg.out"
        code, _, _ = run(
            capsys, "encrypt", "--key", str(key_path), "--in", str(src),
            "--out", str(enc), "--seed", "5", "--scheme", scheme, "--n", "4",
        )
        assert code == 0
        code, _, _ = run(capsys, "decrypt", "--key", str(key_path), "--in", str(enc), "--out", str(dec))
        assert code == 0
        assert dec.read_bytes() == src.read_bytes()

    def test_empty_file_round_trip(self, capsys, tmp_path, key_path):
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        enc = tmp_path / "empty.sebq"
        dec = tmp_path / "empty.out"
        run(capsys, "encrypt", "--key", str(key_path), "--in", str(src), "--out", str(enc), "--seed", "1")
        frame = decode_frame(enc.read_bytes())
        assert frame.bit_length == 0 and frame.payload_blocks == 1
        code, _, _ = run(capsys, "decrypt", "--key", str(key_path), "--in", str(enc), "--out", str(dec))
        assert code == 0 and dec.read_bytes() == b""

    def test_seeded_invocations_bit_reproducible(self, capsys, tmp_path, key_path):
        src = tmp_path / "m.bin"
        src.write_bytes(b"reproducible payload")
        e1 = tmp_path / "m1.sebq"
        e2 = tmp_path / "m2.sebq"
        for out in (e1, e2):
            run(capsys, "encrypt", "--key", str(key_path), "--in", str(src), "--out", str(out), "--seed", "9")
        assert e1.read_bytes() == e2.read_bytes()

    def test_corrupt_magic_exits_3(self, capsys, tmp_path, key_path):
        src = tmp_path / "m.bin"
        src.write_bytes(b"data")
        enc = tmp_path / "m.sebq"
        run(capsys, "encrypt", "--key", str(key_path), "--in", str(src), "--out", str(enc), "--seed", "2")
        blob = bytearray(enc.read_bytes())
        blob[0] ^= 0xFF
        enc.write_bytes(bytes(blob))
        code, _, _ = run(capsys, "decrypt", "--key", str(key_path), "--in", str(enc), "--out", str(tmp_path / "o"))
        assert code == 3

    def test_malformed_padding_exits_4(self, capsys, tmp_path, key_path):
        # payload decrypting to all-zero bits cannot carry valid padding
        key = load_key(key_path)
        iv = [1, 2]
        ct = encrypt(key, iv, [0, 0, 0])
        blob = encode_frame(key, tuple(iv), 11, pack_bits(ct, key.k))
        bad = tmp_path / "bad.sebq"
        bad.write_bytes(blob)
        code, _, _ = run(capsys, "decrypt", "--key", str(key_path), "--in", str(bad), "--out", str(tmp_path / "o"))
        assert code == 4

    def test_key_mismatch_exits_5(self, capsys, tmp_path, key_path):
        other = tmp_path / "k2.lsq"
        run(capsys, "keygen", "--k", "2", "--seed", "1", "--out", str(other))
        src = tmp_path / "m.bin"
        src.write_bytes(b"data")
        enc = tmp_path / "m.sebq"
        run(capsys, "encrypt", "--key", str(key_path), "--in", str(src), "--out", str(enc), "--seed", "2")
        code, _, _ = run(capsys, "decrypt", "--key", str(other), "--in", str(enc), "--out", str(tmp_path / "o"))
        assert code == 5

    def test_wrong_key_fails_padding_or_garbles(self, capsys, tmp_path, key_path):
        other = tmp_path / "other.lsq"
        run(capsys, "keygen", "--k", "4", "--seed", "999", "--out", str(other))
        src = tmp_path / "m.bin"
        src.write_bytes(os.urandom(64))
        enc = tmp_path / "m.sebq"
        dec = tmp_path / "m.out"
        run(capsys, "encrypt", "--key", str(key_path), "--in", str(src), "--out", str(enc), "--seed", "2")
        code, _, _ = run(capsys, "decrypt", "--key", str(other), "--in", str(enc), "--out", str(dec))
        assert code in (0, 4)
        if code == 0:
            assert dec.read_bytes() != src.read_bytes()

    def test_explicit_iv_override(self, capsys, tmp_path, key_path):
        src = tmp_path / "m.bin"
        src.write_bytes(b"vector")
        enc = tmp_path / "m.sebq"
        code, _, _ = run(
            capsys, "encrypt", "--key", str(key_path), "--in", str(src),
            "--out", str(enc), "--n", "4", "--iv-hex", "abcd",
        )
        assert code == 0
        assert decode_frame(enc.read_bytes()).iv == (0xA, 0xB, 0xC, 0xD)

    @pytest.mark.parametrize(
        "extra",
        [["--n", "0"], ["--n", "70000"], ["--iv-hex", "zz"], ["--scheme", "cca2", "--a", "1"],
         # an --iv-hex that is not exactly --n symbols: too short, a digit over, a byte over
         ["--n", "4", "--iv-hex", "ab"], ["--n", "3", "--iv-hex", "abcd"], ["--n", "4", "--iv-hex", "abcdef"]],
    )
    def test_bad_parameter_exits_1(self, capsys, tmp_path, key_path, extra):
        src = tmp_path / "m.bin"
        src.write_bytes(b"data")
        code, _, err = run(
            capsys, "encrypt", "--key", str(key_path), "--in", str(src),
            "--out", str(tmp_path / "m.sebq"), "--seed", "1", *extra,
        )
        assert code == 1
        assert err.startswith("error:")
        assert not (tmp_path / "m.sebq").exists()

    def test_negative_n_named_as_given(self, capsys, tmp_path, key_path):
        src = tmp_path / "m.bin"
        src.write_bytes(b"data")
        code, _, err = run(
            capsys, "encrypt", "--key", str(key_path), "--in", str(src),
            "--out", str(tmp_path / "m.sebq"), "--n", "-1",
        )
        assert code == 1
        assert "n=-1" in err

    def test_negative_n_named_with_iv_hex(self, capsys, tmp_path, key_path):
        src = tmp_path / "m.bin"
        src.write_bytes(b"data")
        code, _, err = run(
            capsys, "encrypt", "--key", str(key_path), "--in", str(src),
            "--out", str(tmp_path / "m.sebq"), "--n", "-1", "--iv-hex", "ab",
        )
        assert code == 1
        assert "n=-1" in err
        assert not (tmp_path / "m.sebq").exists()

    @pytest.mark.parametrize("a", [0, 1])
    def test_v2_expander_length_below_two_exits_3(self, capsys, tmp_path, key_path, a):
        src = tmp_path / "m.bin"
        src.write_bytes(b"data")
        enc = tmp_path / "m.sebq"
        run(capsys, "encrypt", "--key", str(key_path), "--in", str(src), "--out", str(enc),
            "--seed", "2", "--scheme", "cca2")
        blob = bytearray(enc.read_bytes())
        blob[8:10] = a.to_bytes(2, "big")  # the v2 header's expander length
        enc.write_bytes(bytes(blob))
        code, _, err = run(capsys, "decrypt", "--key", str(key_path), "--in", str(enc), "--out", str(tmp_path / "o"))
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.slow
    def test_megabyte_round_trip(self, capsys, tmp_path):
        key_path = tmp_path / "key8.lsq"
        run(capsys, "keygen", "--k", "8", "--seed", "4", "--out", str(key_path))
        src = tmp_path / "big.bin"
        src.write_bytes(os.urandom(1 << 20))
        enc = tmp_path / "big.sebq"
        dec = tmp_path / "big.out"
        code, _, _ = run(
            capsys, "encrypt", "--key", str(key_path), "--in", str(src),
            "--out", str(enc), "--seed", "6", "--n", "2",
        )
        assert code == 0
        code, _, _ = run(capsys, "decrypt", "--key", str(key_path), "--in", str(enc), "--out", str(dec))
        assert code == 0
        assert dec.read_bytes() == src.read_bytes()


class TestAnalyze:
    def test_cli_import_leaves_scipy_out(self):
        # scipy is only for `analyze stats`; encrypt and decrypt should not pay its import
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, sebq.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_opcount_prints_value_and_note(self, capsys):
        code, out, _ = run(capsys, "analyze", "opcount", "--n", "4", "--k", "4", "--l", "16")
        assert code == 0
        assert out.splitlines()[0] == "124"
        assert "70" in out  # the flagged worked-example discrepancy
        assert "64 table lookups" in out

    def test_opcount_rejects_zero_length(self, capsys):
        code, _, _ = run(capsys, "analyze", "opcount", "--n", "4", "--k", "4", "--l", "0")
        assert code == 1

    def test_secure_order_reports_policies(self, capsys, tmp_path):
        out_json = tmp_path / "so.json"
        code, out, _ = run(capsys, "analyze", "secure-order", "--bits", "128", "--json", str(out_json))
        assert code == 0
        assert "exact-count policy: 10" in out
        assert "lower-bound policy: 11" in out
        assert "order > 11" in out
        assert json.loads(out_json.read_text())["order_exact_policy"] == 10

    def test_stats_smoke(self, capsys, tmp_path):
        out_csv = tmp_path / "stats.csv"
        code, out, _ = run(
            capsys, "analyze", "stats", "--k", "2", "--n", "4", "--bits", "400",
            "--trials", "3", "--seed", "1", "--out", str(out_csv),
        )
        assert code == 0
        assert out_csv.exists()
        assert "sub-tests" in out

    def test_stats_rejects_bad_trials(self, capsys):
        code, _, _ = run(capsys, "analyze", "stats", "--trials", "0")
        assert code == 1

    @pytest.mark.parametrize("alpha", ["2", "0", "nan"])
    def test_stats_rejects_alpha_outside_unit_interval(self, capsys, alpha):
        code, out, err = run(
            capsys, "analyze", "stats", "--k", "2", "--n", "4", "--bits", "400",
            "--trials", "1", "--seed", "1", "--alpha", alpha,
        )
        assert code == 1
        assert "alpha" in err
        assert "sub-tests" not in out

    def test_opcount_failure_prints_nothing(self, capsys):
        code, out, err = run(capsys, "analyze", "opcount", "--n", "2", "--k", "9", "--l", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["analyze", "avalanche", "--target", "iv", "--positions", "0", "--bits", "400"], "iv"),
            (["analyze", "secure-order", "--bits", "128", "--ops", "0"], "ops_per_trial"),
        ],
    )
    def test_bad_analysis_parameter_named(self, capsys, argv, name):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and name in err

    def test_avalanche_smoke(self, capsys, tmp_path):
        out_csv = tmp_path / "aval.csv"
        code, out, _ = run(
            capsys, "analyze", "avalanche", "--target", "plaintext", "--k", "4",
            "--n", "8", "--bits", "400", "--trials", "10", "--positions", "5",
            "--seed", "2", "--out", str(out_csv),
        )
        assert code == 0
        assert "avalanche[plaintext]" in out
        assert out_csv.exists()


class TestAttack:
    def test_cpa_column(self, capsys):
        code, out, _ = run(capsys, "attack", "cpa-column", "--k", "2", "--message", "3", "--seed", "5")
        assert code == 0
        assert "recovered column for message 3" in out
        assert "queries: 4" in out
        assert "matches hidden key column: yes" in out

    def test_cpa_column_bad_message(self, capsys):
        code, _, _ = run(capsys, "attack", "cpa-column", "--k", "2", "--message", "9")
        assert code == 1

    def test_cca_recover_plain(self, capsys, tmp_path):
        transcript = tmp_path / "t.jsonl"
        code, out, _ = run(
            capsys, "attack", "cca-recover", "--k", "2", "--trials", "30",
            "--seed", "5", "--transcript", str(transcript),
        )
        assert code == 0
        assert "recovered 16/16 cells" in out
        assert "exact table match: yes" in out
        assert "advantage +1.000" in out
        lines = transcript.read_text().splitlines()
        assert len(lines) == 30

    def test_cca_recover_hardened(self, capsys):
        code, out, _ = run(
            capsys, "attack", "cca-recover", "--k", "2", "--scheme", "cca2",
            "--trials", "40", "--seed", "5",
        )
        assert code == 0
        assert "exact table match: no" in out

    def test_oversized_order_rejected(self, capsys):
        code, _, _ = run(capsys, "attack", "cca-recover", "--k", "8", "--trials", "10")
        assert code == 1


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["keygen", "--k", "abc", "--out", "x.lsq"],
            ["encrypt", "--in", "m.bin", "--out", "m.sebq"],  # no --key
            ["frobnicate"],
            [],
        ],
    )
    def test_argparse_error_exits_1(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "usage:" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage:" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "stats", "--k", "9"],
            ["analyze", "opcount", "--n", "2", "--k", "9", "--l", "2"],
            ["attack", "cpa-column", "--k", "0", "--message", "0"],
        ],
    )
    def test_bad_k_exits_1_with_library_message(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: k must be in 1..8")


class TestReportPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "stats", "--k", "2", "--n", "4", "--bits", "400", "--trials", "1", "--seed", "1", "--out"],
            ["analyze", "avalanche", "--target", "plaintext", "--k", "2", "--n", "4", "--bits", "400",
             "--trials", "2", "--positions", "2", "--seed", "1", "--out"],
            ["analyze", "secure-order", "--bits", "128", "--json"],
            ["attack", "cca-recover", "--k", "2", "--trials", "2", "--seed", "1", "--transcript"],
        ],
    )
    def test_unwritable_report_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "report.out"
        code, _, err = run(capsys, *argv, str(path))
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and str(path) in err


class TestSchemeAndKeyInput:
    @pytest.fixture
    def msg_path(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"data")
        return path

    def test_non_ascii_key_file_exits_2(self, capsys, tmp_path, msg_path):
        key_path = tmp_path / "key.lsq"
        key_path.write_bytes(b"\xffSEBQ-LSQ v1\n2\n0 1\n1 0\n")
        code, _, err = run(
            capsys, "encrypt", "--key", str(key_path), "--in", str(msg_path),
            "--out", str(tmp_path / "m.sebq"),
        )
        assert code == 2
        assert err.startswith("error: bad key file:")
        assert len(err.splitlines()) == 1

    def test_encrypt_plain_with_a_exits_1(self, capsys, tmp_path, msg_path):
        key_path = tmp_path / "key.lsq"
        run(capsys, "keygen", "--k", "2", "--seed", "3", "--out", str(key_path))
        code, _, err = run(
            capsys, "encrypt", "--key", str(key_path), "--in", str(msg_path),
            "--out", str(tmp_path / "m.sebq"), "--scheme", "plain", "--a", "5",
        )
        assert code == 1
        assert err.startswith("error:") and "a=5" in err
        assert not (tmp_path / "m.sebq").exists()

    def test_cca_recover_plain_with_a_exits_1(self, capsys):
        code, out, err = run(
            capsys, "attack", "cca-recover", "--k", "2", "--scheme", "plain", "--a", "5",
            "--trials", "2", "--seed", "1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "a=5" in err

    def test_cca_recover_a_over_cap_exits_1(self, capsys):
        # a=2048 is the first a whose cca2 block at n=1 costs over 4096 lookups;
        # refused before any squeeze string is built
        code, out, err = run(
            capsys, "attack", "cca-recover", "--k", "2", "--scheme", "cca2", "--a", "2048",
            "--trials", "2", "--seed", "1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --a 2048") and len(err.splitlines()) == 1

    def test_key_avalanche_without_swaps_exits_1(self, capsys):
        code, out, err = run(
            capsys, "analyze", "avalanche", "--target", "key", "--positions", "0",
            "--trials", "5", "--k", "2", "--n", "4", "--bits", "40",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: key avalanche")


class TestAvalancheTrials:
    @pytest.mark.parametrize("trials, positions", [("5", "10"), ("25", "10"), ("0", "10")])
    def test_trials_not_a_multiple_of_positions_exits_1(self, capsys, trials, positions):
        code, out, err = run(
            capsys, "analyze", "avalanche", "--target", "plaintext", "--trials", trials,
            "--positions", positions, "--k", "2", "--n", "4", "--bits", "40",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--trials" in err and "--positions" in err

    def test_reports_exactly_trials_flips(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "avalanche", "--target", "plaintext", "--trials", "20",
            "--k", "2", "--n", "4", "--bits", "40", "--seed", "1",
        )
        assert code == 0
        assert "over 20 flips" in out


class TestParserReuse:
    """One process runs many ``main`` calls on the one cached parser."""

    def calls(self, tmp_path):
        key, msg = str(tmp_path / "key.lsq"), tmp_path / "msg.bin"
        msg.write_bytes(bytes(range(256)) * 3)
        crypt = ("--key", key, "--in", str(msg), "--out")
        return [
            ("keygen", "--k", "4", "--seed", "9", "--out", key),
            ("encrypt", *crypt, str(tmp_path / "a.sebq"), "--seed", "5", "--scheme", "cca2",
             "--a", "6", "--n", "3"),
            ("encrypt", *crypt, str(tmp_path / "b.sebq")),
            ("decrypt", "--key", key, "--in", str(tmp_path / "a.sebq"), "--out", str(tmp_path / "a.out")),
            ("encrypt", "--key", key, "--bogus"),
            ("--help",),
            ("encrypt", *crypt, str(tmp_path / "c.sebq"), "--seed", "5"),
        ]

    def run_all(self, capsys, tmp_path, fresh):
        results = []
        for argv in self.calls(tmp_path):
            if fresh:
                build_parser.cache_clear()
            results.append(run(capsys, *argv))
        files = {name: (tmp_path / name).read_bytes() for name in ("key.lsq", "a.sebq", "a.out", "c.sebq")}
        return results, files, decode_frame((tmp_path / "b.sebq").read_bytes())

    def test_cached_parser_runs_like_fresh_ones(self, capsys, tmp_path):
        fresh = self.run_all(capsys, tmp_path, fresh=True)
        assert build_parser() is build_parser()
        cached = self.run_all(capsys, tmp_path, fresh=False)
        assert cached[:2] == fresh[:2]
        assert [code for code, _, _ in cached[0]] == [0, 0, 0, 0, 1, 0, 0]
        assert cached[1]["a.out"] == bytes(range(256)) * 3

    def test_no_argument_leaks_into_the_next_call(self, capsys, tmp_path):
        self.run_all(capsys, tmp_path, fresh=False)
        unseeded = decode_frame((tmp_path / "b.sebq").read_bytes())
        seeded = decode_frame((tmp_path / "c.sebq").read_bytes())
        # neither the cca2 call's --scheme, --a and --n nor its --seed carried over
        for frame in (unseeded, seeded):
            assert (frame.version, frame.n, frame.a) == (1, 8, None)
        assert unseeded.iv != seeded.iv
        parser = build_parser()
        parser.parse_args(["encrypt", "--key", "k", "--in", "i", "--out", "o", "--seed", "5", "--a", "6"])
        args = parser.parse_args(["encrypt", "--key", "k", "--in", "i", "--out", "o"])
        assert (args.seed, args.a, args.scheme, args.n, args.iv_hex) == (None, None, "plain", 8, None)
