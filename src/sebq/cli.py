"""Command-line surface.

Subcommands: ``keygen``, ``encrypt``, ``decrypt``,
``analyze {stats|avalanche|opcount|secure-order}``, and
``attack {cpa-column|cca-recover}``.

Exit codes: 0 success, 1 bad parameter or usage, 2 unwritable/unreadable path,
3 corrupt frame magic, 4 malformed padding, 5 key/frame mismatch.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

# sebq.analysis imports scipy, some 0.3 s: only the analyze commands import it
from sebq import formats, games
from sebq.cipher import PaddingError, _check_k, keygen, pack_bits, unpack_bits
from sebq.latin import as_rng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_MAGIC = 3
EXIT_PADDING = 4
EXIT_KEY_MISMATCH = 5

# what an exception escaping a command exits with, and the prefix of its
# message; the first match decides, so subclasses come before their bases
_EXIT_CODES = (
    (formats.BadMagic, EXIT_MAGIC, ""),
    (formats.KeyMismatch, EXIT_KEY_MISMATCH, ""),
    (PaddingError, EXIT_PADDING, ""),
    (formats.FrameError, EXIT_MAGIC, "corrupt frame: "),
    (formats.KeyFileError, EXIT_IO, "bad key file: "),
    (ValueError, EXIT_USAGE, ""),
    (OSError, EXIT_IO, ""),
)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_keygen(args) -> int:
    key = keygen(args.k, args.seed)
    fingerprint = formats.save_key(args.out, key)
    print(f"order {key.order}")
    print(f"fingerprint {fingerprint}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_encrypt(args) -> int:
    key = formats.load_key(args.key)
    with open(args.infile, "rb") as fp:
        data = fp.read()
    iv = None
    if args.iv_hex is not None:
        raw = bytes.fromhex(args.iv_hex)
        # a bad --n is refused as a frame parameter, as without --iv-hex
        formats._check_header(key.k, args.n, None, ValueError)
        iv = unpack_bits(raw, key.k, args.n)
        if pack_bits(iv, key.k) != raw:
            return _fail(EXIT_USAGE, f"--iv-hex must hold exactly --n {args.n} symbols of {key.k} bits")
    frame = formats.seal_bytes(
        key, data, n=args.n, seed=args.seed, iv=iv, scheme=args.scheme, a=args.a
    )
    with open(args.out, "wb") as fp:
        fp.write(frame)
    print(f"wrote {args.out}: {len(data)} plaintext bytes, frame {len(frame)} bytes, scheme {args.scheme}")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    key = formats.load_key(args.key)
    with open(args.infile, "rb") as fp:
        blob = fp.read()
    data = formats.open_bytes(key, blob)
    with open(args.out, "wb") as fp:
        fp.write(data)
    print(f"wrote {args.out}: {len(data)} bytes")
    return EXIT_OK


def cmd_analyze_stats(args) -> int:
    from sebq import analysis

    if args.trials < 1:
        return _fail(EXIT_USAGE, "--trials must be positive")
    per_seq = analysis.ciphertext_suite_experiment(
        sequences=args.trials,
        k=args.k,
        leader_blocks=args.n,
        message_bits=args.bits,
        plaintext=args.plaintext,
        alpha=args.alpha,
        seed=args.seed,
    )
    agg = analysis.aggregate_pass_rates(per_seq)
    for name, slot in agg.items():
        print(f"{name:16s} success {slot['success_pct']:6.2f}%  median p {slot['median_p']:.4f}")
    passing = sum(1 for s in agg.values() if s["success_pct"] >= 95.0)
    print(f"{passing}/{len(agg)} sub-tests at >= 95% success (alpha={args.alpha})")
    if args.out:
        analysis.write_stats_csv(args.out, agg)
        print(f"wrote {args.out}")
    if args.json:
        payload = {
            name: {"success_pct": slot["success_pct"], "median_p": slot["median_p"]}
            for name, slot in agg.items()
        }
        analysis.write_json_summary(args.json, payload)
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_analyze_avalanche(args) -> int:
    from sebq import analysis

    # with no positions the experiment itself refuses the run and names the target
    if args.trials < 1 or (args.positions > 0 and args.trials % args.positions):
        return _fail(EXIT_USAGE, f"--trials {args.trials} must be a positive multiple of "
                     f"--positions {args.positions}")
    report = analysis.avalanche_experiment(
        args.target,
        k=args.k,
        leader_blocks=args.n,
        message_bits=args.bits,
        positions=range(args.positions),
        experiments=args.trials // max(1, args.positions),
        seed=args.seed,
    )
    print(report)
    if args.out:
        analysis.write_avalanche_csv(args.out, report)
        print(f"wrote {args.out}")
    if args.json:
        analysis.write_json_summary(
            args.json,
            {
                "target": report.target,
                "mean_pct": report.mean_pct,
                "min_pct": report.min_pct,
                "max_pct": report.max_pct,
                "flips": int(report.percents.size),
            },
        )
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_analyze_opcount(args) -> int:
    from sebq import analysis

    ops = analysis.operation_count(args.n, args.k, args.l)
    if args.n * args.l > analysis.MAX_COUNTED_LOOKUPS:
        return _fail(EXIT_USAGE, f"--n {args.n} times --l {args.l} is over the cap of "
                     f"{analysis.MAX_COUNTED_LOOKUPS} counted lookups")
    key = keygen(args.k, args.seed if args.seed is not None else 0)
    rng = as_rng(args.seed)
    iv = analysis._draw_below(rng, key.order, args.n).tolist()
    msg = analysis._draw_below(rng, key.order, args.l).tolist()
    lookups, xors = analysis.instrumented_counts(key, iv, msg)
    print(ops)
    print(f"per direction: {ops}; full round trip: {2 * ops}")
    print(f"instrumented: {lookups} table lookups (n*l), {xors} checksum xors ((n-1)*l)")
    print(analysis.OPCOUNT_DISCREPANCY_NOTE)
    return EXIT_OK


def cmd_analyze_secure_order(args) -> int:
    from sebq import analysis

    rep = analysis.secure_order_report(args.bits, args.ops)
    print(f"minimum secure order, exact-count policy: {rep['order_exact_policy']}")
    print(f"minimum secure order, lower-bound policy: {rep['order_lower_policy']}")
    print(f"published guidance for {args.bits}-bit target: {rep['published_guidance']}")
    print(rep["note"])
    if args.json:
        analysis.write_json_summary(args.json, rep)
        print(f"wrote {args.json}")
    return EXIT_OK


def _attack_order(k: int) -> int:
    _check_k(k)
    if k > 4:
        raise ValueError("attack demos are limited to order <= 16")
    return 1 << k


def cmd_attack_cpa_column(args) -> int:
    order = _attack_order(args.k)
    if not 0 <= args.message < order:
        return _fail(EXIT_USAGE, f"--message must be in 0..{order - 1}")
    rng = as_rng(args.seed)
    key = keygen(args.k, rng.randrange(2**63))
    scheme = games.Scheme(key, 1)
    session = games.OracleSession(scheme, rng, chosen_iv=True)
    column = games.cpa_column_recovery(session, args.message)
    truth = [int(key.q.mul.table[r, args.message]) for r in range(order)]
    print(f"recovered column for message {args.message}: {column}")
    print(f"queries: {session.q_e}")
    print(f"matches hidden key column: {'yes' if column == truth else 'NO'}")
    return EXIT_OK if column == truth else 1


def cmd_attack_cca_recover(args) -> int:
    order = _attack_order(args.k)
    if args.trials < 2:
        return _fail(EXIT_USAGE, "--trials must be at least 2")
    rng = as_rng(args.seed)
    factory = games.make_scheme_factory(args.scheme, args.k, 1, a=args.a)
    # the cap sebq encrypt applies, checked before a sponge builds its squeeze string
    cap = formats.MAX_LOOKUPS_PER_BLOCK
    if args.a is not None and formats.lookups_per_block(1, args.a) > cap:
        return _fail(EXIT_USAGE, f"--a {args.a} costs over the cap of {cap} lookups per block")

    scheme = factory(rng)
    session = games.OracleSession(scheme, rng, bit=rng.randrange(2), decryption=True)
    session.issue_challenge((0,), (1 % order,))
    recovery = games.cca_table_recovery(session)
    truth = scheme.key.q.mul.table
    cells = recovery.recovered_cells(truth)
    total = order * order
    print(
        f"recovered {cells}/{total} cells in {recovery.queries} decryption queries "
        f"({'completion ok' if recovery.completed is not None else 'completion failed'})"
    )
    exact = recovery.completed is not None and np.array_equal(recovery.completed, truth)
    print(f"exact table match: {'yes' if exact else 'no'}")

    result = games.run_ind_cca(
        games.TableRecoveryCcaStrategy, factory, args.trials, seed=rng.randrange(2**63),
        collect=args.transcript is not None,
    )
    print(result)
    if args.transcript:
        games.write_transcripts(args.transcript, result.records)
        print(f"wrote {args.transcript}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sebq`` parser, built once per process: each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sebq",
        description="Quasigroup block cipher toolkit: keygen, file encryption, "
        "attack demonstrations, and statistical analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a Latin-square key file")
    p.add_argument("--k", type=int, required=True, help="bits per symbol (1..8)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="key file path")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a file into a cipher frame")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=8, help="leader blocks (default 8)")
    p.add_argument("--a", type=int, default=None, help="expander output blocks (cca2)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scheme", choices=("plain", "cca2"), default="plain")
    p.add_argument("--iv-hex", default=None, help="override the random IV (test vectors)")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a cipher frame")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decrypt)

    pa = sub.add_parser("analyze", help="statistical analysis reports")
    suba = pa.add_subparsers(dest="analysis", required=True)

    p = suba.add_parser("stats", help="randomness battery over fresh ciphertexts")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, default=100, help="leader blocks (default 100)")
    p.add_argument("--bits", type=int, default=4000)
    p.add_argument("--trials", type=int, default=100, help="number of sequences")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--plaintext", choices=("random", "zeros", "ones"), default="random")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path")
    p.add_argument("--json", default=None, help="JSON summary path")
    p.set_defaults(func=cmd_analyze_stats)

    p = suba.add_parser("avalanche", help="bit-flip diffusion measurement")
    p.add_argument("--target", choices=("plaintext", "iv", "key"), required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--bits", type=int, default=4000)
    p.add_argument("--trials", type=int, default=100,
                   help="total flips, a positive multiple of --positions")
    p.add_argument("--positions", type=int, default=10, help="flip positions per experiment")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path")
    p.add_argument("--json", default=None, help="JSON summary path")
    p.set_defaults(func=cmd_analyze_avalanche)

    p = suba.add_parser("opcount", help="operation-count formula and instrumented check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_analyze_opcount)

    p = suba.add_parser("secure-order", help="minimum Latin-square order for a security target")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--ops", type=int, default=380, help="operations per decryption trial")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_analyze_secure_order)

    pk = sub.add_parser("attack", help="attack demonstrations against a fresh hidden key")
    subk = pk.add_subparsers(dest="attack", required=True)

    p = subk.add_parser("cpa-column", help="chosen-IV repeated-message column recovery")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_attack_cpa_column)

    p = subk.add_parser("cca-recover", help="decryption-oracle table recovery")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scheme", choices=("plain", "cca2"), default="plain")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--transcript", default=None, help="JSONL transcript path")
    p.set_defaults(func=cmd_attack_cca_recover)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        code, prefix = next((c, p) for cls, c, p in _EXIT_CODES if isinstance(exc, cls))
        return _fail(code, f"{prefix}{exc}")


if __name__ == "__main__":
    sys.exit(main())
