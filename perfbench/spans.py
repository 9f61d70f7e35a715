"""Span tracing of sebq's public functions, installed from the benchmark.

Each traced function is replaced at the module attribute where sebq looks
it up (``sebq.formats.encrypt``, ``sebq.feistel.fold_apply``,
``sebq.transforms.fold_apply``, ...). A call records one span: name, start,
end and the span that was open when it began. Spans stay in memory in flat
arrays; :meth:`Tracer.per_layer` turns them into the per-layer metrics and
:meth:`Tracer.save` writes them out. Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import tracemalloc
from array import array
from time import perf_counter_ns

import numpy as np

REJECT = ".reject"


def _k_of_order(order: int) -> int:
    return order.bit_length() - 1


# (module, attribute, span name, label, work, peak)
#   label(args, result) -> suffix of the span name, or None
#   work(args, kwargs) -> units of work added to the span name's counter
#   peak: measure the tracemalloc peak inside the call
def _targets():
    def lookups(a, kw):
        return len(a[1]) * len(a[2])

    def seq_len_bytes(a, kw):
        return len(a[0]) * a[1] / 8

    plumbing = {
        "pad": lambda a, kw: len(a[0]) / 8,
        "pack_bits": seq_len_bytes,
        "unpack_bits": lambda a, kw: a[2] * a[1] / 8,
        "unpad": seq_len_bytes,
    }
    order_label = lambda a, r: f".k{_k_of_order(len(a[0]))}"  # noqa: E731
    out = [
        ("sebq.cli", "main", "cli.main", None, None, False),
        ("sebq.formats", "load_key", "formats.load_key", lambda a, r: f".k{r.k}", None, False),
        ("sebq.formats", "seal_bytes", "formats.seal_bytes", None, None, False),
        ("sebq.formats", "open_bytes", "formats.open_bytes", None, None, False),
        ("sebq.formats", "encode_frame", "formats.encode_frame", None, None, False),
        ("sebq.formats", "decode_frame", "formats.decode_frame", None, None, False),
        ("sebq.formats", "encrypt", "cipher.encrypt", None, lookups, False),
        ("sebq.formats", "decrypt", "cipher.decrypt", None, lookups, False),
        ("sebq.formats", "validate_latin_square", "latin.validate_latin_square", order_label, None, False),
        ("sebq.cipher", "random_latin_square", "latin.random_latin_square",
         lambda a, r: f".k{_k_of_order(a[0])}", None, False),
        ("sebq.latin", "validate_latin_square", "latin.validate_latin_square", order_label, None, False),
        ("sebq.latin", "Quasigroup.from_square", "latin.Quasigroup.from_square",
         lambda a, r: f".k{_k_of_order(a[1].order)}", None, False),
        ("sebq.feistel", "encrypt_cca2", "feistel.encrypt_cca2", None, lambda a, kw: len(a[2]), False),
        ("sebq.feistel", "decrypt_cca2", "feistel.decrypt_cca2", None, lambda a, kw: len(a[2]), False),
        ("sebq.feistel", "QuasigroupSponge.expand", "feistel.QuasigroupSponge.expand", None, None, False),
        ("sebq.analysis", "ciphertext_suite_experiment", "analysis.ciphertext_suite_experiment",
         None, lambda a, kw: kw["sequences"], False),
        ("sebq.analysis", "encrypt", "cipher.encrypt", None, lookups, False),
        ("sebq.analysis", "encrypt_bit_sequence", "analysis.encrypt_bit_sequence", None, None, False),
        ("sebq.analysis", "randomness_suite", "analysis.randomness_suite", None, None, False),
        ("sebq.games", "run_ind_cca", "games.run_ind_cca", None, lambda a, kw: a[2], False),
        ("sebq.games", "encrypt", "cipher.encrypt", None, lookups, False),
        ("sebq.games", "decrypt", "cipher.decrypt", None, lookups, False),
        ("sebq.games", "OracleSession.decrypt_query", "games.OracleSession.decrypt_query", None, None, False),
        ("sebq.games", "cca_table_recovery", "games.cca_table_recovery", None, None, False),
        ("sebq.games", "complete_latin_square", "games.complete_latin_square", None, None, False),
    ]
    out += [("sebq.formats", f, f"cipher.{f}", None, w, True) for f, w in plumbing.items()]
    # the cca2 expander reaches the folds both through feistel and through
    # transforms.e_transform, so both modules' attributes are wrapped
    for fn in ("e_transform", "fold_apply", "fold_reverse", "leader_update_enc", "leader_update_dec"):
        out.append(("sebq.feistel", fn, f"transforms.{fn}", None, None, False))
    for fn in ("fold_apply", "leader_update_enc"):
        out.append(("sebq.transforms", fn, f"transforms.{fn}", None, None, False))
    return out


class Tracer:
    """Spans kept in flat arrays; one tracer per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work: dict[str, float] = {}
        self.peak: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, label=None, work=None, peak=False):
        stack = self._stack
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        base_id = self._id(name)
        reject_id = self._id(name + REJECT)

        def span(*args, **kwargs):
            # the common case, kept short: tracing cost lands in the parent's self time
            idx = len(starts)
            names.append(base_id)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                names[idx] = reject_id
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        if label is None and work is None and not peak:
            return span

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(base_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            if peak:
                tracemalloc.start()
            ok = False
            starts[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
                if not ok:
                    names[idx] = reject_id
            full = name
            if label is not None:
                full = name + label(args, result)
                names[idx] = self._id(full)
            if work is not None:
                self.work[full] = self.work.get(full, 0) + work(args, kwargs)
            if peak:
                used = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak[full] = max(self.peak.get(full, 0), used)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, label, work, peak in _targets():
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, label, work, peak))
            else:
                new = self.wrap(raw, name, label, work, peak)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _arrays(self):
        nid = np.frombuffer(self.name, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return nid, start, end, parent

    def save(self, path) -> None:
        nid, start, end, parent = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=nid, start=start, end=end, parent=parent
        )

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics (see README.md for the definitions)."""
        nid, start, end, parent = self._arrays()
        dur = (end - start).astype(np.float64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        own = dur - child[: dur.size]

        def sel(name):
            return nid == self._ids.get(name, -1)

        def missing(name):
            print(f"trace: no spans named {name}", file=sys.stderr)
            return 0.0

        def mean(name, scale, of=dur):
            m = sel(name)
            return float(of[m].mean()) / scale if m.any() else missing(name)

        def total(name, of=dur):
            return float(of[sel(name)].sum())

        def per(name, units, scale, of=dur):
            return total(name, of) / scale / units if units else missing(name)

        def rate(name, unit_scale):
            t = total(name)
            return self.work.get(name, 0) / unit_scale / (t / 1e9) if t else missing(name)

        # each transforms call belongs to the cca2 seal or open that encloses it
        direction = np.full(dur.size, -1, dtype=np.int64)
        for d, fn in enumerate(("feistel.encrypt_cca2", "feistel.decrypt_cca2")):
            outer = np.nonzero(sel(fn))[0]
            if outer.size:
                pos = np.searchsorted(start[outer], start, side="right") - 1
                cand = outer[np.maximum(pos, 0)]
                inside = (pos >= 0) & (end <= end[cand]) & (np.arange(dur.size) > cand)
                direction[inside] = d
        enc_blocks = self.work.get("feistel.encrypt_cca2", 0)
        dec_blocks = self.work.get("feistel.decrypt_cca2", 0)
        blocks = (enc_blocks, dec_blocks)

        def calls_per_block(name, d):
            return float(np.count_nonzero(sel(name) & (direction == d))) / blocks[d] if blocks[d] else missing(name)

        transforms_self = sum(total(n, own) for n in self.names if n.startswith("transforms."))
        trials = self.work.get("games.run_ind_cca", 0)
        sequences = self.work.get("analysis.ciphertext_suite_experiment", 0)
        decrypt_calls = dur[sel("cipher.decrypt")]
        m = {
            "latin.random_latin_square.k4_ms": mean("latin.random_latin_square.k4", 1e6),
            "latin.random_latin_square.k8_ms": mean("latin.random_latin_square.k8", 1e6),
            "latin.Quasigroup.from_square.k8_ms": mean("latin.Quasigroup.from_square.k8", 1e6),
            "latin.validate_latin_square.k8_ms": mean("latin.validate_latin_square.k8", 1e6),
            "cipher.encrypt.Mlookups_per_s": rate("cipher.encrypt", 1e6),
            "cipher.decrypt.Mlookups_per_s": rate("cipher.decrypt", 1e6),
            "cipher.decrypt.us_per_call": (
                statistics.median(decrypt_calls.tolist()) / 1e3 if decrypt_calls.size else missing("cipher.decrypt")
            ),
        }
        for fn in ("pad", "pack_bits", "unpack_bits", "unpad"):
            m[f"cipher.{fn}.MBps"] = rate(f"cipher.{fn}", 1e6)
            m[f"cipher.{fn}.peak_MB"] = self.peak.get(f"cipher.{fn}", 0) / 1e6
        m.update({
            "transforms.e_transform.calls_per_block": calls_per_block("transforms.e_transform", 0),
            "transforms.fold_apply.calls_per_block": calls_per_block("transforms.fold_apply", 0),
            "transforms.leader_update_enc.calls_per_block": calls_per_block("transforms.leader_update_enc", 0),
            "transforms.fold_reverse.calls_per_block": calls_per_block("transforms.fold_reverse", 1),
            "transforms.leader_update_dec.calls_per_block": calls_per_block("transforms.leader_update_dec", 1),
            "transforms.self_us_per_block": (
                transforms_self / 1e3 / (enc_blocks + dec_blocks) if enc_blocks + dec_blocks else missing("transforms")
            ),
            "feistel.QuasigroupSponge.expand.us_per_call": mean("feistel.QuasigroupSponge.expand", 1e3),
            "feistel.QuasigroupSponge.expand.calls_per_block": (
                float(np.count_nonzero(sel("feistel.QuasigroupSponge.expand") & (direction >= 0)))
                / (enc_blocks + dec_blocks) if enc_blocks + dec_blocks else missing("feistel.QuasigroupSponge.expand")
            ),
            "feistel.encrypt_cca2.blocks_per_s": rate("feistel.encrypt_cca2", 1),
            "feistel.decrypt_cca2.blocks_per_s": rate("feistel.decrypt_cca2", 1),
            "feistel.encrypt_cca2.self_us_per_block": per("feistel.encrypt_cca2", enc_blocks, 1e3, own),
            "formats.load_key.k8_ms": mean("formats.load_key.k8", 1e6),
            "formats.seal_bytes.self_ms": mean("formats.seal_bytes", 1e6, own),
            "formats.open_bytes.self_ms": mean("formats.open_bytes", 1e6, own),
            "formats.encode_frame.us": mean("formats.encode_frame", 1e3),
            "formats.decode_frame.us": mean("formats.decode_frame", 1e3),
            "formats.decode_frame.reject_us": mean("formats.decode_frame" + REJECT, 1e3),
            "cli.main.self_ms": mean("cli.main", 1e6, own),
            "analysis.encrypt_bit_sequence.ms_per_seq": mean("analysis.encrypt_bit_sequence", 1e6),
            "analysis.randomness_suite.ms_per_seq": mean("analysis.randomness_suite", 1e6),
            "analysis.ciphertext_suite_experiment.self_ms_per_seq": per(
                "analysis.ciphertext_suite_experiment", sequences, 1e6, own
            ),
            "games.OracleSession.decrypt_query.us": mean("games.OracleSession.decrypt_query", 1e3),
            "games.OracleSession.decrypt_query.calls_per_trial": (
                float(np.count_nonzero(sel("games.OracleSession.decrypt_query"))) / trials
                if trials else missing("games.run_ind_cca")
            ),
            "games.cca_table_recovery.ms": mean("games.cca_table_recovery", 1e6),
            "games.complete_latin_square.ms": mean("games.complete_latin_square", 1e6),
            "games.run_ind_cca.self_ms_per_trial": per("games.run_ind_cca", trials, 1e6, own),
        })
        return m
