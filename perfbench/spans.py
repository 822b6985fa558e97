"""Span recorder for the traced run.

The recorder wraps the public functions of each mersexp module at the
names the callers look them up by: the module's own global (so
``verify_congruence`` reaches the wrapped ``carry.solve_carries``) and
every name another module imported (``closed_form.solve_carries``,
``cli.kasami_inverse``, ...).  Each call becomes one span holding its
name, start, end, parent span and operation id.  Spans stay in memory
in flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict


def _label(args, result):
    return result.case_label


def _ring_n(args, result):
    return args[1].n


def _field(args, result):
    ctx = args[1]
    return (ctx.n, ctx.reduction_polynomial)


# (module, attribute, span name, note taken from (args, result))
TARGETS = (
    ("closed_form", "gold_inverse", "closed_form.gold_inverse", _label),
    ("closed_form", "kasami_inverse", "closed_form.kasami_inverse", _label),
    ("closed_form", "bl_inverse", "closed_form.bl_inverse", _label),
    ("cli", "gold_inverse", "closed_form.gold_inverse", _label),
    ("cli", "kasami_inverse", "closed_form.kasami_inverse", _label),
    ("cli", "bl_inverse", "closed_form.bl_inverse", _label),
    ("residues", "to_bits", "residues.to_bits", None),
    ("closed_form", "to_bits", "residues.to_bits", None),
    ("cli", "to_bits", "residues.to_bits", None),
    ("closed_form", "family_exponent", "residues.family_exponent", None),
    ("closed_form", "mul_mod", "residues.mul_mod", None),
    ("closed_form", "ext_euclid_inverse", "residues.ext_euclid_inverse", None),
    ("cli", "ext_euclid_inverse", "residues.ext_euclid_inverse", None),
    ("carry", "solve_carries", "carry.solve_carries", _ring_n),
    ("closed_form", "solve_carries", "carry.solve_carries", _ring_n),
    ("cli", "solve_carries", "carry.solve_carries", _ring_n),
    ("carry", "verify_congruence", "carry.verify_congruence", None),
    ("closed_form", "to_r_matrix", "orderings.to_r_matrix", None),
    ("closed_form", "matrix_of_sequence", "orderings.matrix_of_sequence", None),
    ("cli", "matrix_of_sequence", "orderings.matrix_of_sequence", None),
    ("sbox", "power_map", "sbox.power_map", _field),
    ("sbox", "differential_uniformity", "sbox.differential_uniformity", None),
    ("cli", "differential_uniformity", "sbox.differential_uniformity", None),
    ("sbox", "verify_compositional_inverse", "sbox.verify_compositional_inverse", None),
)

CONSTRUCTORS = ("closed_form.gold_inverse", "closed_form.kasami_inverse", "closed_form.bl_inverse")
SETUP_OP = -1


class SpanRecorder:
    """In-memory spans: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.notes: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, span_name: str, fn, note=None):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                self.errors[idx] = type(exc).__name__
                raise
            else:
                self.end[idx] = clock()
                if note is not None:
                    self.notes[idx] = note(args, result)
                return result
            finally:
                stack.pop()

        return traced

    def install(self, api) -> None:
        """Wrap every target whose module is loaded; uninstall() undoes it."""
        for module_name, attr, span_name, note in TARGETS:
            module = getattr(api, module_name, None)
            if module is None:
                continue
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, note))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\top\terror\tnote\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op[i]}\t{self.errors.get(i, '')}\t"
                    f"{self.notes.get(i, '')}\n"
                )

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures over the spans of the traced rounds.

        Times and counts are per round of the workload.  Self time is a
        span's duration minus the durations of its direct children
        (calls are sequential, so children never overlap).  The first
        power_map on each field is a table build wherever it happened,
        set-up included; later ones are warm.
        """
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total = defaultdict(int)
        own = defaultdict(int)
        calls = defaultdict(int)
        solve_bits = refute_ns = build_ns = warm_ns = 0
        labels = set()
        fields_seen = set()
        for i in range(count):
            name = self.names[self.name[i]]
            if name == "sbox.power_map":
                key = self.notes.get(i)
                if key not in fields_seen:
                    fields_seen.add(key)
                    build_ns += dur[i]
                    continue
                if self.op[i] != SETUP_OP:
                    warm_ns += dur[i]
            if self.op[i] == SETUP_OP:
                continue
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
            if name == "carry.solve_carries":
                solve_bits += self.notes.get(i, 0)
                if self.errors.get(i) == "CongruenceError":
                    refute_ns += dur[i]
            elif name in CONSTRUCTORS and i in self.notes:
                labels.add(self.notes[i])

        def ms(ns: float) -> float:
            return ns / 1e6 / rounds

        solve_ns = total["carry.solve_carries"]
        return {
            "closed_form.self_ms": ms(sum(own[c] for c in CONSTRUCTORS)),
            "closed_form.calls": sum(calls[c] for c in CONSTRUCTORS) / rounds,
            "closed_form.case_labels": len(labels),
            "residues.to_bits_ms": ms(total["residues.to_bits"]),
            "residues.ring_check_ms": ms(total["residues.family_exponent"] + total["residues.mul_mod"]),
            "residues.oracle_ms": ms(total["residues.ext_euclid_inverse"]),
            "carry.solve_ms": ms(solve_ns),
            "carry.solve_calls": calls["carry.solve_carries"] / rounds,
            "carry.bits_per_s": solve_bits / (solve_ns / 1e9) if solve_ns else 0.0,
            "carry.refute_ms": ms(refute_ns),
            "carry.verify_ms": ms(own["carry.verify_congruence"]),
            "orderings.r_matrix_ms": ms(total["orderings.to_r_matrix"] + total["orderings.matrix_of_sequence"]),
            "sbox.table_build_ms": build_ns / 1e6,
            "sbox.power_map_ms": ms(warm_ns),
            "sbox.scan_ms": ms(own["sbox.differential_uniformity"]),
            "sbox.scans": calls["sbox.differential_uniformity"] / rounds,
            "sbox.inverse_check_ms": ms(total["sbox.verify_compositional_inverse"]),
        }
