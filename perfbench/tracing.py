"""Span recorder installed from outside the library.

``Tracer.installed()`` rebinds each traced function in every ``u2factor``
module that holds it (``charpoly`` is bound in both ``linalg`` and
``sourour``; ``CommutatorPair`` reaches ``is_u2`` through ``unipotent``'s
globals) and patches ``Matrix`` and ``FieldSpec`` methods on the class.
Leaving the context restores the originals.  Spans are kept in memory
and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name); "Class.method" is patched on the class.
TARGETS = (
    ("field", "sqrt", "field.sqrt"),
    ("field", "FieldSpec.squares", "field.squares"),
    ("field", "square_class_pairing", "field.square_class_pairing"),
    ("field", "sum_of_two_nonzero_squares", "field.sum_of_two_nonzero_squares"),
    ("field", "parse_field_spec", "field.parse"),
    ("field", "parse_element", "field.parse"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "Matrix.inverse", "linalg.inverse"),
    ("linalg", "Matrix.det", "linalg.det"),
    ("linalg", "charpoly", "linalg.charpoly"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "unipotent_jordan", "linalg.unipotent_jordan"),
    ("linalg", "similarity_to_diagonal", "linalg.similarity_to_diagonal"),
    ("sourour", "sourour_factor", "sourour"),
    ("unipotent", "is_u2", "unipotent.is_u2"),
    ("unipotent", "conjugate_factorization", "unipotent.transport"),
    ("unipotent", "direct_sum_factorization", "unipotent.transport"),
    ("unipotent", "embed_factorization", "unipotent.transport"),
    ("unipotent", "invert_factorization", "unipotent.transport"),
    ("unipotent", "concat_factorizations", "unipotent.concat"),
    ("unipotent", "verify", "unipotent.verify"),
    ("unipotent", "factorization_to_json", "unipotent.json"),
    ("unipotent", "factorization_from_json", "unipotent.json"),
    ("factor_sl2", "factor_sl2", "factor_sl2"),
    ("factor_sl2", "trace_construction", "factor_sl2"),
    ("factor_sl2", "diag_commutator", "factor_sl2"),
    ("factor_sl2", "neg_identity", "factor_sl2"),
    ("factor_sl2", "single_commutator_test", "factor_sl2"),
    ("factor_sln", "jn1_factor", "factor_sln.jn1_factor"),
    ("factor_sln", "scalar_factor", "factor_sln.scalar"),
    ("factor_sln", "factor", "factor_sln.dispatch"),
    ("cli", "main", "cli.main"),
)

# What a span records besides its times: the n^3 multiply-adds of a
# matmul, the backtracks a Sourour split reports.
EXTRA = {
    "linalg.matmul": lambda args, result: args[0].n ** 3,
    "sourour": lambda args, result: result.backtracks,
}

# Spans whose subtree is charged to "factor" or "verify".
PHASES = {"factor_sln.dispatch": "factor", "unipotent.verify": "verify"}

NAME, START, END, PARENT, REQUEST, DATA = range(6)


class Tracer:
    """Records one span per call of a traced function while ``request``
    is set; calls made outside a request run untraced."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.missing = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if extra:
                rec[DATA] = extra(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "u2factor" or k.startswith("u2factor.")]
        undo = []
        self.missing = []
        try:
            for mod_name, attr, name in TARGETS:
                owner = sys.modules.get(f"u2factor.{mod_name}")
                if owner is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__.get(meth)
                    if orig is None:
                        self.missing.append(f"{mod_name}.{attr}")
                        continue
                    setattr(cls, meth, self._wrap(name, orig))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    def self_times(self):
        """Per span: (self ns, phase), where self time is the duration
        minus that of the direct children (spans nest, one thread)."""
        child = [0] * len(self.spans)
        phase = [None] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
                phase[i] = phase[s[PARENT]]
            phase[i] = PHASES.get(s[NAME], phase[i])
        return [(s[END] - s[START] - c, p)
                for s, c, p in zip(self.spans, child, phase)]

    def summary(self, scale):
        """name -> {"calls", "self_ns", "data", "factor_ns", "verify_ns",
        "total_ns"}, with times multiplied by scale[request].  total_ns
        counts only spans with no ancestor of the same name, so
        recursion is not counted twice."""
        out = defaultdict(lambda: defaultdict(int))
        spans = self.spans
        for s, (self_ns, phase) in zip(spans, self.self_times()):
            k = scale[s[REQUEST]]
            row = out[s[NAME]]
            row["calls"] += 1
            row["self_ns"] += self_ns * k
            row["data"] += s[DATA]
            if phase:
                row[f"{phase}_ns"] += self_ns * k
            up = s[PARENT]
            while up >= 0 and spans[up][NAME] != s[NAME]:
                up = spans[up][PARENT]
            if up < 0:
                row["total_ns"] += (s[END] - s[START]) * k
        return out

    def write(self, path):
        """Spans as gzipped JSON: names once, then one row per span of
        [name index, start ns, end ns, parent index, request]."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0
        rows = [[index[s[NAME]], s[START] - t0, s[END] - t0, s[PARENT],
                 s[REQUEST]] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh,
                      separators=(",", ":"))
