"""Spans around the public functions of each sublra layer.

The traced run wraps, from outside the package, the functions that the
layers export: the accessor's reads, constructor and distinct-access ledger
(``core``), the multiplier and sketch applications (``sketch``), the driver,
its rank-r fit and factor concatenation (``refine``), recompression
(``topsvd``), the residual probe (``errest``), ``run_bench`` and the
evaluator it hands to the driver (``bench``), Matrix Market I/O (``mmio``)
and the input generator (``matgen``).

A function is replaced in every ``sublra`` module namespace that holds it,
found through ``sys.modules``: the driver calls ``apply_left`` through the
name it imported into ``sublra.refine``, so patching ``sublra.sketch`` alone
would miss those calls.  (``import sublra.refine as m`` would bind the
function, not the module, because the package re-exports it.)

Spans are kept in memory as ``[name, start, end, parent, op, count]`` and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; since one thread runs everything,
children never overlap, so the self times of an op's spans add up to the
op's duration.
"""

import functools
import importlib
import os
import statistics
import sys
import time
import warnings

_perf = time.perf_counter

# (module, function, span name, count taken from the call)
FUNCTIONS = [
    ("sublra.sketch", "make_multiplier", "sketch.make_multiplier", None),
    ("sublra.sketch", "apply_left", "sketch.apply_left", None),
    ("sublra.sketch", "apply_right", "sketch.apply_right", None),
    ("sublra.sketch", "apply_to_factored", "sketch.apply_to_factored", None),
    ("sublra.refine", "refine", "refine.driver", None),
    ("sublra.refine", "sketch_rank_r_approx", "refine.fit", None),
    ("sublra.core", "lra_sum", "refine.lra_sum", None),
    ("sublra.topsvd", "recompress", "topsvd.recompress",
     lambda args, kwargs, result: args[0].rank_bound),
    ("sublra.errest", "residual_probe", "errest.residual_probe", None),
    ("sublra.bench", "run_bench", "bench.run_bench", None),
    ("sublra.mmio", "save_matrix", "mmio.save_matrix",
     lambda args, kwargs, result: os.path.getsize(args[1])),
    ("sublra.mmio", "load_matrix", "mmio.load_matrix",
     lambda args, kwargs, result: os.path.getsize(args[0])),
    ("sublra.matgen", "gen_synthetic", "matgen.gen_synthetic", None),
]

ACCESSOR_READS = ("read_rows", "read_cols", "read_full", "read_at",
                  "read_submatrix")

# Layer spans whose self time is reported per op, with the metric name.
TIMED = {
    "core.accessor.read": "core.accessor.read.s",
    "core.accessor.init": "core.accessor.init.s",
    "core.accessor.ledger": "core.accessor.ledger.s",
    "sketch.apply_left": "sketch.apply_left.s",
    "sketch.apply_right": "sketch.apply_right.s",
    "sketch.apply_to_factored": "sketch.apply_to_factored.s",
    "sketch.make_multiplier": "sketch.make_multiplier.s",
    "topsvd.recompress": "topsvd.recompress.s",
    "refine.fit": "refine.fit.s",
    "refine.lra_sum": "refine.lra_sum.s",
    "refine.driver": "refine.driver.self_s",
    "errest.residual_probe": "errest.residual_probe.s",
    "bench.oracle": "bench.oracle.s",
    "bench.run_bench": "bench.run_bench.self_s",
    "mmio.save_matrix": "mmio.save_matrix.s",
    "mmio.load_matrix": "mmio.load_matrix.s",
}


class Recorder:
    """In-memory span log of one run; ``op`` tags the spans opened."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _perf(), 0.0, parent, self.op, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx, count=0):
        span = self.spans[idx]
        span[2] = _perf()
        span[5] = count
        self._stack.pop()

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, 0 if count is None
                          else count(args, kwargs, result))

        return traced

    def to_json(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "count": s[5]} for s in self.spans]


def _sublra_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sublra" or name.startswith("sublra."))]


class Patches:
    """Context manager: span wrappers installed on entry, removed on exit."""

    def __init__(self, recorder):
        self.rec = recorder
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _replace_everywhere(self, orig, new):
        for mod in _sublra_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _set(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        rec = self.rec
        core = importlib.import_module("sublra.core")
        bench = importlib.import_module("sublra.bench")
        for modname, fname, span_name, count in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), fname)
            self._replace_everywhere(orig, rec.span(span_name, orig, count))

        cls = core.CountingAccessor
        for meth in ACCESSOR_READS:
            orig = getattr(cls, meth)

            def read(acc, *args, _orig=orig):
                idx = rec.open("core.accessor.read")
                before = acc.total_reads
                try:
                    return _orig(acc, *args)
                finally:
                    rec.close(idx, acc.total_reads - before)

            self._set(cls, meth, read)
        self._set(cls, "__init__", rec.span("core.accessor.init", cls.__init__))
        ledger = cls.distinct_accessed.fget
        self._set(cls, "distinct_accessed",
                  property(rec.span("core.accessor.ledger", ledger)))

        # run_bench hands its evaluator to the driver; time whatever it is
        driver = bench.refine

        def refine_with_timed_evaluator(M, config, evaluator=None):
            if evaluator is not None:
                evaluator = rec.span("bench.oracle", evaluator)
            return driver(M, config, evaluator=evaluator)

        self._set(bench, "refine", refine_with_timed_evaluator)

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(recorder, traced_ops, untraced_s, distinct_by_op,
                  warning_counts):
    """Per-layer metrics from the spans of the traced ops.

    ``traced_ops`` maps op id to the op's duration with tracing on;
    ``untraced_s`` lists durations of the same ops run with tracing off;
    ``distinct_by_op`` gives the distinct entries each op's accessors read.
    Times and counts are medians over ops of per-op sums (self times for
    spans), shares divide a layer's summed self time by the summed traced op
    time, and ``refine.rank_deficient`` totals the warnings of all traced
    ops.
    """
    spans = recorder.spans
    own = self_times(spans)
    ops = sorted(traced_ops)
    per_op = {op: {} for op in ops}
    counts = {op: {"reads": 0, "k": [], "calls": 0, "bytes": 0}
              for op in ops}
    gen = []
    for s, self_s in zip(spans, own):
        name, op = s[0], s[4]
        if name == "matgen.gen_synthetic":
            gen.append(s[2] - s[1])
        if op not in per_op:
            continue
        acc = per_op[op]
        acc[name] = acc.get(name, 0.0) + self_s
        c = counts[op]
        if name == "core.accessor.read":
            c["reads"] += s[5]
        elif name == "topsvd.recompress":
            c["k"].append(s[5])
        elif name == "bench.oracle":
            c["calls"] += 1
        elif name.startswith("mmio."):
            c["bytes"] += s[5]

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    total = sum(traced_ops.values())
    traced_p50 = med(list(traced_ops.values()))
    out = {}
    for span_name, metric in TIMED.items():
        vals = [per_op[op].get(span_name, 0.0) for op in ops]
        out[metric] = (med(vals), "s")
        share = metric.rsplit(".", 1)[0] + ".share"
        out[share] = (sum(vals) / total if total > 0 else 0.0, "frac")
    reads = [counts[op]["reads"] for op in ops]
    out["core.accessor.entries_read"] = (med(reads), "count")
    distinct = [distinct_by_op.get(op, 0) for op in ops]
    out["core.accessor.distinct"] = (med(distinct), "count")
    ratios = [d / r for d, r in zip(distinct, reads) if r > 0]
    out["core.accessor.useful_ratio"] = (med(ratios), "ratio")
    out["topsvd.recompress.k"] = (
        med([k for op in ops for k in counts[op]["k"]]), "count")
    out["bench.oracle.calls"] = (med([counts[op]["calls"] for op in ops]),
                                 "count")
    out["mmio.bytes"] = (med([counts[op]["bytes"] for op in ops]), "B")
    out["refine.rank_deficient"] = (float(sum(warning_counts)), "count")
    out["matgen.gen_synthetic.s"] = (med(gen), "s")
    out["trace.op_s.p50"] = (traced_p50, "s")
    out["trace.overhead_s"] = (traced_p50 - med(untraced_s), "s")
    out["trace.unattributed_s"] = (
        med([per_op[op].get("op", 0.0) for op in ops]), "s")
    return out


class WarningCounter(warnings.catch_warnings):
    """Counts the driver's rank-deficiency warnings raised inside a block."""

    def __init__(self):
        super().__init__(record=True)
        self.count = 0

    def __enter__(self):
        self._log = super().__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        cls = importlib.import_module("sublra.refine").RankDeficientSketchWarning
        self.count = sum(issubclass(w.category, cls) for w in self._log)
        return super().__exit__(*exc)
