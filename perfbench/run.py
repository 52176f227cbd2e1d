"""Benchmark of the sublra package: refine, sparse access, the ratio table
and Matrix Market I/O.

Run from the root of a checkout:

    python3 perfbench/run.py --workload refine-1024 --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with a single client in this one process.
``--workload all`` runs the four workloads one after another and also
prints a table of every metric to standard output.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` every op is run
twice, once wrapped in layer spans and once bare, and the metrics are the
per-layer ones, plus the tracing overhead (traced minus bare ``op_s.p50``).
Progress, the environment and the metrics that are printed but not gated,
because some workloads lack them or they are 0 at a correct run
(``op_s.p90``, ``ratio_final``, ``failed_frac``, ``save_s.p50``,
``load_s.p50``), go to standard error.  Each run also writes its metrics,
environment and, when traced, its spans to ``.bench_out/`` in the checkout.

The package is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with status 2.  BLAS threads
are left at their defaults.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
P90_TAIL = 10  # ops above the p90 needed before it is reported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_perf = time.perf_counter


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "python_O": sys.flags.optimize,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def med(values):
    return float(statistics.median(values))


class Run:
    """One workload run: set-up, the timed closed loop, and its tallies."""

    def __init__(self, workload, seed, seconds, trace, tracing):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracing = tracing
        self.rec = tracing.Recorder() if trace else None
        self.attempted = 0
        self.failed = 0
        self.times = []      # bare op durations of checked-good ops
        self.all_times = []  # bare op durations of every op
        self.outcomes = []
        self.traced = {}     # op id -> traced duration
        self.distinct = {}   # op id -> distinct entries read
        self.warnings = []

    def _tag(self):
        return f"[{self.wl.name}]"

    def _timed(self, i):
        t0 = _perf()
        try:
            out, err = self.wl.op(i), None
        except Exception:
            out, err = None, traceback.format_exc()
        return _perf() - t0, out, err

    def _call(self, i, traced):
        """Run op i, bare or inside layer spans; return (seconds, out, err)."""
        if not traced:
            return self._timed(i)
        self.rec.op = i
        with self.tracing.Patches(self.rec), \
                self.tracing.WarningCounter() as counter:
            root = self.rec.open("op")
            result = self._timed(i)
            self.rec.close(root)
        self.rec.op = None
        self.warnings.append(counter.count)
        return result

    def _check(self, i, out, err):
        self.attempted += 1
        outcome = None
        if err is None:
            try:
                outcome = self.wl.check(i, out)
            except Exception:
                err = traceback.format_exc()
        if err is not None or not outcome.ok:
            self.failed += 1
            log(f"{self._tag()} op {i} FAILED: "
                f"{err if err is not None else outcome.detail}")
            return None
        return outcome

    def setup(self):
        self.setup_times = []
        for rep in range(SETUP_REPS):
            t0 = _perf()
            if self.trace:
                self.rec.op = "setup"
                with self.tracing.Patches(self.rec):
                    self.wl.setup(self.seed)
            else:
                self.wl.setup(self.seed)
            self.setup_times.append(_perf() - t0)
            log(f"{self._tag()} set-up {rep + 1}/{SETUP_REPS}: "
                f"{self.setup_times[-1]:.3f} s")

    def loop(self):
        """Ops for ``seconds``, each checked as soon as it returns."""
        start = _perf()
        deadline = start + self.seconds
        next_note = start + 2.0
        i = 0
        while i == 0 or _perf() < deadline:
            if self.trace:
                order = (True, False) if i % 2 == 0 else (False, True)
            else:
                order = (False,)
            for traced in order:
                dt, out, err = self._call(i, traced)
                outcome = self._check(i, out, err)
                if traced:
                    self.traced[i] = dt
                    if outcome is not None:
                        self.distinct[i] = outcome.distinct
                    continue
                self.all_times.append(dt)
                if outcome is not None:
                    self.times.append(dt)
                    self.outcomes.append(outcome)
                    if i == 0:
                        log(f"{self._tag()} op 0 check: {outcome.detail}")
            i += 1
            now = _perf()
            if now >= next_note:
                log(f"{self._tag()} {i} ops, {self.failed} failed, "
                    f"{now - start:.1f}/{self.seconds:g} s")
                next_note = now + 2.0

    def peak_alloc(self):
        """Peak bytes one more op allocates, by tracemalloc, outside the loop."""
        i = -2  # an op seed the timed loop never uses
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dt, out, err = self._call(i, False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        self._check(i, out, err)
        return peak

    def end_to_end(self, peak):
        times = self.times or self.all_times
        outs = self.outcomes
        metrics = {
            "op_s.p50": (med(times), "s"),
            "ops_per_s": (len(self.times) / sum(self.all_times), "1/s"),
            "read_fraction": (
                statistics.fmean(o.read_fraction for o in outs)
                if outs else 1.0, "frac"),
            "setup_s": (med(self.setup_times), "s"),
            "peak_alloc_mb": (peak / 2 ** 20, "MB"),
        }
        # printed, not gated: each exists on some workloads only, or is 0
        extra = {"ops": (len(self.all_times), "count"),
                 "failed_frac": (self.failed / self.attempted, "frac"),
                 "op_s.p90": (None, "s"), "ratio_final": (None, "1"),
                 "save_s.p50": (None, "s"), "load_s.p50": (None, "s")}
        if len(times) > 1:
            p90 = statistics.quantiles(times, n=10)[-1]
            if sum(t > p90 for t in times) >= P90_TAIL:
                extra["op_s.p90"] = (p90, "s")
        ratios = [o.ratio for o in outs if o.ratio is not None]
        if ratios:
            extra["ratio_final"] = (statistics.fmean(ratios), "1")
        for key in ("save_s", "load_s"):
            vals = [getattr(o, key) for o in outs if getattr(o, key) is not None]
            if vals:
                extra[f"{key}.p50"] = (med(vals), "s")
        return metrics, extra

    def per_layer(self):
        bare = self.times or self.all_times
        metrics = self.tracing.layer_metrics(
            self.rec, self.traced, bare, self.distinct, self.warnings)
        extra = {"ops": (len(self.all_times), "count"),
                 "failed_frac": (self.failed / self.attempted, "frac"),
                 "op_s.p50": (med(bare), "s")}
        covered = sum(v for k, (v, _) in metrics.items()
                      if k.endswith(".share"))
        log(f"{self._tag()} layer self times cover {covered:.4f} of traced "
            f"op time; unattributed p50 "
            f"{metrics['trace.unattributed_s'][0]:.6f} s, tracing overhead "
            f"{metrics['trace.overhead_s'][0]:.6f} s")
        return metrics, extra


def table(name, metrics, extra):
    """One line per metric: workload, name, value (or n/a) and unit."""
    return [f"{name:12s} {key:34s} "
            f"{'n/a' if value is None else format(value, '.6g')} {unit}"
            for key, (value, unit) in {**metrics, **extra}.items()]


def run_workload(name, seed, seconds, trace, outdir):
    import tracing
    import workloads
    wl = workloads.WORKLOADS[name](str(outdir / f"{name}-{os.getpid()}"))
    run = Run(wl, seed, seconds, trace, tracing)
    t0 = _perf()
    log(f"{run._tag()} seed {seed}, {seconds:g} s, trace {int(trace)}")
    try:
        run.setup()
        # also run when traced, so both modes enter the loop equally warm
        peak = run.peak_alloc()
        run.loop()
        metrics, extra = run.per_layer() if trace else run.end_to_end(peak)
    finally:
        wl.close()
    elapsed = _perf() - t0
    log(f"{run._tag()} done: {len(run.all_times)} ops, {run.failed} failed, "
        f"{elapsed:.1f} s elapsed")
    for line in table(name, metrics, extra):
        log(line)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "elapsed_s": elapsed,
              "attempted": run.attempted, "failed": run.failed,
              "setup_times": run.setup_times, "op_times": run.all_times,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "extra": {k: v for k, (v, _) in extra.items()}}
    if trace:
        record["spans"] = run.rec.to_json()
    return run, metrics, extra, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sublra" / "__init__.py").is_file():
        log(f"no sublra package under {src}; run from a full checkout")
        return 2
    sys.path.insert(0, str(src))
    import workloads

    known = list(workloads.WORKLOADS)
    names = known if args.workload == "all" else [args.workload]
    if names[0] not in known:
        log(f"unknown workload {names[0]!r}; choose from "
            f"{', '.join(known)} or all")
        return 2

    env = environment()
    log("environment: " + json.dumps(env))
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    t0 = _perf()
    results = []
    for name in names:
        run, metrics, extra, record = run_workload(
            name, args.seed, args.seconds, bool(args.trace), outdir)
        record["environment"] = env
        path = outdir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record))
        results.append((name, run, metrics, extra))
    log(f"all done in {_perf() - t0:.1f} s")

    attempted = sum(r.attempted for _, r, _, _ in results)
    failed = sum(r.failed for _, r, _, _ in results)
    out = {}
    for name, run, metrics, extra in results:
        prefix = f"{name}." if len(results) > 1 else ""
        if len(results) > 1:
            print("\n".join(table(name, metrics, extra)))
        for key, (value, unit) in metrics.items():
            out[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
