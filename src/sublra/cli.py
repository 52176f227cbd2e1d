"""Command-line front end.

Subcommands: gen, spectra, refine, bench, estimate, cur, audit.  Exit codes:
0 on success, 2 on precondition/usage errors, 3 on I/O and parse errors.
"""

import argparse
import csv
import io
import json
import sys

from . import bench as bench_mod
from .core import (CountingAccessor, PreconditionError, RatioOracle,
                   spectral_norm, truncate_svd)
from .cur import nucleus_norm_bound, reconstruction_error, svd_to_cur
from .errest import (entry_lower_bound, gaussian_error_estimate,
                     sketch_norm_bounds)
from .matgen import gen_synthetic, spectrum_by_name
from .mmio import MatrixMarketError, load_matrix, save_matrix
from .refine import RefineConfig, refine
from .sketch import apply_left, apply_right, make_multiplier


def _add_input_args(p):
    p.add_argument("--input", help="Matrix Market input file")
    p.add_argument("--kind", choices=["fast", "slow"],
                   help="synthetic spectrum kind (alternative to --input)")
    p.add_argument("--n", type=int, default=1024,
                   help="synthetic matrix size")
    p.add_argument("--gen-seed", type=int, default=12345,
                   help="seed of the synthetic matrix factors")


def _resolve_input(args):
    if args.input:
        return load_matrix(args.input), args.input
    if args.kind:
        spec = spectrum_by_name(args.kind, args.n)
        return gen_synthetic(args.n, spec, args.gen_seed), args.kind
    raise PreconditionError("give --input PATH or --kind {fast,slow}")


def _write_text(text, out):
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args):
    spec = spectrum_by_name(args.kind, args.n)
    M = gen_synthetic(args.n, spec, args.gen_seed)
    save_matrix(M, args.out, fmt=args.fmt,
                comment=f" sublra gen kind={args.kind} n={args.n} "
                        f"seed={args.gen_seed}")
    print(f"wrote {args.n}x{args.n} {args.kind}-decay matrix to {args.out}")
    return 0


def cmd_spectra(args):
    M, label = _resolve_input(args)
    _write_text(bench_mod.spectra_csv(M, args.top), args.out)
    if args.out:
        print(f"wrote top {args.top} singular values of {label} to {args.out}")
    return 0


def _add_refine_args(p, rho):
    """The flags ``_refine_config`` reads; all but rho default as in
    RefineConfig."""
    p.add_argument("--rho", type=int, default=rho)
    p.add_argument("--iters", type=int, default=RefineConfig.max_iters)
    p.add_argument("--multiplier", choices=["ahad", "gaussian"],
                   default=RefineConfig.multiplier)
    p.add_argument("--depth", type=int, default=RefineConfig.depth)
    p.add_argument("--seed", type=int, default=RefineConfig.seed)


def _refine_config(args):
    """The RefineConfig of the refine and audit subcommands' shared flags."""
    return RefineConfig(rho=args.rho, max_iters=args.iters,
                        multiplier=args.multiplier, depth=args.depth,
                        seed=args.seed)


def cmd_refine(args):
    M, label = _resolve_input(args)
    config = _refine_config(args)
    config.validate_for(M.shape)
    acc = CountingAccessor(M)
    evaluator = RatioOracle(M, args.rho) if args.ratios else None
    approx, report = refine(acc, config, evaluator=evaluator)
    print(f"input: {label} shape {M.shape}")
    print(report.summary())
    if args.out:
        _write_text(report.to_csv(), args.out)
        print(f"wrote per-iteration report to {args.out}")
    return 0


def cmd_bench(args):
    if args.input:
        inputs = [bench_mod.file_input(args.input, args.rho)]
    else:
        kinds = ["fast", "slow"] if args.kind is None else [args.kind]
        inputs = [bench_mod.synthetic_input(k, args.n, rho=args.rho,
                                            seed=args.gen_seed)
                  for k in kinds]
    multipliers = (["ahad", "gaussian"] if args.multiplier == "both"
                   else [args.multiplier])
    spec = bench_mod.BenchSpec(inputs=inputs, multipliers=multipliers,
                               depth=args.depth, iters=args.iters,
                               trials=args.trials, seed=args.seed)
    rows = bench_mod.run_bench(spec)
    text = bench_mod.bench_csv(rows)
    _write_text(text, args.out)
    if args.out:
        print(f"wrote {len(rows)} bench rows to {args.out}")
    return 0


def cmd_estimate(args):
    M, label = _resolve_input(args)
    acc = CountingAccessor(M)
    if args.method == "entry":
        est = entry_lower_bound(acc, args.samples, seed=args.seed)
    elif args.method == "gaussian":
        est = gaussian_error_estimate(acc, args.q, args.s, seed=args.seed)
    else:
        m, n = acc.shape
        F = make_multiplier("ahad", args.sketch_size, m, depth=args.depth,
                            seed=args.seed, side="left")
        H = make_multiplier("ahad", args.sketch_size, n, depth=args.depth,
                            seed=args.seed + 1, side="right")
        est = sketch_norm_bounds(F=F, H=H, FE=apply_left(F, acc),
                                 EH=apply_right(acc, H), kind=args.norm)
    print(f"input: {label} shape {acc.shape}")
    print(est.labeled())
    print(f"entries_read={acc.distinct_accessed}")
    if args.out:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["method", "lower_bound", "upper_bound", "confidence",
                    "sample_size"])
        w.writerow([est.method, est.lower_bound, est.upper_bound,
                    est.confidence, est.sample_size])
        _write_text(buf.getvalue(), args.out)
    return 0


def cmd_cur(args):
    M, label = _resolve_input(args)
    S = truncate_svd(M, args.rho)
    decomp = svd_to_cur(S, k=args.k, l=args.l)
    prefix = args.out
    save_matrix(decomp.C, f"{prefix}_C.mtx")
    save_matrix(decomp.N, f"{prefix}_N.mtx")
    save_matrix(decomp.R, f"{prefix}_R.mtx")
    summary = {
        "input": label,
        "rho": args.rho,
        "k": int(decomp.R.shape[0]),
        "l": int(decomp.C.shape[1]),
        "row_indices": [int(i) for i in decomp.row_indices],
        "col_indices": [int(j) for j in decomp.col_indices],
        "reconstruction_error_fro": reconstruction_error(S, decomp),
        "nucleus_norm": spectral_norm(decomp.N),
        "nucleus_bound": nucleus_norm_bound(*M.shape, args.rho,
                                            sigma_rho=float(S.sigma[-1])),
    }
    line = json.dumps(summary)
    with open(f"{prefix}_summary.jsonl", "w", encoding="ascii") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def cmd_audit(args):
    m = args.n if args.m is None else args.m
    report = bench_mod.audit_refine(m, args.n, _refine_config(args))
    print(report.summary())
    print(report.to_json())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sublra",
        description="Sketch-based low-rank approximation with superfast "
                    "iterative refinement")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic input matrix")
    p.add_argument("--kind", choices=["fast", "slow"], required=True)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--gen-seed", type=int, default=12345)
    p.add_argument("--fmt", choices=["array", "coordinate"], default="array")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectra", help="export leading singular values as CSV")
    _add_input_args(p)
    p.add_argument("--top", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("refine", help="run sketch-based iterative refinement")
    _add_input_args(p)
    _add_refine_args(p, rho=20)
    p.add_argument("--ratios", action="store_true",
                   help="also compute oracle error ratios (reads the full "
                        "matrix outside the counters)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("bench", help="replicate the error-ratio table")
    _add_input_args(p)
    p.add_argument("--rho", type=int, default=20)
    p.add_argument("--multiplier", choices=["ahad", "gaussian", "both"],
                   default="both")
    p.add_argument("--depth", type=int, default=RefineConfig.depth)
    p.add_argument("--iters", type=int, default=RefineConfig.max_iters)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=RefineConfig.seed)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("estimate", help="a posteriori error estimation of an "
                                        "error matrix")
    _add_input_args(p)
    p.add_argument("--method", choices=["entry", "gaussian", "sketch"],
                   default="gaussian")
    p.add_argument("--samples", type=int, default=200,
                   help="entry method: sample count")
    p.add_argument("--q", type=int, default=10)
    p.add_argument("--s", type=int, default=10)
    p.add_argument("--sketch-size", type=int, default=16)
    p.add_argument("--depth", type=int, default=RefineConfig.depth)
    p.add_argument("--norm", choices=["spectral", "frobenius"],
                   default="spectral")
    p.add_argument("--seed", type=int, default=RefineConfig.seed)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("cur", help="convert the rho-truncation to CUR factors")
    _add_input_args(p)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_cur)

    p = sub.add_parser("audit", help="delta-family audit of the superfast "
                                     "pipeline")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--m", type=int, default=None)
    _add_refine_args(p, rho=4)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # MatrixMarketError, DimensionError and PreconditionError all subclass
    # ValueError, so the I/O handler has to come first
    try:
        return args.func(args)
    except (MatrixMarketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
