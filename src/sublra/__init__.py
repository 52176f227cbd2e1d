"""Sketch-based low-rank approximation with superfast iterative refinement.

The library operates on factored low-rank forms and reads large inputs only
through counted sketch applications, so o(mn) entry access is a measured
property rather than a promise.  See the README for the CLI and the
benchmark harness.
"""

from .bench import (AuditReport, BenchInput, BenchSpec, audit_pipeline,
                    audit_refine, bench_csv, run_bench, spectra, spectra_csv)
from .core import (CountingAccessor, DimensionError, ErrorRatio, Factored2,
                   PreconditionError, RatioOracle, TopSVD, as_dense, lra_sum,
                   materialize, matrix_norm, relative_error_ratio,
                   truncate_svd)
from .cur import (CURDecomp, SingularNucleusError, nucleus_norm_bound,
                  rr_select, svd_to_cur)
from .errest import (ErrorEstimate, entry_lower_bound,
                     frobenius_confidence_band, gaussian_error_estimate,
                     residual_probe, sketch_norm_bounds)
from .matgen import (SpectrumSpec, fast_decay_spectrum, gen_delta,
                     gen_synthetic, slow_decay_spectrum)
from .mmio import MatrixMarketError, load_matrix, save_matrix
from .refine import (IterationRecord, RefineConfig, RefinementReport,
                     refine, sketch_rank_r_approx)
from .sketch import (SketchOperator, apply_dense, apply_left, apply_right,
                     apply_to_factored, make_multiplier)
from .topsvd import (QRPFallbackWarning, recompress, topsvd_of_lra,
                     topsvd_of_lra_qrp)

__version__ = "0.1.0"
