#!/usr/bin/env python3
"""Repository benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit-gauss --seed 1 --seconds 30 --trace 0

Prints one ``{"meta": ...}`` line with provenance, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` the run alternates traced and untraced ops and reports the
per-layer metrics.  Exits 1 when any op failed or missed the gate, and 2
when the repository sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics: (name, unit).  Measured with tracing off.
END_TO_END: list[tuple[str, str]] = [
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("success_frac", "frac"),
    ("cost_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(rec) -> dict[str, float]:
    import numpy as np

    done = len(rec.latencies_ns) + len(rec.traced_ns)
    return {
        "op_p50_ms": (float(np.median(rec.latencies_ns)) * 1e-6
                      if rec.latencies_ns else float("nan")),
        "ops_per_s": done / rec.wall_s if rec.wall_s else 0.0,
        "success_frac": (rec.attempted - rec.failed) / rec.attempted,
        "cost_ratio": rec.cost_ratio,
        "setup_s": float(np.median(rec.setup_s)),
        "peak_rss_mb": rec.peak_rss_mb,
    }


def _stop_resource_tracker() -> None:
    """Stop the helper process shared-memory segments start, if any.

    Every segment is released by then; stopping the tracker here means
    no process the run started outlives it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repository sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))

    import numpy as np

    from perfbench import meta, probes
    from perfbench.spans import Tracer
    from perfbench.stats import reportable
    from perfbench.workloads import WORKLOADS, derive_seeds, run_workload

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    try:
        rec = run_workload(args.workload, args.seed, args.seconds, tracer)
    finally:
        _stop_resource_tracker()
    if rec.attempted == 0:
        rec.attempted = rec.failed = 1

    if tracer is None:
        metrics = end_to_end(rec)
        units = dict(END_TO_END)
    else:
        summary = probes.summarize(tracer.spans())
        if summary.unbalanced:
            rec.extra["unbalanced_roots"] = summary.unbalanced
            rec.failed += 1
        untraced, traced = rec.latencies_ns, rec.traced_ns
        overhead = (float(np.median(traced) / np.median(untraced)) - 1.0
                    if untraced and traced else float("nan"))
        metrics = probes.layer_metrics(
            summary, tracer.counters(),
            reports=rec.reports, serve_stats=rec.serve_stats,
            k=rec.config.get("k", 0), gen_s=float(np.median(rec.gen_s)),
            overhead_frac=overhead,
        )
        units = dict(probes.PER_LAYER)

    data_seed, alg_seed = derive_seeds(args.workload, args.seed)
    info = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "data_seed": data_seed,
        "alg_seed": alg_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": meta.git_sha(ROOT),
        "blas": meta.blas_info(),
        **meta.platform_info(),
        "config": rec.config,
        "ops_timed": len(rec.latencies_ns),
        "ops_traced": len(rec.traced_ns),
        "setup_s_samples": rec.setup_s,
        **rec.extra,
    }
    if rec.latencies_ns and reportable(len(rec.latencies_ns), 0.9):
        info["op_p90_ms"] = float(np.quantile(rec.latencies_ns, 0.9)) * 1e-6
    print(json.dumps({"meta": info}, default=str))

    finite = all(math.isfinite(v) for v in metrics.values())
    correct = rec.failed == 0 and finite
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": float(metrics[name]) if math.isfinite(metrics[name]) else 0.0,
                   "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
