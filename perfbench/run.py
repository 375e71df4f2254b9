"""Benchmark of forestbound: one workload, one seed, one closed-loop run.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload analysis-2e18 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from spans, and the spans are
written to ``perfbench/traces/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the host, the sample counts, every metric with its unit, and a
digest of the outputs of the set-up and the first ``min_ops`` operations,
which a seed reproduces exactly.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

from spans import LAYERS, speed_scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

END_TO_END = {
    "setup_s": "s",
    "analysis_p50_s": "s",
    "analysis_p90_s": "s",
    "hypotheses_per_s": "1/s",
    "vstar_p50_ms": "ms",
    "vstar_p90_ms": "ms",
    "curve_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "forest.build_dyadic_s": "s",
    "forest.regions": "count",
    "forest.atoms": "count",
    "zeta.dkwm_s": "s",
    "zeta.regions_per_s": "1/s",
    "zeta.apply_zetas_s": "s",
    "zeta.vacuous_frac": "ratio",
    "pruning.prune_s": "s",
    "pruning.compact_s": "s",
    "pruning.kept_frac": "ratio",
    "bounds.vstar_s": "s",
    "bounds.atom_hit_counts_s": "s",
    "bounds.validate_path_s": "s",
    "curve.fast_curve_s": "s",
    "curve.ns_per_step": "ns",
    "curve.first_call_extra_s": "s",
    "curve.steps": "count",
    "curve.saturated_steps": "count",
    "curve.work_bound": "count",
    "formats.dump_curve_csv_s": "s",
    "formats.curve_csv_bytes": "bytes",
    "formats.dump_forest_s": "s",
    "formats.parse_forest_s": "s",
    **{f"self.{layer}_pct": "%" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def import_forestbound() -> float:
    """Import the package from this checkout's sources; return the seconds.

    Nothing imports numpy or scipy before this, so the time includes them.
    """
    if not (SRC / "forestbound" / "__init__.py").is_file():
        raise SystemExit(f"error: no forestbound package under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import forestbound

    seconds = time.perf_counter() - started
    if Path(forestbound.__file__).resolve().parent != SRC / "forestbound":
        raise SystemExit(f"error: imported forestbound from {forestbound.__file__}")
    return seconds


def host_facts() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
    }


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def op_seconds(ops) -> list[float]:
    return [o.seconds * o.scale for o in ops]


def end_to_end(run, import_s: float) -> dict[str, float]:
    """Latencies at the reference speed; see ``spans.speed_scale``."""
    op_s = op_seconds(run.ops)
    vstar_s = [v * o.scale for o in run.ops for v in o.vstar_s]
    curve_s = [o.curve_s * o.scale for o in run.ops]
    return {
        "setup_s": import_s + median(run.setup_s),
        "analysis_p50_s": percentile(op_s, 50),
        "analysis_p90_s": percentile(op_s, 90),
        "hypotheses_per_s": run.spec.m * len(op_s) / sum(op_s),
        "vstar_p50_ms": 1e3 * percentile(vstar_s, 50),
        "vstar_p90_ms": 1e3 * percentile(vstar_s, 90),
        "curve_p50_ms": 1e3 * percentile(curve_s, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run) -> dict[str, float]:
    """Medians over spans and counts; self times as shares of the traced time
    of the measured operations."""
    tr = run.tracer

    def span(name, beside=False):
        return median(tr.durations(name, beside))

    def note(name):
        return median(tr.notes[name])

    selfs = tr.self_times(run.first_span)
    total = sum(selfs.values())
    traced = op_seconds(o for o in run.ops if o.traced)
    untraced = op_seconds(o for o in run.ops if not o.traced)
    return {
        "forest.build_dyadic_s": span("forest.build_dyadic"),
        "forest.regions": note("forest.regions"),
        "forest.atoms": note("forest.atoms"),
        "zeta.dkwm_s": span("zeta.zeta_dkwm"),
        "zeta.regions_per_s": note("forest.regions") / span("zeta.zeta_dkwm"),
        "zeta.apply_zetas_s": span("zeta.apply_zetas", beside=True),
        "zeta.vacuous_frac": note("zeta.vacuous_frac"),
        "pruning.prune_s": span("pruning.prune"),
        "pruning.compact_s": span("pruning.compact"),
        "pruning.kept_frac": note("pruning.kept_frac"),
        "bounds.vstar_s": span("bounds.vstar"),
        "bounds.atom_hit_counts_s": span("bounds.atom_hit_counts", beside=True),
        "bounds.validate_path_s": span("bounds.validate_path", beside=True),
        "curve.fast_curve_s": span("curve.fast_curve"),
        "curve.ns_per_step": 1e9 * span("curve.fast_curve") / note("curve.steps"),
        "curve.first_call_extra_s": note("curve.first_call_extra_s"),
        "curve.steps": note("curve.steps"),
        "curve.saturated_steps": note("curve.saturated_steps"),
        "curve.work_bound": note("curve.work_bound"),
        "formats.dump_curve_csv_s": span("formats.dump_curve_csv"),
        "formats.curve_csv_bytes": note("formats.curve_csv_bytes"),
        "formats.dump_forest_s": span("formats.dump_forest"),
        "formats.parse_forest_s": span("formats.parse_forest"),
        **{f"self.{k}_pct": 100.0 * selfs[k] / total for k in LAYERS},
        "trace.overhead_s": median(traced) - median(untraced),
    }


def execute(
    spec,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    trace_dir: Path = TRACE_DIR,
) -> dict:
    """Run one workload, print the report, and return the result object."""
    import workloads

    run = workloads.run_workload(spec, seed, seconds, trace)
    if not run.ops or not run.setup_s:
        raise SystemExit("error: every measured or set-up operation failed")
    tally = run.tally
    host = host_facts()
    if trace:
        metrics, units = per_layer(run), PER_LAYER
        trace_dir.mkdir(parents=True, exist_ok=True)
        run.tracer.write(
            trace_dir / f"{spec.name}-seed{seed}.jsonl",
            {"workload": spec.name, "seed": seed, "host": host},
        )
    else:
        metrics, units = end_to_end(run, import_s), END_TO_END
    print(
        f"workload {spec.name} m={spec.m} seed={seed} seconds={seconds} "
        f"trace={int(trace)}"
    )
    print("host " + json.dumps(host))
    print(
        f"samples operations={len(run.ops)} "
        f"vstar={sum(len(o.vstar_s) for o in run.ops)} setups={len(run.setup_s)}"
    )
    scales = [o.scale for o in run.ops]
    print(
        f"speed_scale p10={percentile(scales, 10):.4g} "
        f"p50={percentile(scales, 50):.4g} p90={percentile(scales, 90):.4g}"
    )
    print(f"digest {tally.digest}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric error_rate {tally.failed / tally.attempted:.6g} ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = import_forestbound() * speed_scale()
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    execute(spec, args.seed, args.seconds, bool(args.trace), import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
