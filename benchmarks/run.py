"""causalcap benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload optfree-grid --seed 1 --seconds 30 --trace 0

Run from the repository root. With --trace 0 it prints the end-to-end
metrics, measured with tracing off; with --trace 1 the per-layer metrics of a
traced run. Human-readable lines (provenance, the figures under the names the
benchmark's README uses, failed checks) come first; the last line of stdout
is the JSON result. A full report goes to .bench_out/ and the traced run's
spans next to it. The exit code is 1 if any output check failed and 2 if
the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# name -> unit; BENCHMARK.json lists the same names, units and directions.
END_TO_END = {
    "setup_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "op_ref.p50": "ref",
    "op_ref.p90": "ref",
    "round_ref": "ref",
}
PER_LAYER = {
    "channels.shifted_depolarizing_us": "us",
    "channels.random_channel_us.q1": "us",
    "channels.random_channel_us.q2": "us",
    "channels.random_channel_us.q3": "us",
    "channels.load_channel_us": "us",
    "pdm.pdm_from_channel_us.q1": "us",
    "pdm.pdm_from_channel_us.q2": "us",
    "pdm.pdm_from_channel_us.q3": "us",
    "pdm.causality_F_us": "us",
    "linalg.trace_norm.calls": "count",
    "linalg.trace_norm.self_us": "us",
    "linalg.require_hermitian.self_us": "us",
    "linalg.partial_transpose.self_us": "us",
    "channels.apply_on_second.calls": "count",
    "channels.apply_on_second.self_us": "us",
    "bounds.causality_bound_us.q1": "us",
    "bounds.causality_bound_us.q2": "us",
    "bounds.causality_bound_us.q3": "us",
    "bounds.maxrains_surrogate_us": "us",
    "bounds.hw.iterations": "count",
    "bounds.hw.objective_calls": "count",
    "bounds.hw.iter_us": "us",
    "bounds.hw.converged_frac": "ratio",
    "bounds.hw.self_frac": "ratio",
    "bounds.sweep.point_s": "s",
    "bounds.sweep.pool_speedup": "ratio",
    "verify.suite_s.pdm": "s",
    "verify.suite_s.lemmas": "s",
    "verify.suite_s.fidelity": "s",
    "verify.suite_s.bounds": "s",
    "setup.import_numpy_s": "s",
    "setup.import_scipy_optimize_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
WORKLOADS = ("optfree-grid", "hw-solve", "cli-session")


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_rev": rev or "unknown",
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "causalcap").glob("*.py"))
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time with --trace 0; the traced run has a fixed size")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "causalcap" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'causalcap'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            rep = workloads.traced(args.workload, args.seed, workdir, OUT / f"spans-{tag}.npz")
        else:
            rep = workloads.measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = PER_LAYER if args.trace else END_TO_END
    unknown = set(rep.metrics) - set(spec)
    if unknown:
        raise RuntimeError(f"metrics missing from the spec: {sorted(unknown)}")
    metrics = {
        name: {"value": float(rep.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in spec.items()
    }
    prov = provenance()
    print(f"# causalcap benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in prov.items()))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for name, value, unit, note in rep.figures:
        print(f"  {name:<36} {value:>14.6g} {unit}  ({note})")
    for failure in rep.checks.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": rep.checks.failed == 0,
        "attempted": rep.checks.attempted,
        "failed": rep.checks.failed,
        "metrics": metrics,
    }
    report = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, provenance=prov,
                  figures={n: {"value": v, "unit": u, "note": s} for n, v, u, s in rep.figures},
                  failures=rep.checks.failures)
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
