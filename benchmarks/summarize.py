"""Median and quartile spread of end-to-end metrics over several runs.

    python3 benchmarks/summarize.py .bench_out/report-*-trace0.json

Groups the reports by workload and prints, per metric, the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median, and the
metric's bound from BENCHMARK.json with a mark where the spread exceeds a
third of it. setup_s is exempt from the spread test.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(paths) -> int:
    bounds = {
        m["name"]: m.get("bound")
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    runs = defaultdict(list)
    for path in paths:
        rep = json.loads(Path(path).read_text())
        runs[(rep["workload"], rep["trace"])].append(rep)
    worst = 0.0
    for (workload, trace), reps in sorted(runs.items()):
        seeds = sorted(r["seed"] for r in reps)
        print(f"{workload} trace={trace}: {len(reps)} runs, seeds {seeds}, "
              f"all correct: {all(r['correct'] for r in reps)}")
        for name in reps[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in reps]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                mark = "  > bound/3" if spread > bound / 3 else ""
            print(f"  {name:<34} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{mark}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
