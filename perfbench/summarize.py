"""Summarise benchmark result records into one BENCH file.

    python3 perfbench/summarize.py OUT.json [RESULTS_DIR]

Reads the full-scale records that run.py leaves in ``.perfbench_work/results``
(or RESULTS_DIR), groups them by workload and trace mode, and writes per
metric the median, the quartiles as ``statistics.quantiles(n=4)`` gives them,
the spread (q3 - q1) / median and the number of runs. Failed and attempted
invocations are totalled, so the fail ratio keeps its base.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench_work" / "results"


def in_checkout(path: str) -> str:
    """A recorded path relative to the checkout, so the summary names no host directory."""
    p = Path(path)
    return p.relative_to(ROOT).as_posix() if p.is_relative_to(ROOT) else path


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for rec in records:
        if rec["scale"] == "full":
            groups[(rec["workload"], rec["trace"])].append(rec)
    out: dict = {}
    for (workload, trace), recs in sorted(groups.items()):
        metrics = {}
        for name, first in recs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {
                "median": median, "q1": q1, "q3": q3, "n": len(values), "unit": first["unit"],
                "spread": (q3 - q1) / median if median else None,
            }
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        out.setdefault(workload, {})[f"trace{trace}"] = {
            "runs": len(recs),
            "seeds": sorted({r["seed"] for r in recs}),
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "program": {**recs[-1]["program"],
                        "echoscope_file": in_checkout(recs[-1]["program"]["echoscope_file"])},
            "metrics": metrics,
        }
    return out


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = Path(argv[1]) if len(argv) > 1 else RESULTS
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*.json"))]
    summary = summarize(records)
    Path(argv[0]).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, modes in summary.items():
        for mode, block in modes.items():
            print(f"{workload} {mode}: {block['runs']} runs, fail ratio {block['fail_ratio']:.3g}"
                  f" of {block['attempted']}")
            for name, m in block["metrics"].items():
                spread = "" if m["spread"] is None else f"spread {m['spread']:.4f}"
                print(f"  {name:<30} median {m['median']:<14.6g} {m['unit']:<6} n={m['n']:<3} {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
