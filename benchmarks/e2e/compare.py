"""Compare two sets of result files of ``benchmarks/e2e/run.py``.

    python3 benchmarks/e2e/compare.py BASE NEW

BASE and NEW are each a result file or a directory of result files (one
per run, ideally ten with ten seeds).  One row per workload x end-to-end
metric: each side's median over its runs, the ratio with its base, the
bound, each side's run-to-run spread, and a verdict.

``worse``       new is worse than base by more than the bound
``better``      new is better than base by more than the bound
``unresolved``  within the bound, but a side's spread is wider than the
                bound: the runs cannot tell
``same``        within the bound, and so are both spreads

The spread is the inter-quartile distance over a side's runs as a share
of their median (the full range with two or three runs).  A side with a
single run falls back on the values of that run's passes.

Exits non-zero on any ``worse``, and on any failed segment on either side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parents[1]) not in sys.path:
    sys.path.insert(0, str(HERE.parents[1]))

from benchmarks.e2e import workloads as W  # noqa: E402
from benchmarks.e2e.stats import spread, worse_by  # noqa: E402


def load_set(path) -> list[dict]:
    """The result files of one side."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files
            if not f.name.startswith("trace-")]
    if not runs:
        raise SystemExit(f"no result file in {path}")
    return runs


def side(runs: list[dict], workload: str, metric: str) -> dict | None:
    """Median and spread of one metric over the runs that measured it."""
    entries = [
        r["end_to_end"][workload]["metrics"][metric] for r in runs
        if r["end_to_end"].get(workload, {}).get("metrics")
    ]
    if not entries:
        return None
    values = [e["value"] for e in entries]
    samples = values if len(values) > 1 else entries[0]["samples"]
    return {"value": statistics.median(values), "spread": spread(samples),
            "runs": len(values)}


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    worse = worse_by(base["value"], new["value"], better)
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    if max(base["spread"], new["spread"]) > bound:
        return "unresolved"
    return "same"


def failures(runs: list[dict], workload: str) -> tuple[int, int]:
    results = [r["end_to_end"][workload] for r in runs
               if workload in r["end_to_end"]]
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def compare(base: list[dict], new: list[dict]) -> list[dict]:
    """Rows for every workload both sides measured end to end."""
    rows = []
    for wl in W.WORKLOADS:
        for name, unit, better, bound, _ in W.END_TO_END:
            a, b = side(base, wl.name, name), side(new, wl.name, name)
            if not (a and b):
                continue
            rows.append({
                "workload": wl.name, "metric": name, "unit": unit,
                "base": a["value"], "new": b["value"],
                "ratio": b["value"] / a["value"], "bound": bound,
                "spread_base": a["spread"], "spread_new": b["spread"],
                "verdict": verdict(a, b, better, bound),
            })
        (fa, na), (fb, nb) = failures(base, wl.name), failures(new, wl.name)
        if na and nb:
            rows.append({
                "workload": wl.name, "metric": "fail_frac", "unit": "fraction",
                "base": fa / na, "new": fb / nb, "ratio": None, "bound": 0.0,
                "spread_base": 0.0, "spread_new": 0.0,
                "verdict": "worse" if fa + fb else "same",
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load_set(argv[0]), load_set(argv[1])
    rows = compare(base, new)
    if not rows:
        print("the two sides share no workload", file=sys.stderr)
        return 2
    print(f"base: {len(base)} run(s), new: {len(new)} run(s)")
    print(f"{'workload':<30}{'metric':<13}{'base':>10}{'new':>10} unit    "
          f"{'new/base':>9}{'bound':>7}{'spread b/n':>14}  verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(f"{r['workload']:<30}{r['metric']:<13}{r['base']:>10.4f}"
              f"{r['new']:>10.4f} {r['unit']:<8}{ratio:>9}{r['bound']:>7.2f}"
              f"{r['spread_base']:>8.3f}{r['spread_new']:>6.3f}  {r['verdict']}")
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
