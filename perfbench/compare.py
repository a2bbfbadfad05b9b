"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py --parent DIR_OR_FILE... --change DIR_OR_FILE...

Each argument is a record file written by ``run.py --record`` or a
directory of them. Untraced records (``--trace 0``) are compared per
workload and per end-to-end metric of BENCHMARK.json:

- gain: pairs are runs of both sides on the same seed; the change must win
  at least nine tenths of the pairs (ties count for neither side) and the
  medians must differ by more than the parent's own spread (the distance
  between its quartiles);
- regressed: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: the parent's spread is wider than the bound, unless every
  change run is better than every parent run;
- otherwise: no regression.

A gain does not count where more commands failed than at the parent.
Results taken on different Python versions or fuzzy-kernel backends are
refused: a compiled kernel appearing would read as a gain. Exit code 0
when nothing regressed, 1 when something did, 2 when refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MUST_MATCH = ("python", "implementation", "backend")


def load(paths: list[Path]) -> list[dict]:
    records = []
    for p in paths:
        for f in sorted(p.glob("*.json")) if p.is_dir() else [p]:
            records += [r for r in json.loads(f.read_text()) if r["trace"] == 0]
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict[int, float], change: dict[int, float], better: str,
            bound: float) -> tuple[str, str]:
    """(verdict, detail) for one metric on one workload; keys are seeds."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = list(parent.values()), list(change.values())
    pq, cq = quartiles(p), quartiles(c)
    p_med, c_med = statistics.median(p), statistics.median(c)
    spread = pq[2] - pq[0]
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * (parent[s] - change[s]) > 0)
    worse = sign * (c_med - p_med) / p_med
    detail = (f"parent {p_med:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] n={len(p)}; "
              f"change {c_med:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(c)}; "
              f"change wins {wins}/{len(seeds)} pairs; worse by {worse:+.2%} (bound {bound:.0%})")
    if seeds and wins >= 0.9 * len(seeds) and sign * (p_med - c_med) > spread:
        return ("gain" if len(seeds) >= 10 else "gain (fewer than 10 pairs)"), detail
    if worse > bound:
        return "regressed", detail
    if spread / p_med > bound and not all(sign * (pv - cv) > 0 for pv in p for cv in c):
        return "unresolved", detail
    return "no regression", detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("error: no untraced records on one side", file=sys.stderr)
        return 2
    stamps = {tuple(r["stamp"][k] for k in MUST_MATCH) for r in parent + change}
    if len(stamps) > 1:
        print(f"error: results differ in {'/'.join(MUST_MATCH)}: {sorted(stamps)}; "
              "refusing to compare", file=sys.stderr)
        return 2

    regressed = False
    for workload in sorted({r["stamp"]["workload"] for r in parent}):
        side = {name: [r for r in recs if r["stamp"]["workload"] == workload]
                for name, recs in (("parent", parent), ("change", change))}
        if not side["change"]:
            print(f"{workload}: no change records")
            continue
        failed = {name: sum(r["failed"] for r in recs) for name, recs in side.items()}
        print(f"{workload}: failed commands parent {failed['parent']}, change {failed['change']}")
        for m in spec["end_to_end"]:
            values = {name: {r["stamp"]["seed"]: r["metrics"][m["name"]]["value"] for r in recs}
                      for name, recs in side.items()}
            v, detail = verdict(values["parent"], values["change"], m["better"], m["bound"])
            if v.startswith("gain") and failed["change"] > failed["parent"]:
                v = "no gain (more failures)"
            regressed |= v == "regressed"
            print(f"  {m['name']:12s} {v:28s} {detail}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
