"""Compare two result files of ``bench/run.py``: ``python3 bench/compare.py A.json B.json``.

A is the baseline (the parent commit), B the candidate.  For every
(end-to-end metric, workload) pair present in both that has a bound (the
``e2e.raw_*`` metrics have none and are not judged), the candidate's median is
held against the baseline's with the metric's own bound from
``bench/metrics.py`` (a share of the baseline median, or an absolute amount,
whichever is larger) and one verdict is printed:

``same``        the medians differ by no more than the bound
``better``      B is better by more than the bound
``worse``       B is worse by more than the bound
``unresolved``  the run-to-run spread (distance between the quartiles of
                either side) exceeds the bound and the two sets of runs
                overlap, so the data cannot tell; a wider bound is not the
                remedy — a steadier estimator or more runs are

When the spread exceeds the bound but every run of B beats (or trails) every
run of A, the verdict is ``better`` (``worse``) all the same.  Exit code 1 on
any ``worse``, so this is also the "two sets of runs of the same code agree"
check and the regression check of later changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

__all__ = ["compare", "verdict"]


def _spread(entry: dict[str, Any]) -> float:
    if "q1" in entry:
        return float(entry["q3"] - entry["q1"])
    return float(max(entry["runs"]) - min(entry["runs"]))


def verdict(baseline: dict[str, Any], candidate: dict[str, Any]) -> tuple[str, float, float]:
    """``(verdict, worse_by, allowed)`` for one metric on one workload.

    ``worse_by`` is how far the candidate's median moved in the bad
    direction (negative = improved), in the metric's unit.
    """
    sign = -1.0 if baseline["better"] == "higher" else 1.0
    worse_by = sign * (candidate["median"] - baseline["median"])
    allowed = max(
        (baseline.get("bound") or 0.0) * abs(baseline["median"]),
        baseline.get("absolute") or 0.0,
    )
    if max(_spread(baseline), _spread(candidate)) > allowed:
        ours = [sign * value for value in candidate["runs"]]
        theirs = [sign * value for value in baseline["runs"]]
        if min(ours) > max(theirs):
            return "worse", worse_by, allowed
        if max(ours) < min(theirs):
            return "better", worse_by, allowed
        return "unresolved", worse_by, allowed
    if worse_by > allowed:
        return "worse", worse_by, allowed
    if worse_by < -allowed:
        return "better", worse_by, allowed
    return "same", worse_by, allowed


def compare(baseline: dict[str, Any], candidate: dict[str, Any]) -> list[tuple[str, str, str, float, float]]:
    """One ``(workload, metric, verdict, worse_by, allowed)`` row per shared pair that has a bound."""
    rows = []
    for workload, ours in baseline["workloads"].items():
        theirs = candidate["workloads"].get(workload)
        if theirs is None:
            continue
        for metric, entry in ours["end_to_end"].items():
            gated = entry.get("bound") is not None or entry.get("absolute") is not None
            if gated and metric in theirs["end_to_end"]:
                rows.append((workload, metric, *verdict(entry, theirs["end_to_end"][metric])))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    baseline, candidate = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    rows = compare(baseline, candidate)
    print(f"{'workload':<16} {'metric':<26} {'A median':>13} {'B median':>13} {'worse by':>11} {'allowed':>10}  verdict")
    for workload, metric, outcome, worse_by, allowed in rows:
        a = baseline["workloads"][workload]["end_to_end"][metric]
        b = candidate["workloads"][workload]["end_to_end"][metric]
        print(
            f"{workload:<16} {metric:<26} {a['median']:>13.6g} {b['median']:>13.6g} "
            f"{worse_by:>11.4g} {allowed:>10.4g}  {outcome} ({a['unit']}, n={a['n']}/{b['n']})"
        )
    counts = {name: sum(1 for row in rows if row[2] == name) for name in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
