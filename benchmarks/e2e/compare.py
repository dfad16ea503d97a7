"""Compare two sets of benchmark runs metric by metric.

Usage::

    python benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` and ``B`` are files of run records written by ``run.py --out`` (A is
the parent, B the change). For every workload and metric it prints both
medians and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``: ``same`` (the medians differ by no more than the bound),
``worse`` or ``better`` (beyond it), or ``unresolved`` when either side's
own spread (inter-quartile distance over median) exceeds the bound, unless
every run of B reads better than every run of A. Per-layer metrics have no
bound and get no verdict.

Runs of all seeds are pooled: a seed draws values only, and the work of a
workload is the same for every seed (see ``workloads.py``). Runs of one
workload and seed must have identical input hashes on both sides, and all
runs the same length (``seconds``); otherwise the comparison is refused
(exit 2). The exit code is 1 when any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import stats

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: Optional[float]
) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    if stats.spread(a) > bound or stats.spread(b) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    change = sign * (stats.median(b) - stats.median(a)) / abs(stats.median(a))
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def load(path: Path) -> List[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def conflicts(a: List[dict], b: List[dict]) -> List[str]:
    """Why the two sets cannot be compared: runs of one workload and seed
    that saw different inputs, or runs of different lengths."""
    seen: Dict[Tuple[str, int], str] = {}
    changed = set()
    for record in a + b:
        key = (record["workload"], record["provenance"]["seed"])
        if seen.setdefault(key, record["input_hash"]) != record["input_hash"]:
            changed.add(key)
    found = [f"input hashes differ for {key}" for key in sorted(changed)]
    lengths = sorted({record["seconds"] for record in a + b})
    if len(lengths) > 1:
        found.append(f"run lengths differ: {lengths} s")
    return found


def samples(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if record["failed"]:
            continue
        for metric, value in record["metrics"].items():
            out.setdefault((record["workload"], metric), []).append(value)
    return out


def _cell(values: Sequence[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="runs of the parent")
    parser.add_argument("b", type=Path, help="runs of the change")
    args = parser.parse_args(argv)

    benchmark = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    a, b = load(args.a), load(args.b)
    refused = conflicts(a, b)
    if refused:
        print(f"refused: {'; '.join(refused)}", file=sys.stderr)
        return 2
    for workload in sorted({r["workload"] for r in a} & {r["workload"] for r in b}):
        seeds_a = {r["provenance"]["seed"] for r in a if r["workload"] == workload}
        seeds_b = {r["provenance"]["seed"] for r in b if r["workload"] == workload}
        if not seeds_a & seeds_b:
            print(f"note: {workload} shares no seed; inputs unverified", file=sys.stderr)
    hosts = {(r["provenance"]["nproc"], r["provenance"]["platform"]) for r in a + b}
    if len(hosts) > 1:
        print(f"note: runs come from different hosts {sorted(hosts)}", file=sys.stderr)
    for side, records in (("A", a), ("B", b)):
        failed = sum(1 for r in records if r["failed"])
        if failed:
            print(f"note: {failed} failed run(s) in {side} left out", file=sys.stderr)

    sa, sb = samples(a), samples(b)
    worse = False
    print(f"{'workload':<14} {'metric':<34} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'bound':>6}  verdict")  # fmt: skip
    for key in sorted(set(sa) & set(sb)):
        workload, metric = key
        m = spec.get(metric, {})
        v = verdict(sa[key], sb[key], m.get("better", "lower"), m.get("bound"))
        worse |= v == "worse"
        bound = "" if m.get("bound") is None else f"{m['bound']:.0%}"
        print(f"{workload:<14} {metric:<34} {_cell(sa[key]):<36} "
              f"{_cell(sb[key]):<36} {bound:>6}  {v}")  # fmt: skip
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
