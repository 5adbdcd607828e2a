"""Compare two result files of ``sweep.py``, or show the spread of one.

    python3 perfbench/compare.py perfbench/results/base.json
    python3 perfbench/compare.py perfbench/results/base.json perfbench/results/change.json

For every workload and end-to-end metric it prints each side's median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median.  With two
files it also prints the change of the median and whether it stays
within the metric's bound from BENCHMARK.json, and it compares the
share of failed operations, which must be equal.  The exit code is 1
when any metric is worse than its bound or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _values(doc, workload, metric):
    return [r["metrics"][metric]["value"] for r in doc["runs"].get(workload, [])]


def failed_share(doc, workload) -> float:
    runs = doc["runs"].get(workload, [])
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def spread_table(doc: dict, spec: dict) -> str:
    lines = [f"{'workload':<15} {'metric':<12} {'n':>3} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7} {'bound/3':>7}"]
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            vals = _values(doc, w["name"], m["name"])
            if not vals:
                continue
            q1, med, q3 = summary(vals)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 or m["name"] == "setup_s" else "  WIDE"
            lines.append(
                f"{w['name']:<15} {m['name']:<12} {len(vals):>3} {q1:>10.4f} {med:>10.4f} "
                f"{q3:>10.4f} {spread:>7.3f} {m['bound'] / 3:>7.3f}{flag}"
            )
        if doc["runs"].get(w["name"]):
            lines.append(f"{w['name']:<15} failed share {failed_share(doc, w['name'])}")
    return "\n".join(lines)


def compare_table(a: dict, b: dict, spec: dict) -> tuple[str, bool]:
    ok = True
    lines = [
        f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict"
    ]
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            va, vb = _values(a, name, m["name"]), _values(b, name, m["name"])
            if not va or not vb:
                continue
            qa, qb = summary(va), summary(vb)
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if m["better"] == "lower" else -change
            verdict = "within bound" if worse <= m["bound"] else "WORSE than bound"
            ok &= worse <= m["bound"]
            lines.append(
                f"{name:<15} {m['name']:<12} {qa[1]:>10.4f} [{qa[0]:.4f}, {qa[2]:.4f}] "
                f"{qb[1]:>10.4f} [{qb[0]:.4f}, {qb[2]:.4f}] {change:>+8.3f} {m['bound']:>6.2f}  {verdict}"
            )
        if a["runs"].get(name) and b["runs"].get(name):
            fa, fb = failed_share(a, name), failed_share(b, name)
            same = fa == fb
            ok &= same
            lines.append(f"{name:<15} failed share A {fa} B {fb}: {'same' if same else 'DIFFERENT'}")
    return "\n".join(lines), ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", type=Path)
    args = ap.parse_args(argv)
    if len(args.files) > 2:
        ap.error("give one or two result files")
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    docs = [json.loads(f.read_text(encoding="utf-8")) for f in args.files]
    if len(docs) == 1:
        print(spread_table(docs[0], spec))
        return 0
    text, ok = compare_table(docs[0], docs[1], spec)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
