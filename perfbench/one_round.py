"""One round of one workload, in a fresh interpreter.

    python3 perfbench/one_round.py --workload NAME --seed N --traced 0|1 --out-dir DIR

Run from the root of a checkout.  A round imports ``hforge`` from
``src`` (timed as set-up), runs the workload once (timed), checks every
output, self-tests the checks, and prints one JSON object as the last
line of its standard output.  With --setup-only it stops after set-up.
A traced round also installs the span tracer, writes its spans to DIR
and adds the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up and print setup_s")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    import hforge  # noqa: F401

    import_s = time.perf_counter() - t0
    tracer = None
    if args.traced:
        spill = args.out_dir / "spill"
        spill.mkdir(parents=True, exist_ok=True)
        for stale in spill.glob("worker-*.jsonl"):
            stale.unlink()
        tracer = spans.Tracer(spill)
        tracer.install()
    work = WORKLOADS[args.workload](args.seed, tracer)
    t1 = time.perf_counter()
    work.setup()
    setup_s = import_s + time.perf_counter() - t1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    work.install_probe()

    gc.collect()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    w0 = time.perf_counter()
    out = work.run()
    wall_s = time.perf_counter() - w0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0)
    # ru_maxrss is in KiB on Linux.  Workers overlap, so the bound counts
    # the largest worker once per worker slot.
    peak_kib = self1.ru_maxrss + (work.workers * kids1.ru_maxrss if kids1.ru_maxrss else 0)
    wall_s -= work.probe.wall
    cpu_s -= work.probe.cpu
    # The checks call into the program too; they are not part of the trace.
    merged = tracer.collect() if tracer is not None else None

    attempted, reasons, sample, failed = work.check(out)
    vacuous = checks.self_test(sample)
    for reason in reasons[:10]:
        print(f"{args.workload}: check failed: {reason}", file=sys.stderr)
    for name in vacuous:
        print(f"{args.workload}: self-test: check {name!r} accepted a wrong value", file=sys.stderr)

    verdicts = json.dumps(work.verdicts(out), default=str)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "attempted": attempted,
        "failed": failed,
        "vacuous_checks": vacuous,
        "verdict_digest": hashlib.sha256(verdicts.encode()).hexdigest(),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024,
        "elapsed_ns": work.elapsed_ns(out),
        "workers": work.workers,
        "oracle_points": work.points(out),
    }
    if merged is not None:
        result["layers"] = spans.derive(merged)
        result["layers"]["trace.overhead_s"] = spans.overhead(merged)
        spans.write_spans(
            merged, args.out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
