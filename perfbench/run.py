"""hforge benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads and metrics are declared
in BENCHMARK.json.  Every round runs in a fresh interpreter
(perfbench/one_round.py), because a user of the ``hforge`` command also
starts with cold caches.  Rounds are repeated while another one still
fits in S seconds, and every round does the same work.

``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are medians over the rounds,
and ``setup_s`` the median over the rounds and a few runs of the set-up
alone.  The median moved less from run to run than the fastest round
on a shared machine that slows rounds down in spells.

With --trace 0 the last line of standard output holds the end-to-end
metrics.  With --trace 1 the run alternates plain and traced rounds; the
per-layer metrics, ``trace.overhead_s`` among them, come from the traced
ones, and the cell and pool figures from the plain ones.

``failed`` counts the operations whose output disagreed with a check.
``correct`` is false only when a check accepted a deliberately wrong
value in its self-test or two rounds reached different verdicts; it
speaks of the operations that did not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
ROUND_TIMEOUT_S = 150
# A round that started within --seconds may run past it by this much
# before it is killed, so a 40 s run ends within 170 s.
OVERRUN_S = 130
# Set-up alone, in processes of their own before the rounds: a workload
# with long rounds fits only a few of them in a run, and setup_s is the
# median over these and the rounds' own set-ups.
SETUP_SAMPLES = 5


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_round(
    workload: str, seed: int, traced: bool, out_dir: Path, deadline: float, setup_only=False
) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HFORGE_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable,
        str(HERE / "one_round.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--traced", str(int(traced)),
        "--out-dir", str(out_dir),
    ] + ["--setup-only"] * setup_only
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    timeout = min(ROUND_TIMEOUT_S, deadline - time.monotonic())
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round of {workload} did not finish in {timeout:.0f} s")
    finally:
        # The round's pool workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"round of {workload} exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"round of {workload} printed no result")
    return json.loads(lines[-1])


def pool_figures(r: dict) -> dict:
    """Worker busy time against the wall time the workers were paid for."""
    busy = sum(r["elapsed_ns"]) / 1e9
    paid = r["wall_s"] * r["workers"]
    overhead = paid - busy if busy else 0.0
    return {
        "catalog.worker_busy_s": busy,
        "catalog.pool_overhead_s": overhead,
        "catalog.worker_idle_share": overhead / paid if busy else 0.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + args.seconds + OVERRUN_S
    for needed in ("BENCHMARK.json", "src/hforge/__init__.py", "corpus/paper.ids"):
        if not Path(needed).is_file():
            return fail(f"{needed} not found; run from the root of an hforge checkout")
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(HERE))
    import spans

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    plain, traced, setups = [], [], []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                r = run_round(args.workload, args.seed, False, out_dir, deadline, setup_only=True)
                setups.append(r["setup_s"])
        while True:
            t = time.monotonic()
            plain.append(run_round(args.workload, args.seed, False, out_dir, deadline))
            if args.trace:
                traced.append(run_round(args.workload, args.seed, True, out_dir, deadline))
            took = time.monotonic() - t
            if time.monotonic() - start + took > args.seconds:
                break
    except RuntimeError as exc:
        return fail(str(exc))

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = not any(r["vacuous_checks"] for r in rounds)
    digests = {r["verdict_digest"] for r in rounds}
    if len(digests) != 1:
        print("perfbench: verdicts differ between rounds", file=sys.stderr)
        correct = False

    if args.trace:
        values = {}
        for key in traced[0]["layers"]:
            values[key] = statistics.median(r["layers"][key] for r in traced)
        for r in plain:
            r["derived"] = {**spans.cell_stats(r["elapsed_ns"]), **pool_figures(r)}
        for key in plain[0]["derived"]:
            values[key] = statistics.median(r["derived"][key] for r in plain)
        values["oracle.points"] = plain[0]["oracle_points"]
    else:
        values = {
            key: statistics.median(r[key] for r in plain)
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in plain])

    names = {m["name"] for m in declared}
    if set(values) != names:
        return fail(f"metrics measured and declared differ: {sorted(set(values) ^ names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(plain)} plain and "
        f"{len(traced)} traced rounds in {time.monotonic() - start:.1f} s; "
        f"plain wall_s {[round(r['wall_s'], 3) for r in plain]}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
