"""Run the benchmark over several seeds and keep every result in one file.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/base.json
    python3 perfbench/sweep.py --workloads corpus-oracle --seeds 11-15 --out ...

Runs ``perfbench/run.py`` once per (seed, workload), untraced and for
the ``run_seconds`` of BENCHMARK.json, seeds in the outer loop so that
a slow spell of the machine spreads over all workloads, then prints
the spread table of ``compare.py`` for the file.  The file is what
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    doc = {"seconds": seconds, "runs": {}}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for name in args.workloads.split(","):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"sweep: {name} seed {seed} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            doc["runs"].setdefault(name, []).append(result)
            brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: {brief}", file=sys.stderr)
            args.out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(compare.spread_table(doc, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
