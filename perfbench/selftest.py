"""Self-test: two traced runs on one seed must give identical work counts.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload (all four by default), under
different hash seeds, and compares every count metric and every ratio of
counts (``kept_ratio``, the IBP cache ``hit_ratio``) exactly.  Timings and
shares of time are not compared.  Exits 1 on any difference or failed check.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

EXACT_RATIOS = ("kept_ratio", "hit_ratio")


def traced_counts(name: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"selftest: {name} failed {result['failed']} checks")
    return {
        k: v["value"] for k, v in result["metrics"].items()
        if v["unit"] == "count" or k.endswith(EXACT_RATIOS)
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    bad = 0
    for name in args.workloads:
        first = traced_counts(name, args.seed, "1")
        second = traced_counts(name, args.seed, "2")
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        bad += bool(diff)
        print(f"{name}: {len(first)} counts, " + (f"DIFFER {diff}" if diff else "identical"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
