"""Runs every workload once and prints the end-to-end metrics as a table:

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1] [WORKLOAD ...]

Each workload runs in its own process (bench/run.py), so peak memory is per
workload.  With --trace 1 the table lists the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_one(name, args):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name}: run.py exited with code {proc.returncode}")
    env = next(line for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), json.loads(env.split(" ", 1)[1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    env = None
    for name in args.workloads:
        result, env = run_one(name, args)
        failed_ratio = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:45s} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failed_ratio':45s} {failed_ratio:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']} checks)")
    print("environment " + json.dumps(env, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
