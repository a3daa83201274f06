"""Writes the reference answers in bench/reference/ from the library as it
is checked out, with seed 0:

    python3 bench/freeze.py [WORKLOAD ...]

Run it only on a commit whose answers are trusted; every later benchmark run
is compared with these files.  It refuses to write a workload whose answers
differ between seed 0 and seed 1, since the reference must not depend on the
seed.
"""

from __future__ import annotations

import json
import sys

from run import ROOT
from workloads import REFERENCE_DIR, WORKLOADS, Library


def answers(workload, lib, seed):
    found, checks = workload.iterate(lib, workload.prepare(lib, workload.draw(seed)))
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise SystemExit(f"{workload.name}: catalog checks fail: {failed}")
    return found


def main(names):
    lib = Library(ROOT)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        found = answers(workload, lib, 0)
        if answers(workload, lib, 1) != found:
            raise SystemExit(f"{name}: answers depend on the seed; nothing written")
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(found, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
