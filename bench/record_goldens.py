"""Record the goldens the benchmark checks outputs against.

    python3 bench/record_goldens.py

Runs every workload once per colour permutation with the code in this
checkout and writes bench/goldens.json.  Run it only on a commit whose outputs
are known to be right; the benchmark counts any later difference as a failure.
"""

from __future__ import annotations

import json
import math
import sys

from run import GOLDENS, WORKLOADS, cli_args, launch, perm_key, permutation, summarize


def main() -> int:
    goldens: dict[str, dict[str, dict]] = {}
    for name, workload in WORKLOADS.items():
        goldens[name] = {}
        for seed in range(math.factorial(workload.rank)):
            perm = permutation(workload.rank, seed)
            args = cli_args(workload, perm)
            run = launch([sys.executable, "-m", "crystalgraphs.cli"] + args, timeout=600)
            if run.returncode != 0:
                print(f"{name} {args}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                return 1
            goldens[name][perm_key(perm)] = summarize(workload, run.stdout)
            print(name, perm_key(perm), goldens[name][perm_key(perm)], f"{run.wall_s:.2f} s")
    with open(GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
