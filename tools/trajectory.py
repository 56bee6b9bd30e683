"""Write one BENCH_<n>.json entry of the performance trajectory.

Each workload is one `crystalgraphs` command, launched as a fresh interpreter
by a small launcher process: the launcher starts the command with its
stdout in a file, reaps it with `os.wait4` and reports the wall time and the
command's own peak RSS (`ru_maxrss`).  A fresh launcher per launch keeps the
RSS the command inherits at fork down to that of a bare interpreter, however
much output this script has read.  Workloads run in rounds, one launch of
each per round, so slow drift in the host spreads over all of them alike.

The entry holds, per workload, every launch's wall time and peak RSS and
their medians; for a `verify --emit json` launch also the median
`elapsed_s` of each check and the cache table sizes of the last launch.  A
launch that outruns its timeout is killed and recorded as a timeout; a
workload is never dropped.  The script claims no gain: compare two entries,
or an entry of this checkout with one of another checkout (`--root`).

    python3 tools/trajectory.py --out BENCH_1.json
    python3 tools/trajectory.py --root ../other-checkout --out other.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# name -> (interpreter flags, CLI arguments); the verify workloads run under
# -O, as the CI steps do, and print JSON so that each check's time is read
WORKLOADS = {
    "export-g2": ((), ("graph", "--type", "G2", "--bound", "3,2", "--emit", "json")),
    "kp-c2": ((), ("verify", "--type", "C2", "--suite", "kp", "--bound", "2,1")),
    "graph-d4": (
        ("-O",),
        ("verify", "--type", "D4", "--suite", "graph", "--bound", "1,1,1,1", "--emit", "json"),
    ),
    "kp-b3": (
        ("-O",),
        ("verify", "--type", "B3", "--suite", "kp", "--bound", "1,1,1", "--emit", "json"),
    ),
}
LAUNCHES = 5
TIMEOUT_S = 300.0

# Runs in its own interpreter: argv is (timeout, stdout path, command...).
# It prints one JSON line: wall time, peak RSS in KiB and exit code, or a
# null exit code when the command was killed for time.
LAUNCHER = r"""
import json, os, signal, subprocess, sys, time
timeout, out, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
killed = []
with open(out, "wb") as sink:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=sink)
    def kill(signum, frame):
        killed.append(True)
        proc.kill()
    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
code = None if killed else os.waitstatus_to_exitcode(status)
print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "exit": code}))
"""


def launch(root: Path, flags, args, out: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, *flags, "-m", "crystalgraphs.cli", *args]
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(TIMEOUT_S), str(out), *command],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def summarize(runs: list[dict], reports: list[dict]) -> dict:
    finished = [run for run in runs if run["exit"] is not None]
    entry = {
        "launches": len(runs),
        "timeouts": len(runs) - len(finished),
        "failures": sum(run["exit"] != 0 for run in finished),
        "wall_s": [round(run["wall_s"], 4) for run in runs],
        "peak_rss_mb": [round(run["maxrss_kib"] / 1024, 1) for run in runs],
    }
    if finished:
        entry["median_wall_s"] = round(statistics.median(r["wall_s"] for r in finished), 4)
        entry["median_peak_rss_mb"] = round(
            statistics.median(r["maxrss_kib"] for r in finished) / 1024, 1
        )
    if reports:
        names = [check["name"] for check in reports[0]["checks"]]
        entry["median_check_elapsed_s"] = {
            name: round(
                statistics.median(
                    check["elapsed_s"]
                    for report in reports
                    for check in report["checks"]
                    if check["name"] == name
                ),
                6,
            )
            for name in names
        }
        # (hits, misses, entries) of every memo table, as the last launch left them
        entry["caches"] = reports[-1]["caches"]
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--root", type=Path, default=REPO, help="the checkout to measure")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    reports: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "stdout"
        for _ in range(LAUNCHES):
            for name, (flags, cli) in WORKLOADS.items():
                run = launch(root, flags, cli, out)
                runs[name].append(run)
                if run["exit"] is not None and cli[0] == "verify" and cli[-1] == "json":
                    reports[name].append(json.loads(out.read_text()))
                print(name, json.dumps(run), file=sys.stderr, flush=True)
    entry = {
        "script": "tools/trajectory.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "timeout_s": TIMEOUT_S,
        "workloads": {
            name: {
                "command": " ".join(["python3", *flags, "-m", "crystalgraphs.cli", *cli]),
                **summarize(runs[name], reports[name]),
            }
            for name, (flags, cli) in WORKLOADS.items()
        },
    }
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
