"""Cold-CLI benchmark for crystalgraphs.

Each workload is one fixed `crystalgraphs` command.  Every launch is a fresh
interpreter, run one at a time (a closed loop with one client), so each run
starts with the cold module-level caches a command-line user sees.  Every
output is checked against a golden recorded from the reference commit.

Usage (from any directory; paths are resolved from this file):

    python3 bench/run.py --workload kp-c2 --seed 0 --seconds 60 --trace 0

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``wall_s``, ``peak_rss_mb``, ``setup_s``); the two times are scaled to a
reference host speed, measured by ``calibrate.py`` launches between the
workload launches (see README.md).  With ``--trace 1`` it reports the
per-layer metrics of one traced launch (see ``tracer.py``); this file never
imports the tracer itself.  Earlier stdout lines hold a JSON record of the
environment and of every launch.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = BENCH / "goldens.json"

# One benchmark run must exit within 180 s; launches share this budget, so a
# launch that would overrun it is killed and recorded as a timed-out failure.
RUN_BUDGET_S = 150.0
SETUP_BATCH = 3
CALIBRATION = BENCH / "calibrate.py"
CALIBRATION_CHECKSUM = "40002289184"
# About the calibration program's wall time on the 2-vCPU Intel Xeon virtual
# machine the benchmark was built on, while its host was quiet.  wall_s and
# setup_s are scaled to the host speed at which it takes this long.  It is a
# fixed unit: changing it rescales every past and future figure alike.
REFERENCE_CALIBRATION_S = 1.4


class Workload(NamedTuple):
    argv: tuple[str, ...]  # CLI arguments other than --colours and --bound
    rank: int
    bound: tuple[int, ...]


WORKLOADS = {
    # Operator layer: OperatorElement products dominate.
    "kp-c2": Workload(("verify", "--type", "C2", "--suite", "kp"), 2, (2, 1)),
    # Crystal, braiding, hrgraph and rootdata layers with no operator work.
    # Not in BENCHMARK.json: its 9-15 s launches leave too few per run to be
    # steady on a noisy host (see README.md); run it by name.
    "graph-b3": Workload(("verify", "--type", "B3", "--suite", "graph"), 3, (1, 1, 1)),
    # Large tensor decompositions at high degree, plus JSON serialization.
    "export-g2": Workload(("graph", "--type", "G2", "--emit", "json"), 2, (3, 2)),
    # Sub-second workload for the benchmark's own tests; not in BENCHMARK.json.
    "tiny-a2": Workload(("verify", "--type", "A2", "--suite", "all"), 2, (1, 1)),
}

SETUP_CODE = (
    "import sys, crystalgraphs\n"
    "from crystalgraphs.rootdata import build_root_datum, weyl_group\n"
    "group = weyl_group(build_root_datum(sys.argv[1]))\n"
    "print(','.join(map(str, group.longest_word)))\n"
)


class BenchError(Exception):
    """The benchmark cannot run at all (as opposed to a failed launch)."""


class Launch(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int | None  # None when the launch was killed for time
    stdout: str
    stderr: str


def permutation(rank: int, seed: int) -> tuple[int, ...]:
    """The seed-th permutation of the colours in lexicographic order, so
    seed 0 is the identity and seeds cycle through all rank! orders."""
    perms = list(itertools.permutations(range(rank)))
    return perms[seed % len(perms)]


def cli_args(workload: Workload, perm: tuple[int, ...]) -> list[str]:
    """CLI arguments with the fundamental colours and the bound permuted
    together; the identity gives the plain command with default colours."""
    bound = ",".join(str(workload.bound[k]) for k in perm)
    args = list(workload.argv) + ["--bound", bound]
    if perm != tuple(range(workload.rank)):
        colours = ";".join(
            ",".join(str(int(j == k)) for j in range(workload.rank)) for k in perm
        )
        args += ["--colours", colours]
    return args


def perm_key(perm: tuple[int, ...]) -> str:
    return ",".join(map(str, perm))


def child_env() -> dict[str, str]:
    # Only this checkout's sources, never an installed copy of the package.
    return {**os.environ, "PYTHONPATH": str(SRC)}


def launch(argv: list[str], timeout: float) -> Launch:
    """Run one child to exit; its rusage comes from wait4 on that child alone."""
    killed = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.1), kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        reader.join()
        timer.cancel()
        timer.join()  # no kill may race with reaping below
        # Reap the child on every path, so no launch outlives the benchmark.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=None if killed.is_set() else proc.returncode,
        stdout=out.decode("utf-8", "replace"),
        stderr=b"".join(err).decode("utf-8", "replace"),
    )


def summarize_report(text: str) -> dict:
    """PASS/FAIL line counts and the case total of a verification report."""
    passes = fails = cases = 0
    for line in text.splitlines():
        passes += line.startswith("PASS ")
        fails += line.startswith("FAIL ")
        if line.endswith(" cases)") and "(" in line:
            cases += int(line[line.rindex("(") + 1 : -len(" cases)")])
    return {"pass_lines": passes, "fail_lines": fails, "cases_total": cases}


def summarize_export(text: str) -> dict:
    """Vertex and path counts and a digest of a JSON export, read back through
    the library's own parser."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from crystalgraphs.hrgraph import graph_tables_from_json

    vertices, paths = graph_tables_from_json(text)
    digest = hashlib.sha256(repr((vertices, paths)).encode()).hexdigest()
    return {"vertices": len(vertices), "paths": len(paths), "digest": digest}


def summarize(workload: Workload, text: str) -> dict:
    if workload.argv[0] == "graph":
        return summarize_export(text)
    return summarize_report(text)


def check(workload: Workload, run: Launch, golden: dict) -> str:
    """Empty when the launch succeeded and matches its golden, else why not."""
    if run.returncode is None:
        return "timed out"
    if run.returncode != 0:
        return f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"
    try:
        got = summarize(workload, run.stdout)
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable output: {err}"
    if got != golden:
        return f"output {got} differs from golden {golden}"
    return ""


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    """Read-only facts about the machine a set of runs used."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), ""
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def setup_argv(workload: Workload) -> list[str]:
    return [sys.executable, "-c", SETUP_CODE, workload.argv[2]]


def warm_up(workload: Workload, deadline: float) -> str:
    """One untimed launch that writes bytecode caches and proves the package
    imports; returns the library's default reduced word for w0."""
    if not (SRC / "crystalgraphs" / "__init__.py").is_file():
        raise BenchError(f"no crystalgraphs sources under {SRC}")
    run = launch(setup_argv(workload), deadline - time.perf_counter())
    if run.returncode != 0:
        raise BenchError(f"crystalgraphs does not import from {SRC}: {run.stderr.strip()[-500:]}")
    return run.stdout.strip()


def calibrate(deadline: float) -> float:
    """Wall time of one launch of the fixed reference program."""
    run = launch([sys.executable, str(CALIBRATION)], deadline - time.perf_counter())
    if run.returncode != 0 or run.stdout.strip() != CALIBRATION_CHECKSUM:
        raise BenchError(f"the calibration launch failed: {run.stderr.strip()[-500:]}")
    return run.wall_s


def measure(name: str, seed: int, seconds: float, trace: bool, goldens: dict) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, record of the run)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    workload = WORKLOADS[name]
    perm = permutation(workload.rank, seed)
    args = cli_args(workload, perm)
    golden = goldens[name][perm_key(perm)]
    record = {
        "workload": name,
        "seed": seed,
        "permutation": list(perm),
        "command": ["crystalgraphs"] + args,
        "environment": environment(),
        "loadavg_before": loadavg(),
    }
    record["w0_word"] = warm_up(workload, deadline)
    cli = [sys.executable, "-m", "crystalgraphs.cli"] + args
    runs: list[Launch] = []
    errors: list[str] = []

    def run_checked(argv: list[str]) -> Launch:
        run = launch(argv, deadline - time.perf_counter())
        runs.append(run)
        errors.append(check(workload, run, golden))
        return run

    if trace:
        metrics, record["untraced_targets"] = traced_metrics(name, cli, args, run_checked)
    else:
        setup: list[float] = []
        calibration: list[float] = []

        def setup_batch() -> None:
            for _ in range(SETUP_BATCH):
                run = launch(setup_argv(workload), deadline - time.perf_counter())
                if run.returncode != 0:
                    raise BenchError(f"a set-up launch failed: {run.stderr.strip()[-500:]}")
                setup.append(run.wall_s)

        # Each workload launch follows a calibration launch and a set-up
        # batch, and one more of each closes the run, so that the calibration
        # and set-up samples cover the same spells of host speed as the
        # workload launches.
        measured_from = cycle_from = time.perf_counter()
        longest = 0.0
        while True:
            calibration.append(calibrate(deadline))
            setup_batch()
            run_checked(cli)
            now = time.perf_counter()
            longest, cycle_from = max(longest, now - cycle_from), now
            # Start another cycle only if one as slow as the slowest so far
            # still fits.
            if now - measured_from + longest > min(seconds, deadline - measured_from):
                break
        calibration.append(calibrate(deadline))
        setup_batch()
        walls = [r.wall_s for r in runs]
        # Times are scaled to the host speed at which the calibration program
        # takes REFERENCE_CALIBRATION_S: on a shared host that speed swings by
        # up to 50% for minutes at a time, and the calibration swings with it.
        scale = REFERENCE_CALIBRATION_S / statistics.mean(calibration)
        record.update(
            wall_raw_s=walls, setup_raw_s=setup, calibration_s=calibration, host_scale=scale
        )
        metrics = {
            "wall_s": {"value": statistics.mean(walls) * scale, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([r.peak_rss_mb for r in runs]), "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup) * scale, "unit": "s"},
        }
    record["launches"] = [
        {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb,
         "returncode": r.returncode, "error": e}
        for r, e in zip(runs, errors)
    ]
    record["loadavg_after"] = loadavg()
    failed = sum(1 for e in errors if e)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def traced_metrics(name: str, cli: list[str], args: list[str], run_checked) -> tuple[dict, list]:
    """One untraced and one traced launch; returns the per-layer metrics and
    the layer functions the tracer could not find."""
    plain = run_checked(cli)
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"{name}.spans"
    summary = WORK / f"{name}.summary.json"
    summary.unlink(missing_ok=True)
    traced = run_checked(
        [sys.executable, str(BENCH / "tracer.py"), str(spans), str(summary)] + args
    )
    if traced.returncode is None or not summary.exists():
        raise BenchError(f"the traced launch wrote no summary: {traced.stderr.strip()[-500:]}")
    with open(summary, encoding="utf-8") as handle:
        written = json.load(handle)
    layers = written["metrics"]
    layers["cli.cpu_s"] = plain.cpu_s
    layers["cli.wall_s"] = plain.wall_s
    layers["cli.traced_wall_s"] = traced.wall_s
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    layers["report.cases_total"] = summarize_report(plain.stdout)["cases_total"]
    metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in sorted(layers.items())}
    return metrics, written["missing"]


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        goldens = load_goldens()
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), goldens)
    except (BenchError, OSError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
