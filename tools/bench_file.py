"""Write BENCH_<N>.json: alternating parent/change runs of the benchmark, summarized.

    python tools/bench_file.py --pr N --parent REV [--pairs K] [--seconds S]
                               [--seeds A-B] [--claim TEXT]

REV is extracted with ``git archive`` into a temporary directory; the change
is the working tree, so leave it unedited until the file is written.  For
each workload of ``BENCHMARK.json`` the script runs K pairs of
``perfbench/run.py --trace 0``, one pair per seed, each run in its own tree.  The odd-numbered pairs run the parent first and the even-numbered
ones the change first, so a drift of the host's speed falls on both sides
alike.  Then it runs one ``--trace 1`` per side and workload, with the first
seed, for the per-layer counters.

The seeds default to 100 N + 1 .. 100 N + K, so each BENCH file uses its
own.  The file holds, per workload, the median and first and third quartile
of each end-to-end metric on each side, the number of pairs in which the
change read better (the direction is the metric's ``better`` in
``BENCHMARK.json``), the failed and attempted query counts, and every run's
last JSON line with its tree's ``src_lines`` (the lines of
``src/jthresh/*.py``).  ``--claim`` names the gain the change claims, if
any.  A pair of 30 s runs takes about 65 s, so ten pairs of three workloads
take about 35 minutes.  It is not part of tier-1.
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

ROOT = Path(__file__).resolve().parents[1]
RUN = "perfbench/run.py"
TIMEOUT_S = 300  # per run, beyond its --seconds


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((tree / "src" / "jthresh").glob("*.py")))


def run_once(tree: Path, workload: str, seed: int, seconds: float | None, trace: int) -> dict:
    """The last JSON line of one perfbench/run.py in tree, and the tree's src_lines."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        argv += ["--seconds", f"{seconds:g}"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=TIMEOUT_S + (seconds or 0))
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} failed in {tree}:\n{proc.stderr}")
    return {"src_lines": src_lines(tree), "result": json.loads(proc.stdout.splitlines()[-1])}


def _metric(side: dict, name: str) -> float:
    return side["result"]["metrics"][name]["value"]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Medians, quartiles, wins, failed and attempted counts of a workload's pairs.

    Each run is {"seed", "parent", "change"} with each side {"src_lines",
    "result"}; end_to_end is BENCHMARK.json's list of {"name", "better", ...}.
    Quartiles are ``statistics.quantiles(n=4)``'s first and third; a pair is a
    win when the change reads strictly better.  Figures are rounded to 4 places.
    """
    summary: dict = {"seeds": [run["seed"] for run in runs],
                     "median": {}, "quartiles": {}, "wins": {}}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [_metric(run[side], name) for run in runs] for side in ("parent", "change")}
        summary["median"][name] = {side: round(statistics.median(v), 4)
                                   for side, v in values.items()}
        summary["quartiles"][name] = {
            side: [round(q, 4) for q in statistics.quantiles(v, n=4)[::2]] if len(v) > 1
            else [round(v[0], 4)] * 2 for side, v in values.items()}
        summary["wins"][name] = sum(sign * (c - p) > 0
                                    for p, c in zip(values["parent"], values["change"]))
    for key in ("failed", "attempted"):
        summary[key] = {side: sum(run[side]["result"][key] for run in runs)
                        for side in ("parent", "change")}
    summary["correct"] = {side: all(run[side]["result"]["correct"] for run in runs)
                          for side in ("parent", "change")}
    summary["runs"] = runs
    return summary


def _cpu() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()  # Linux
        name = next(line.split(":", 1)[1].strip() for line in lines
                    if line.startswith("model name"))
    except (OSError, StopIteration):
        name = platform.processor() or platform.machine()
    return f"{name}, {len(os.sched_getaffinity(0))} vCPU"


def _seeds(text: str | None, pr: int, pairs: int) -> list[int]:
    if text is None:
        return list(range(100 * pr + 1, 100 * pr + pairs + 1))
    low, _, high = text.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if len(seeds) != pairs:
        sys.exit(f"--seeds {text} gives {len(seeds)} seeds for {pairs} pairs")
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="N of the BENCH_<N>.json written")
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seeds", help="A-B, one seed per pair (default 100N+1 .. 100N+K)")
    parser.add_argument("--claim", default="none", help="the gain claimed, for the description")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = _seeds(args.seeds, args.pr, args.pairs)
    parent_rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                                capture_output=True, text=True, check=True).stdout.strip()
    out: dict = {
        "description": (
            f"End-to-end metrics of {RUN} --seconds {args.seconds:g} --trace 0: the last JSON "
            f"line of each run, parent commit {parent_rev} against this change, in alternating "
            "order (the odd-numbered pair of the sequence ran the parent first). 'quartiles' "
            "holds the first and third quartile of each side's runs; 'wins' counts the pairs "
            "in which the change read better. 'trace' holds the last JSON line of one "
            f"{RUN} --trace 1 run per side and workload (seed {seeds[0]}): the per-layer "
            "counters and self times of the fixed passes. src_lines counts the lines of "
            f"src/jthresh/*.py of each side. Written by tools/bench_file.py. "
            f"Gain claimed: {args.claim}."),
        "command": f"python3 {RUN} --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "trace_command": f"python3 {RUN} --workload W --seed {seeds[0]} --trace 1",
        "parent_commit": parent_rev,
        "cpu": _cpu(),
        "python": platform.python_version(),
        "workloads": {},
        "trace": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed}
                for side in order:
                    run[side] = run_once(trees[side], workload, seed, args.seconds, 0)
                runs.append({"seed": seed, "parent": run["parent"], "change": run["change"]})
                qps = [round(_metric(run[s], "throughput_qps")) for s in ("parent", "change")]
                print(f"{workload} seed {seed}: qps parent {qps[0]} change {qps[1]}", flush=True)
            out["workloads"][workload] = summarize(runs, bench["end_to_end"])
            out["trace"][workload] = {side: run_once(trees[side], workload, seeds[0], None, 1)
                                      for side in ("parent", "change")}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
