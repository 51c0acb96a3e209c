#!/usr/bin/env python3
"""Compare two trees on the benchmark by alternating pairs of runs.

    python3 tools/bench_pairs.py --against HEAD~1 --pairs 5 --seconds 10 --out bench.json
    python3 tools/bench_pairs.py --against HEAD~1 --change HEAD --workload ring6_mitigation --out ring6.json

Each side is extracted into a fresh directory of its own: the parent
with `git archive`, the change likewise, or, by default, as the working
tree's tracked and untracked files (`git ls-files`, ignored files left
out), and its `src` is compiled once (`python -m compileall -q src`)
before its first job.  For each workload the script runs
`perfbench/run.py` of each side in turn, pair after pair, parent first
in even pairs and change first in odd ones, so a slow drift of the
machine charges both sides alike.  Pair i runs both sides at seed
`--seed` + i.

It writes one JSON record: for each workload and each end-to-end metric
of BENCHMARK.json, the runs of both sides, their medians and quartiles,
the change's median against the parent's in percent, in how many
pairs the change was better, whether the medians differ by more than
the parent's quartile spread, and whether the change meets the rule for
claiming a gain (better in at least nine tenths of the pairs, and that
gap); each run's `correct` flag and failed-op
count; each side's `wc -l src/qemsim/*.py`, per file and in total, the
line count the design aim tracks; and the machine the runs were made
on, with the Python version and PYTHONDONTWRITEBYTECODE.  Where that is
set, a job never writes the bytecode it compiles, so without the compile
ahead every job would compile qemsim from source, and the size of that
source would move `setup_s`, `peak_rss_mb` and even `wall_s`; a job
still reads bytecode compiled ahead.  `perfbench/run.py` itself compiles
nothing ahead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "worktree"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, help="the parent revision")
    p.add_argument("--change", default=WORKTREE, help=f"a revision, or {WORKTREE!r} (default)")
    p.add_argument("--workload", action="append", help="one workload; repeat for more (default: all)")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    return args


def extract(rev: str, into: Path) -> str:
    """The tree of `rev` (or the working tree) in the empty directory `into`;
    returns the commit it came from, with "+worktree" if uncommitted."""
    into.mkdir(parents=True)
    git = ["git", "-C", str(ROOT)]
    head = subprocess.run(git + ["rev-parse", "HEAD" if rev == WORKTREE else rev],
                          check=True, capture_output=True, text=True).stdout.strip()
    if rev != WORKTREE:
        archive = subprocess.run(git + ["archive", head], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
        return head
    files = subprocess.run(git + ["ls-files", "-co", "--exclude-standard", "-z"],
                           check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, files):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)
    return head + "+" + WORKTREE


def bench(tree: Path, workload: str, seconds: float, seed: int) -> tuple[dict, str]:
    """One `perfbench/run.py` run in `tree`: its JSON result and machine line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{tree.name} {workload}: exit {done.returncode}\n{done.stderr}")
    machine = next((m.group(1) for m in map(re.compile(r"; machine: (.*)").search, lines) if m), "")
    return json.loads(lines[-1]), machine


def source_lines(tree: Path) -> dict:
    """`wc -l src/qemsim/*.py` of a tree: newlines per file, and their total."""
    files = {p.name: p.read_bytes().count(b"\n") for p in sorted(tree.glob("src/qemsim/*.py"))}
    return {"total": sum(files.values()), "files": files}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], direction: str) -> dict:
    """One metric's entry of the record: both sides' `summary`, the change's
    median against the parent's in percent, the pairs the change won (ties
    count for neither), whether the medians differ by more than the
    parent's quartile spread, and whether the change meets the claim rule
    of a gain: it wins at least 0.9 of the pairs and that gap holds."""
    sign = 1 if direction == "lower" else -1
    p, c = summary(parent), summary(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    gap = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    return {
        "better": direction,
        "parent": p,
        "change": c,
        "change_pct": 100 * (c["median"] / p["median"] - 1),
        "change_wins": wins,
        "gap_past_parent_iqr": gap,
        "meets_claim_rule": wins >= 0.9 * len(parent) and gap,
    }


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor()
    match = re.search(r"^model name\s*:\s*(.*)$", text, re.M)
    return match.group(1) if match else platform.processor()


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"pairs": args.pairs, "seconds": args.seconds, "seeds": [args.seed, args.seed + args.pairs - 1],
              "order": "parent first in even pairs, change first in odd ones", "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        record["parent"] = extract(args.against, trees["parent"])
        record["change"] = extract(args.change, trees["change"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
        record["source_lines"] = {side: source_lines(tree) for side, tree in trees.items()}
        machines = set()
        for workload in workloads:
            runs = {side: [] for side in trees}
            for i in range(args.pairs):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    result, machine = bench(trees[side], workload, args.seconds, args.seed + i)
                    machines.add(machine)
                    runs[side].append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i} {side}: wall_s {wall:.6g}", flush=True)
            entry = {
                side: {"correct": [r["correct"] for r in rs], "failed_ops": [r["failed"] for r in rs]}
                for side, rs in runs.items()
            }
            for name, direction in better.items():
                parent, change = ([r["metrics"][name]["value"] for r in runs[s]] for s in trees)
                e = entry[name] = compare(parent, change, direction)
                print(f"{workload} {name}: {e['parent']['median']:.6g} -> "
                      f"{e['change']['median']:.6g} ({e['change_pct']:+.1f}%, better in "
                      f"{e['change_wins']} of {args.pairs}, gap past parent IQR "
                      f"{e['gap_past_parent_iqr']}, meets claim rule {e['meets_claim_rule']})",
                      flush=True)
            record["workloads"][workload] = entry
    record["machine"] = {
        "run_py": sorted(machines),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
