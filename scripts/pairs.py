#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a parent checkout against a change.

For each workload, runs ``perfbench/run.py --trace 0`` in the root of each
checkout ``--pairs`` times, alternating which of the two runs first, then
prints per end-to-end metric the median and quartiles [25 %, 75 %] of each
side's runs, in how many pairs the change did better, and a verdict:
``gain`` when at least ten pairs ran, the change did better in at least 9 of
10 of them and its median is better than the parent's by more than the
parent's interquartile range; ``worse`` when its median is worse by more
than the metric's ``bound`` (a fraction of the parent's median); and
``unresolved`` otherwise.  Metric names, which way is better and the bounds
come from the change checkout's ``BENCHMARK.json``; ``--log`` keeps every
run's result line.

Either side is a directory, or a revision of the git repository the command
runs in, which is exported with ``git archive`` into a temporary directory
that is removed at the end: the same code can read slower from a working
checkout than from a fresh export, so compare two exports.

Example (ten pairs of the models workload, twenty seconds a run):
    python scripts/pairs.py HEAD~1 HEAD --workloads models_loo --pairs 10
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The result line, the last line `run.py` prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: {workload} exited with code {proc.returncode}")
    return lines[-1]


def checkout(side: str, stack: ExitStack) -> Path:
    """`side` as a directory, or, when it is none and names a git revision,
    a fresh export of that revision that lives as long as `stack`."""
    path = Path(side)
    if path.is_dir():
        return path
    revision = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{side}^{{commit}}"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if revision.returncode:
        return path
    root = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="pairs-")))
    # leaving the block closes the pipe before waiting, so a failed tar cannot stall git
    with subprocess.Popen(["git", "archive", revision.stdout.strip()], stdout=subprocess.PIPE) as archive:
        untar = subprocess.run(["tar", "-x", "-C", str(root)], stdin=archive.stdout)
    if archive.returncode or untar.returncode:
        raise SystemExit(f"{side}: git archive failed")
    return root


def summarize(workload: str, pairs: list[tuple[str, str]], end_to_end: list[dict]) -> list[str]:
    """One line per metric of `end_to_end` (entries of BENCHMARK.json) over
    `pairs` of (parent, change) result lines."""
    results = [[json.loads(line)["metrics"] for line in pair] for pair in pairs]
    out = []
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        parent, change = (np.array([r[side][name]["value"] for r in results], dtype=float)
                          for side in (0, 1))
        wins = int(np.sum(sign * (change - parent) < 0))
        (p25, p50, p75), (c25, c50, c75) = (np.percentile(v, [25, 50, 75]) for v in (parent, change))
        if len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and sign * (p50 - c50) > p75 - p25:
            verdict = "gain"
        elif sign * (c50 - p50) > spec["bound"] * abs(p50):
            verdict = "worse"
        else:
            verdict = "unresolved"
        out.append(f"{workload} {name}: parent {p50:.4g} [{p25:.4g}, {p75:.4g}]  "
                   f"change {c50:.4g} [{c25:.4g}, {c75:.4g}]  better in {wins}/{len(pairs)}  "
                   f"{verdict}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout or git revision of the parent commit")
    p.add_argument("change", help="checkout or git revision of the change")
    p.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=44)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--log", type=Path, help="append every run's result to this JSON-lines file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    with ExitStack() as stack:
        roots = {side: checkout(getattr(args, side), stack) for side in ("parent", "change")}
        bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                lines = {side: run_once(roots[side], workload, args.seed, args.seconds)
                         for side in sides}
                pairs.append((lines["parent"], lines["change"]))
                if args.log:
                    with args.log.open("a") as f:
                        for side in sides:
                            f.write(json.dumps({"workload": workload, "pair": i, "side": side,
                                                "result": json.loads(lines[side])}) + "\n")
                print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            print("\n".join(summarize(workload, pairs, bench["end_to_end"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
