"""Steadiness check: repeat each workload over seeds and compare spreads with bounds.

    python3 perfbench/steady.py --runs 10 [--save a.json]
    python3 perfbench/steady.py --runs 10 --compare a.json

Each run is the benchmark command from ``BENCHMARK.json`` with its own seed,
its ``run_seconds`` and every one of its workloads.  For every end-to-end
metric the table gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and the spread, the
interquartile distance as a share of the median.  A spread under a third of
the metric's bound is steady, and one over the bound fails the check.  With
``--compare``, each median is also checked against a saved set: it may not
be worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [
        *command, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    if argv[0] == "python3":
        argv[0] = sys.executable
    # Exit status 1 with a result line is a run whose outputs were incorrect.
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the raw values of every run here")
    parser.add_argument("--compare", help="a file written by --save to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to form quartiles")

    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    raw: Dict[str, Dict[str, List[float]]] = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: Dict[str, List[float]] = {name: [] for name in metrics}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(spec["command"], workload, seed, spec["run_seconds"])
            ok &= bool(result["correct"])
            failed += result["failed"]
            attempted += result["attempted"]
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"{workload}: {args.runs} runs, failed {failed}/{attempted}")
        for name, metric in metrics.items():
            row = summarize(values[name])
            bound = metric["bound"]
            verdict = "steady" if row["spread"] < bound / 3 else (
                "within bound" if row["spread"] <= bound else "TOO NOISY")
            ok &= row["spread"] <= bound
            line = (
                f"  {name:16s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                f"q3 {row['q3']:<12.6g} spread {row['spread']:7.2%} / bound {bound:.0%}  {verdict}"
            )
            if workload in earlier:
                first = statistics.median(earlier[workload][name])
                drift = worse_by(first, row["median"], metric["better"])
                ok &= drift <= bound
                line += f"; vs saved median {first:.6g}: worse by {drift:+.2%}"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    print("all spreads and medians within bounds" if ok else "some metric is outside its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
