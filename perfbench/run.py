"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric; with ``--trace 1``
it holds every per-layer metric.  The lines before it are a readable
summary.  The program is imported from ``src/`` next to this directory;
without it the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Problems listed in the summary before the rest are elided.
SHOWN_PROBLEMS = 5


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paper", "contention", "fanout"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    specs: Optional[List] = None,
    min_samples: Optional[int] = None,
) -> Dict[str, object]:
    """Measure ``workload`` and return the result object ``main`` prints.

    ``specs`` and ``min_samples`` shrink the run for the benchmark's own
    tests; the command line always uses the full grid.
    """
    from perfbench import check, measure
    from perfbench.specs import DEFAULT_SEED, REFERENCE_CONFIG, grid

    full = grid(workload, seed)
    specs = full if specs is None else specs
    pinned = check.load_expected(workload) if seed == DEFAULT_SEED else None
    checker = check.Checker(specs, pinned["digests"] if pinned else None)
    summary: List[str] = []

    if trace:
        from perfbench.ledger import traced_run

        metrics, results, shares = traced_run(workload, specs, seconds, checker, seed)
        by_position = dict(enumerate(results))
        summary.append(
            "self time by layer (profiled ledger): "
            + ", ".join(f"{layer} {share:.1%}" for layer, share in
                        sorted(shares.items(), key=lambda item: -item[1]))
        )
    else:
        passes, by_position = measure.measure(
            workload, specs, seconds, checker,
            min_samples=measure.MIN_SAMPLES if min_samples is None else min_samples,
        )
        gaps = sum(len(p.gaps) for p in passes)
        launches = sum(len(p.setup) for p in passes)
        summary.append(
            f"{len(passes)} cold passes, {len(passes) * measure.WARM_REPLAYS} cache "
            f"replays, {launches} set-up launches; spec_ms quantiles over {gaps} samples; "
            f"first_result_s {measure.first_result_s(passes):.4f} (fastest pass, unbounded)"
        )

    ordered = [by_position.get(position) for position in range(len(specs))]
    if all(result is not None for result in ordered):
        cycles = check.sim_cycles(ordered)
        speedup = check.wisync_speedup(specs, ordered, REFERENCE_CONFIG[workload])
    else:
        cycles, speedup = 0, 0.0
    if pinned and specs == full:
        checker.check_value("sim_cycles", cycles, pinned["sim_cycles"])
        checker.check_value("wisync_speedup", speedup, pinned["wisync_speedup"])
    if not trace:
        metrics = measure.end_to_end(passes, cycles, speedup)

    share = checker.failed / checker.attempted if checker.attempted else 1.0
    summary.insert(0, (
        f"perfbench {workload}: seed {seed}, {len(specs)} specs, trace {int(trace)}; "
        f"sim_cycles {cycles}, wisync_speedup {speedup:.4f}; "
        f"failed_share {share:.4f} ({checker.failed}/{checker.attempted})"
        + ("" if pinned else "; no pinned digests for this seed, results checked for agreement")
    ))
    summary.extend(f"problem: {problem}" for problem in checker.problems[:SHOWN_PROBLEMS])
    if len(checker.problems) > SHOWN_PROBLEMS:
        summary.append(f"... and {len(checker.problems) - SHOWN_PROBLEMS} more problems")
    summary.extend(
        f"  {name} = {entry['value']:.6g} {entry['unit']}" for name, entry in metrics.items()
    )
    return {
        "summary": summary,
        "result": {
            "correct": checker.correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": metrics,
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    outcome = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome["summary"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
