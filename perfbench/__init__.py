"""The repository benchmark: end-to-end host cost of WiSync sweeps plus a per-layer ledger.

Run ``python3 perfbench/run.py --workload <paper|contention|fanout> --seed N
--seconds S --trace <0|1>`` from the repository root; ``README.md`` in this
directory describes the workloads, the metrics and how to read them.
"""
