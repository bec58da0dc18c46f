"""End-to-end dispatch benchmark: replay throughput, flush latency and
service quality per workload, with an outside-in per-layer ledger.

Run ``python3 perfbench/run.py --workload immediate --seed 1 --seconds 35
--trace 0`` from the repository root; see ``perfbench/NOTES.md``.
"""
