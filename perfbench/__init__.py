"""Benchmark for virann: four workloads, end-to-end metrics and a traced run.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--workload all`` runs every
workload, each in its own process.  See ``perfbench/NOTES.md``.
"""
