"""Benchmark for gegopt: workloads, correctness gate, exact-optimum oracle and tracing.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the metrics and workloads.
"""
