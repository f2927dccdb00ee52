"""dcelab benchmark: seeded workloads, output checks and layer tracing.

Run ``python3 perfbench/run.py --help``; see README.md for the workloads
and metrics.
"""
