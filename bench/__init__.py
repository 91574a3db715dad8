"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

See ``bench/README.md``; the entry point is ``python3 bench/run.py``.
"""
