"""The broker benchmark: windowed-DBLP workloads driven through the public API.

Run it from the repository root with::

    python3 perfbench/run.py --workload dblp_steady --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the findings
measured on the code this benchmark was introduced against.
"""
