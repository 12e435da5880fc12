"""Outside-in benchmark of ObjectRunner: three workloads, timed layer by layer.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
