"""End-to-end and per-layer benchmark for chiral_qfim.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
