"""The repository's benchmark: four seeded workloads, one command.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  ``BENCHMARK.json`` at the root
lists the workloads and metrics; ``perfbench/run.py`` documents the method.
"""
