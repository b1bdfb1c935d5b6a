"""Repository benchmark: seeded SPICE decks driven through the real surfaces.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` lists
the workloads, metrics and the layer → end-to-end metric map.
"""
