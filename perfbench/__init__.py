"""The repository benchmark: layered metrics measured from outside the program.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
generates a workload's operands from the seed, times calls into each
layer's public functions and prints one JSON result line.  See
``perfbench/README.md`` for the metric table.
"""
