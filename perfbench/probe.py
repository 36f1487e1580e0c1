"""Set-up probe: `python3 perfbench/probe.py WORKLOAD SEED SCALE`.

Imports ldlab from the checkout, builds the workload's field table and
inputs, then prints `ready`.  run.py times a fresh interpreter from its
start to that line, which is the work a user pays before the first call.
"""

import sys

from checkout import require_ldlab


def main(argv: list[str]) -> None:
    require_ldlab()
    import workloads
    name, seed, scale = argv
    workloads.WORKLOADS[name].inputs(int(seed), scale)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
