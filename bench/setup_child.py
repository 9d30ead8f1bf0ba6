"""One set-up measurement in a fresh interpreter: cold ``import opcurve``
plus building a workload's initial program state.

    python3 bench/setup_child.py WORKLOAD SEED WORKDIR

Generating the seeded inputs happens first and is not counted.  Prints
the measured seconds on stdout.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402


def main(argv):
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    data = inputs.generate(workload, seed)
    t0 = perf_counter()
    import workloads
    workloads.build(workload, data, workdir)
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
