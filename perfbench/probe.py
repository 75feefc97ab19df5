"""Set-up probe: import bdsched, build one workload, then report readiness.

run.py starts this script in fresh processes and times each from process
start to the "ready" line, the point where the benchmark would make its
first call into bdsched.harness.

    python3 perfbench/probe.py <workload> <seed> <tiny 0|1>
"""

import sys

import workloads


def main() -> None:
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    workloads.round_of(workloads.workload(name, tiny), seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
