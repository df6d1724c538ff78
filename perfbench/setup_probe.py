"""Time one cold set-up of a workload: import, then build its inputs.

Run in a fresh interpreter so that the import and every cache the
library fills are paid again:

    python3 perfbench/setup_probe.py --workload c8_wide --seed 0

Prints {"setup_s": ...} as its last line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402  (imports equibound)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true", help="shrunken workload")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    if args.small:
        wl = workloads.shrink(wl)
    workloads.set_up(wl, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
