"""Time one set-up in a fresh interpreter and print the seconds.

Usage: python3 bench/setup_probe.py WORKLOAD

Set-up is importing ``dispersive_cqed`` and building the workload's inputs
(loading the bundled configs, building materials and geometries,
calibrating the niobium prefactor), as a user's script pays it once.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports dispersive_cqed)


def main() -> None:
    workloads.WORKLOADS[sys.argv[1]]()
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main()
