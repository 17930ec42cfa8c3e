"""Run one ``dispersive-cqed`` command with every layer traced.

Usage: python3 bench/cli_child.py TRACE_JSON <dispersive-cqed arguments...>

The traced counterpart of ``python -m dispersive_cqed.cli``: it installs the
tracer, calls the CLI's ``main()``, writes the spans and the duration of
``main()`` to TRACE_JSON and exits with the CLI's exit code.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import dispersive_cqed.cli as cli

    t0 = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - t0
    tracer.dump(trace_path, {"main_s": main_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
