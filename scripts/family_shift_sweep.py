#!/usr/bin/env python3
"""Device-family Lamb-shift sweep: ``dispersive-cqed family-sweep`` by its script name."""

import sys

from dispersive_cqed import cli


def main(argv=None) -> int:
    return cli.main(["family-sweep", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
