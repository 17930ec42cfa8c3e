#!/usr/bin/env python3
"""Per-mode structure export: ``dispersive-cqed mode-export`` by its script name."""

import sys

from dispersive_cqed import cli


def main(argv=None) -> int:
    return cli.main(["mode-export", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
