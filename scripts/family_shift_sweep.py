#!/usr/bin/env python3
"""Device-family Lamb-shift sweep.

For every bundled gap-width config: the loaded fundamental, the three shift
totals (full dispersive sum / below-bandgap truncation / dispersionless
comparator, all in MHz times the dipole scale) and the 70% convergence
index, at a chosen mode-count cutoff.

The full-depth run (--n-max 2500) reproduces the acceptance-gate sweep in
about 30 seconds (28-34 s in three runs on a 2-vCPU Intel Xeon host with
Python 3.11 and numpy 2.4); the default depth shows the same trends in a
fraction of that.
"""

import argparse
import sys
import time
from pathlib import Path

from dispersive_cqed.cli import bundled_geometry_configs, load_run_config
from dispersive_cqed.lightmatter import lamb_shift_report, rescaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--n-max", type=int, default=600, help="mode-count cutoff")
    parser.add_argument(
        "--rescale-to",
        type=float,
        default=None,
        metavar="MHZ",
        help="rescale each row so its dispersionless total equals this value",
    )
    parser.add_argument("--out", default="results/family_shift_sweep.csv")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    rows = []
    for path in bundled_geometry_configs():
        run = load_run_config(path)
        report = lamb_shift_report(run.qubit, run.material, run.geometry, args.n_max, run.solver)
        fundamental = report.modes[0].omega_n.nu
        if args.rescale_to is not None:
            report = rescaled(report, args.rescale_to)
        rows.append((path.stem, run.geometry.g_geom, fundamental, report))
        print(
            f"{path.stem}: f1 = {fundamental:.4f} GHz, "
            f"disp = {report.totals.dispersion:.6g} MHz, "
            f"idx70 = {report.convergence_index_70pct}, gap restarts = {len(report.restarted)}",
            file=sys.stderr,
        )
    elapsed = time.monotonic() - t0

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "# command: family_shift_sweep",
        f"# N_max: {args.n_max}",
        f"# rescale_to_MHz: {args.rescale_to if args.rescale_to is not None else 'none'}",
        "config,g_geom,fundamental_GHz,dispersion_MHz,below_bandgap_MHz,"
        "no_dispersion_MHz,index_70pct",
    ]
    for stem, g_geom, fundamental, report in rows:
        totals = report.totals
        lines.append(
            f"{stem},{g_geom:.6e},{fundamental:.12e},{totals.dispersion:.12e},"
            f"{totals.below_bandgap:.12e},{totals.no_dispersion:.12e},"
            f"{report.convergence_index_70pct}"
        )
    out.write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {out} ({len(rows)} rows, {elapsed:.0f} s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
