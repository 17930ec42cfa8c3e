#!/usr/bin/env python3
"""Per-mode structure export for one device config.

Writes two tables into the results directory:

  <stem>.modes.csv        bare and dispersive frequency, linewidth, coupling
                          (dispersive and dispersionless, below the gap) and
                          the per-mode shift terms of both models
  <stem>.convergence.csv  normalized partial-sum curves of the three shift
                          models against mode count; an undefined curve (the
                          below-bandgap one when every mode lies above the
                          gap) is written as nan and noted on stderr

This is the data behind mode-resolved coupling and shift plots and the
convergence comparison.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from dispersive_cqed.cli import bundled_geometry_configs, load_run_config
from dispersive_cqed.errors import DomainError
from dispersive_cqed.lightmatter import coupling_strength, lamb_shift_report
from dispersive_cqed.modes import resonator_modes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--config",
        default=None,
        help="run config path (default: strongest-coupling bundled config)",
    )
    parser.add_argument("--n-max", type=int, default=60, help="mode-count cutoff")
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args(argv)

    path = Path(args.config) if args.config else bundled_geometry_configs()[0]
    run = load_run_config(path)
    material, geometry, qubit = run.material, run.geometry, run.qubit
    lossless = replace(material, impedance_prefactor=0.0)

    report = lamb_shift_report(qubit, material, geometry, args.n_max, run.solver)
    bare = resonator_modes(geometry, args.n_max)  # only for the dispersionless couplings

    mode_lines = [
        "# command: mode_structure_export",
        f"# config: {path.stem}",
        f"# N_max: {args.n_max}",
        "n,nu_bare_GHz,nu_disp_GHz,kappa_GHz,g_disp,g_cc,term_disp_MHz,term_cc_MHz",
    ]
    rows = zip(
        bare, report.modes, report.per_mode_terms, report.comparator_terms, report.below_gap
    )
    for mode_bare, mode_disp, term, cc, bare_below in rows:
        below = not material.above_gap(mode_disp.omega_n.nu)
        g_disp = coupling_strength(mode_disp, qubit, material, geometry) if below else math.nan
        g_cc = coupling_strength(mode_bare, qubit, lossless, geometry) if bare_below else math.nan
        mode_lines.append(
            f"{mode_bare.n},{mode_bare.omega_n.nu:.12e},{mode_disp.omega_n.nu:.12e},"
            f"{mode_disp.omega_n.kappa:.12e},{g_disp:.12e},{g_cc:.12e},"
            f"{term.real:.12e},{cc:.12e}"
        )

    curves = {}
    for model in ("dispersion", "below_bandgap", "no_dispersion"):
        try:
            curves[model] = report.convergence_curve(model)
        except DomainError as exc:  # below_bandgap when every mode lies above the gap
            print(f"{path.stem}: {model} curve undefined ({exc}); written as nan",
                  file=sys.stderr)
            curves[model] = [math.nan] * args.n_max
    conv_lines = [
        "# command: mode_structure_export",
        f"# config: {path.stem}",
        f"# index_70pct: {report.convergence_index_70pct}",
        "M,dispersion,below_bandgap,no_dispersion",
    ]
    for m in range(args.n_max):
        conv_lines.append(
            f"{m + 1},{curves['dispersion'][m]:.12e},"
            f"{curves['below_bandgap'][m]:.12e},{curves['no_dispersion'][m]:.12e}"
        )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    modes_path = out_dir / f"{path.stem}.modes.csv"
    conv_path = out_dir / f"{path.stem}.convergence.csv"
    modes_path.write_text("\n".join(mode_lines) + "\n", newline="\n")
    conv_path.write_text("\n".join(conv_lines) + "\n", newline="\n")
    print(f"{path.stem}: gap restarts = {len(report.restarted)}", file=sys.stderr)
    print(f"wrote {modes_path} and {conv_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
