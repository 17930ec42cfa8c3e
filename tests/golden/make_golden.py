#!/usr/bin/env python3
"""Regenerate the golden CLI and script outputs under ``tests/golden/``.

Every case runs one CLI subcommand (in process, through ``cli.main``) or one
experiment script at a small mode count, and writes its files into a
directory of its own.  ``tests/test_golden.py`` reruns each case and compares
the files byte for byte, together with the exit code in ``exit_codes.json``.

The CLI tables print 12 digits and cannot see a last-bit move, so two files
pin values to the bit, as ``float.hex``:

* ``reports.json``: ``lamb_shift_report`` per-mode terms, partial sums,
  normalized curve, 70 % index, comparator terms and totals on four devices
  (``REPORT_CASES``), each at two qubit frequencies; a memo miss and a memo
  hit must both reproduce them, and so must a hit at the other frequency,
  which reuses the position constants.
* ``carlson_pairs.json``: R_F and R_D on argument triples that cover the
  complete integrals with a vanishing complement, the ``sigma_tilde``
  arguments of every bundled config, signed zeros on the negative axis and
  a vanishing argument.

Regenerate only for an intended change of a printed number, and record in
CHANGES.md which digits moved and why:

    PYTHONPATH=src python3 tests/golden/make_golden.py
"""

from __future__ import annotations

import json
import runpy
import shutil
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from dispersive_cqed import lightmatter
from dispersive_cqed.cli import bundled_geometry_configs, load_run_config, main
from dispersive_cqed.elliptic import carlson_rd, carlson_rf
from dispersive_cqed.impedance import _split_frequency, calibrate_prefactor, niobium
from dispersive_cqed.lightmatter import QubitParams, lamb_shift_report
from dispersive_cqed.mattis_bardeen import moduli
from dispersive_cqed.modes import QubitLoad, secular_roots

GOLDEN_DIR = Path(__file__).resolve().parent
SCRIPTS_DIR = GOLDEN_DIR.parents[1] / "scripts"
OUT = "{out}"  # replaced by the case directory

# The six command lines of the README, with the README's arguments.
README_ARGS = {
    "conductivity": ["--nu", "2.1:20:40", "--kappa", "0.2", "--oracle"],
    "impedance": ["--freq", "1:400:100"],
    "modes": [],
    "spectral-density": ["--freq", "88:120:200"],
    "lamb-shift": ["--model", "all"],
    "kk-check": ["--probes", "4.0,40.0"],
}
MODEL_COMMANDS = ("modes", "spectral-density", "lamb-shift")
MATERIAL_CONFIG = "gap_00p6um"


def _cases() -> dict[str, tuple[str, list[str]]]:
    """Case id -> (runner, argv): runner is "cli" or a script name."""
    configs = {path.stem: str(path) for path in bundled_geometry_configs()}
    cases = {}
    for stem, path in configs.items():
        commands = README_ARGS if stem == MATERIAL_CONFIG else MODEL_COMMANDS
        for command in commands:
            argv = [command, "--config", path, *README_ARGS[command], "--out", f"{OUT}/out.csv"]
            cases[f"cli-{command}-{stem}"] = ("cli", argv)
    material = configs[MATERIAL_CONFIG]
    cases[f"cli-conductivity-real-axis-{MATERIAL_CONFIG}"] = (
        "cli",
        ["conductivity", "--config", material, "--nu", "2.1:20:40", "--out", f"{OUT}/out.csv"],
    )
    cases[f"cli-kk-check-above-gap-{MATERIAL_CONFIG}"] = (
        "cli",
        ["kk-check", "--config", material, "--probes", "4.0,40.0,95.0,150.0",
         "--out", f"{OUT}/out.csv"],
    )
    cases[f"cli-lamb-shift-json-{MATERIAL_CONFIG}"] = (
        "cli",
        ["lamb-shift", "--config", material, "--format", "json", "--out", f"{OUT}/out.json"],
    )
    cases["script-family_shift_sweep"] = (
        "family_shift_sweep",
        ["--n-max", "30", "--out", f"{OUT}/family_shift_sweep.csv"],
    )
    cases["script-family_shift_sweep-rescaled"] = (
        "family_shift_sweep",
        ["--n-max", "30", "--rescale-to", "-12.5", "--out", f"{OUT}/family_shift_sweep.csv"],
    )
    cases["script-mode_structure_export"] = (
        "mode_structure_export",
        ["--n-max", "20", "--out-dir", OUT],
    )
    return cases


CASES = _cases()


def run_case(case_id: str, out_dir: Path) -> int:
    """Run one case, writing its files into ``out_dir``; returns the exit code."""
    runner, argv = CASES[case_id]
    argv = [arg.replace(OUT, str(out_dir)) for arg in argv]
    entry = main if runner == "cli" else runpy.run_path(str(SCRIPTS_DIR / f"{runner}.py"))["main"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return entry(argv)


# ---------------------------------------------------------------------------
# Full-precision Lamb-shift reports

REPORT_FILE = GOLDEN_DIR / "reports.json"
REPORT_OMEGAS_GHZ = (4.3, 5.2)


def _report_cases() -> dict:
    """Case id -> (material, geometry, n_max, options, x_q, dipole_prefactor)."""
    runs = {path.stem: load_run_config(path) for path in bundled_geometry_configs()}
    cases = {}
    for stem in ("gap_00p6um", "gap_20p0um"):
        run = runs[stem]
        cases[stem] = (run.material, run.geometry, 30, run.solver, 0.0, 1.0)
    # The niobium line of the benchmark's qubit-frequency scan: every mode
    # below the 725 GHz gap, prefactor calibrated to a 2 % red-shift.
    base = runs["gap_00p6um"]
    nb_geometry = replace(base.geometry, g_geom=3.0e6)
    f_bare = nb_geometry.bare_frequency_ghz(secular_roots(nb_geometry, 1)[0])
    nb = calibrate_prefactor(niobium(), nb_geometry.g_geom, nb_geometry.ell_m, f_bare, 0.02)
    cases["niobium"] = (nb, nb_geometry, 50, base.solver, 0.0, 1.0)
    length = base.geometry.length
    three = replace(base.geometry, qubits=(
        QubitLoad(0.0, 1.0e-14), QubitLoad(0.37 * length, 2.0e-14),
        QubitLoad(0.81 * length, 5.0e-15),
    ))
    cases["three_load"] = (base.material, three, 30, base.solver, 0.37 * length, 1.3)
    return cases


REPORT_CASES = _report_cases()


def _hex_complex(value: complex) -> list[str]:
    return [float(value.real).hex(), float(value.imag).hex()]


def report_record(case_id: str, omega_q: float) -> dict:
    """``float.hex`` of one report's terms, partial sums, normalized curve,
    comparator terms and totals, with its 70 % convergence index."""
    material, geometry, n_max, options, x_q, dipole = REPORT_CASES[case_id]
    qubit = QubitParams(omega_q, x_q, dipole_prefactor=dipole)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = lamb_shift_report(qubit, material, geometry, n_max, options)
    totals = report.totals
    return {
        "per_mode_terms": [_hex_complex(t) for t in report.per_mode_terms],
        "partial_sums": [_hex_complex(t) for t in report.partial_sums],
        "normalized_curve": [float(t).hex() for t in report.normalized_curve],
        "convergence_index_70pct": report.convergence_index_70pct,
        "comparator_terms": [float(t).hex() for t in report.comparator_terms],
        "totals": [float(t).hex() for t in
                   (totals.dispersion, totals.below_bandgap, totals.no_dispersion)],
    }


def report_key(case_id: str, omega_q: float) -> str:
    return f"{case_id}@{omega_q!r}"


def other_omega(omega_q: float) -> float:
    """The golden qubit frequency that is not ``omega_q``."""
    (other,) = (w for w in REPORT_OMEGAS_GHZ if w != omega_q)
    return other


def _generate_reports() -> None:
    records = {}
    for case_id in REPORT_CASES:
        for omega_q in REPORT_OMEGAS_GHZ:
            lightmatter._memoised_spectrum.cache_clear()
            records[report_key(case_id, omega_q)] = report_record(case_id, omega_q)
    for case_id in REPORT_CASES:
        for omega_q in REPORT_OMEGAS_GHZ:
            lightmatter._memoised_spectrum.cache_clear()
            miss = report_record(case_id, omega_q)
            assert miss == report_record(case_id, omega_q), case_id  # memo hit
            other = other_omega(omega_q)  # a hit at a known position
            assert report_record(case_id, other) == records[report_key(case_id, other)], case_id
    REPORT_FILE.write_text(json.dumps(records, indent=1) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# Carlson (R_F, R_D) pairs

CARLSON_FILE = GOLDEN_DIR / "carlson_pairs.json"


def _sigma_tilde_triples(freq) -> list[tuple]:
    """The three Carlson argument triples of ``sigma_tilde`` at ``freq``.

    K and E at k and at k', then the incomplete F and E at (z2, k'), with
    the arguments formed as ``sigma_tilde`` forms them.
    """
    m = moduli(freq)
    k1k = m.k1 * m.k
    z2 = complex(np.sqrt(1.0 - k1k * k1k) / m.k_prime)
    zz = z2 * z2
    kp = m.k_prime
    return [
        (0.0, 1.0 - m.k * m.k, 1.0),
        (0.0, 1.0 - kp * kp, 1.0),
        (1.0 - zz, 1.0 - kp * kp * zz, 1.0),
    ]


def carlson_triples() -> list[tuple]:
    """About forty (x, y, z) triples; the real non-negative ones also run as arrays."""
    triples = [(0.0, kc2, 1.0) for kc2 in (1e-300, 1e-100, 1e-30, 1e-16, 1e-8, 0.25, 1.0)]
    triples.append((0.0, complex(1e-20, 1e-20), 1.0))
    # signed zeros on the negative real axis, and one vanishing argument
    triples += [
        (complex(-1.0, 0.0), 1.0, 2.0),
        (0.0, complex(-1.0, 0.0), 1.0),
        (0.0, complex(-1.0, -0.0), 1.0),
        (complex(-0.25, -0.0), 2.0, 1.0),
        (complex(-3.0, 0.0), 1.0, 2.0),
        (complex(0.3, 0.4), 0.0, 2.0),
    ]
    triples += [(0.5, 2.0, 3.0), (1e-20, 3.0, 1e12), (4.0, 4.0, 4.0), (7.0, 1e-8, 0.25)]
    # sigma_tilde at the first above-gap pole of every bundled config, and at
    # the last (mode 30) of the thinnest and the widest gap
    for path in bundled_geometry_configs():
        run = load_run_config(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = lamb_shift_report(QubitParams(5.0, 0.0), run.material, run.geometry, 30,
                                       run.solver)
        above = [i for i, flag in enumerate(report.below_gap) if not flag]
        picks = [above[0]] + ([29] if path.stem in ("gap_00p6um", "gap_20p0um") else [])
        for i in picks:
            pole = report.modes[i].omega_n
            triples += _sigma_tilde_triples(
                _split_frequency(run.material, complex(pole.nu, pole.kappa)))
    return [tuple(complex(t) for t in triple) for triple in triples]


def _generate_carlson() -> None:
    rows = [
        {"args": [_hex_complex(t) for t in triple],
         "rf": _hex_complex(carlson_rf(*triple)), "rd": _hex_complex(carlson_rd(*triple))}
        for triple in carlson_triples()
    ]
    CARLSON_FILE.write_text(json.dumps(rows, indent=1) + "\n", newline="\n")


def generate() -> None:
    _generate_reports()
    _generate_carlson()
    exit_codes = {}
    for case_id in CASES:
        out_dir = GOLDEN_DIR / case_id
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        exit_codes[case_id] = run_case(case_id, out_dir)
        print(f"{case_id}: exit {exit_codes[case_id]}", file=sys.stderr)
    text = json.dumps(exit_codes, indent=2, sort_keys=True) + "\n"
    (GOLDEN_DIR / "exit_codes.json").write_text(text, newline="\n")


if __name__ == "__main__":
    generate()
