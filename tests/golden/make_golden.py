#!/usr/bin/env python3
"""Regenerate the golden CLI and script outputs under ``tests/golden/``.

Every case runs one CLI subcommand (in process, through ``cli.main``) or one
experiment script at a small mode count, and writes its files into a
directory of its own.  ``tests/test_golden.py`` reruns each case and compares
the files byte for byte, together with the exit code in ``exit_codes.json``.

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
from pathlib import Path

from dispersive_cqed.cli import bundled_geometry_configs, main

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


def generate() -> None:
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
