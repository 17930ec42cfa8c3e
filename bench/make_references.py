"""Regenerate the stored references that the benchmark checks outputs against.

Usage (from the root of a source checkout):

    python3 bench/make_references.py

Writes ``bench/references/model.json`` (seed-independent: per-mode fixed
points and shift-term constants of every device, and the CLI ``modes`` and
``lamb-shift`` tables of every bundled config) and ``seed_<n>.json`` (every
output of the first passes of each workload at the shipped seeds).
Regenerate only in a change that explains why the numbers moved.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as w  # noqa: E402
from run import OUT_DIR, REFERENCE_DIR, Context  # noqa: E402

SHIPPED_SEEDS = (1, 2)
PASSES = 2


def _run_ok(workload, op, ctx):
    _, result = workload.run(op, ctx)
    if not workload.in_process:
        shutil.rmtree(result.out_dir)
        if result.exit_code != 0:
            raise RuntimeError(f"{op.key} exited {result.exit_code}: {result.stderr}")
        return result.outputs
    return w.report_summary(result)


def model_reference(ctx) -> dict:
    family = w.FamilyAboveGap()
    nb = w.NbQubitScan()
    model = {
        family.name: {name: w.modal_reference(m, g, family.n_max, family.options)
                      for name, (m, g) in family.devices.items()},
        nb.name: {name: w.modal_reference(m, g, nb.n_max, nb.options)
                  for name, (m, g) in nb.devices.items()},
    }
    cli = w.CliReadme()
    model[cli.name] = {}
    for config in sorted(cli.configs):
        tables = {}
        for command, argv in (("modes", []), ("lamb-shift", ["--model", "all"])):
            tables.update(_run_ok(cli, w.CliOp(f"ref:{config}:{command}", command, config,
                                               argv, None), ctx))
        model[cli.name][config] = tables
    return model


def seed_reference(seed: int, ctx) -> dict:
    out = {}
    for name, cls in w.WORKLOADS.items():
        workload, rng = cls(), np.random.default_rng(seed)
        out[name] = {op.key: _run_ok(workload, op, ctx)
                     for index in range(PASSES) for op in workload.draw_pass(rng, index)}
    return out


def main() -> None:
    ctx = Context(OUT_DIR / "references-tmp", None)
    ctx.work_dir.mkdir(parents=True, exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        (REFERENCE_DIR / "model.json").write_text(json.dumps(model_reference(ctx)) + "\n")
        for seed in SHIPPED_SEEDS:
            path = REFERENCE_DIR / f"seed_{seed}.json"
            path.write_text(json.dumps(seed_reference(seed, ctx)) + "\n")
    finally:
        shutil.rmtree(ctx.work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
