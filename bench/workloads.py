"""Benchmark workloads: seeded inputs, one timed operation, output checks.

Each workload is a sequence of *passes*.  A pass is one unit of user work
(a device-family sweep, a qubit-frequency scan, one walk through the README
command examples) made of several operations.  An operation is one
user-level call: one ``lamb_shift_report`` or one CLI invocation.  Inputs
are drawn from a ``numpy.random.Generator`` seeded by the caller; the
library only ever sees the generated values.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import dispersive_cqed as dc
from dispersive_cqed.cli import bundled_geometry_configs, load_run_config

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent

QUBIT_RANGE_GHZ = (4.0, 5.5)  # below every loaded fundamental (~5.9 GHz)
FAMILY_N_MAX = 30  # modes 15..30 of the aluminium family sit above the 87 GHz gap
NB_N_MAX = 50  # all 50 niobium modes stay below the 725 GHz gap
NB_QUBITS_PER_PASS = 6
NB_G_GEOM = 3.0e6  # 1/m
NB_RED_SHIFT = 0.02
CLI_TIMEOUT_S = 120.0

# Relative tolerance of every numeric comparison against a stored reference.
# It admits solver-level changes (fixed-point tolerance 1e-10, amplified at
# most ~20x by the qubit detuning) and rejects any change of physics.
RTOL = 1e-7
RTOL_GRID = 1e-10  # requested grid values echoed back in 12-digit tables
ORACLE_REL_ERR_MAX = 1e-6  # acceptance 02 tolerance
KK_RESIDUAL_MAX = 2e-2  # acceptance 04 tolerance


def child_env() -> dict:
    """This process's environment (thread pools already pinned) with ``src`` on the path."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


# ---------------------------------------------------------------------------
# numeric comparison helpers


def close(got: float, ref: float, scale: float, rtol: float = RTOL) -> bool:
    """|got - ref| <= rtol * max(|ref|, 1e-6 * scale); scale is the column size."""
    return abs(got - ref) <= rtol * max(abs(ref), 1e-6 * scale)


def compare_columns(label: str, got: dict, ref: dict, skip=()) -> list[str]:
    """Compare two parsed tables cell by cell (numbers within RTOL, text equal)."""
    errors = []
    if got["columns"] != ref["columns"]:
        return [f"{label}: columns {got['columns']} != reference {ref['columns']}"]
    if len(got["rows"]) != len(ref["rows"]):
        return [f"{label}: {len(got['rows'])} rows, reference has {len(ref['rows'])}"]
    for j, col in enumerate(ref["columns"]):
        if col in skip:
            continue
        ref_col = [r[j] for r in ref["rows"]]
        nums = [abs(v) for v in ref_col if isinstance(v, float) and math.isfinite(v)]
        scale = max(nums, default=0.0)
        for i, (g, r) in enumerate(zip((row[j] for row in got["rows"]), ref_col)):
            if isinstance(r, float) and isinstance(g, float):
                if not close(g, r, scale):
                    errors.append(f"{label}: row {i} {col} = {g!r}, reference {r!r}")
            elif g != r:
                errors.append(f"{label}: row {i} {col} = {g!r}, reference {r!r}")
            if len(errors) >= 5:
                return errors
    return errors


# ---------------------------------------------------------------------------
# in-process workloads: one lamb_shift_report per operation


def report_summary(report) -> dict:
    """The parts of a LambShiftReport the checks and references use."""
    terms = report.per_mode_terms
    return {
        "terms_re": [float(t.real) for t in terms],
        "terms_im": [float(t.imag) for t in terms],
        "totals": [report.totals.dispersion, report.totals.below_bandgap,
                   report.totals.no_dispersion],
        "index_70": int(report.convergence_index_70pct),
    }


def modal_reference(material, geometry, n_max: int, options) -> dict:
    """Seed-independent per-mode constants that fix the report at any omega_q.

    With omega_p the complex fixed point of mode n, the shift term is
    C_n/(W - omega_p) - conj(C_n)/(W + conj(omega_p)) and the comparator term
    is D_n * w_n * (1/(W - w_n) - 1/(W + w_n)) with the bare frequency w_n.
    """
    probe = dc.QubitParams(omega_q=1.0, x_q=0.0)
    rows = []
    for mode in dc.resonator_modes(geometry, n_max):
        fp = dc.fixed_point_eigenfrequency(mode.k_n, material, geometry, options)
        dispersive = replace(mode, omega_n=fp)
        plus, _ = dc.lightmatter.lamb_shift_term_branches(dispersive, probe, material, geometry)
        omega_p = complex(fp.nu, fp.kappa)
        c_n = plus * (probe.omega_q - omega_p)
        w_n = mode.omega_n.nu
        cc = dc.cc_comparator_term(mode, probe, geometry)
        d_n = cc / (w_n * (1.0 / (1.0 - w_n) - 1.0 / (1.0 + w_n)))
        below = material.reduced(w_n) < 2.0
        rows.append([fp.nu, fp.kappa, c_n.real, c_n.imag, w_n, d_n, int(below)])
    return {"columns": ["nu", "kappa", "c_re", "c_im", "bare_nu", "d", "below"], "rows": rows}


def expected_report(model: dict, omega_q: float) -> dict:
    """Report summary predicted by a modal reference at qubit frequency omega_q."""
    terms, cc, below = [], [], []
    for nu, kap, c_re, c_im, w_n, d_n, flag in model["rows"]:
        p, c = complex(nu, kap), complex(c_re, c_im)
        terms.append(c / (omega_q - p) - c.conjugate() / (omega_q + p.conjugate()))
        cc.append(d_n * w_n * (1.0 / (omega_q - w_n) - 1.0 / (omega_q + w_n)))
        below.append(flag)
    partial = np.cumsum(terms).real
    return {
        "terms_re": [t.real for t in terms],
        "terms_im": [t.imag for t in terms],
        "totals": [float(partial[-1]), float(sum(v for v, f in zip(cc, below) if f)),
                   float(sum(cc))],
        "index_70": int(np.argmax(partial / partial[-1] >= 0.70)) + 1,
    }


def compare_reports(label: str, got: dict, ref: dict) -> list[str]:
    errors = []
    for key in ("terms_re", "terms_im", "totals"):
        if len(got[key]) != len(ref[key]):
            return [f"{label}: {key} has {len(got[key])} entries, reference {len(ref[key])}"]
        scale = max((abs(v) for v in ref["terms_re"]), default=0.0)
        for i, (g, r) in enumerate(zip(got[key], ref[key])):
            if not close(g, r, scale):
                errors.append(f"{label}: {key}[{i}] = {g!r}, reference {r!r}")
    if got["index_70"] != ref["index_70"]:
        errors.append(f"{label}: convergence index {got['index_70']} != {ref['index_70']}")
    return errors[:5]


def check_below_gap_real(label: str, got: dict, model: dict) -> list[str]:
    if len(got["terms_im"]) != len(model["rows"]):
        return [f"{label}: {len(got['terms_im'])} terms, reference has {len(model['rows'])}"]
    return [
        f"{label}: below-gap term {i} has imaginary part {got['terms_im'][i]!r}"
        for i, row in enumerate(model["rows"])
        if row[1] == 0.0 and got["terms_im"][i] != 0.0
    ][:5]


@dataclass
class ReportOp:
    key: str  # "<pass>:<slot>", the shipped-reference key
    device: str
    omega_q: float


class _ReportWorkload:
    """Shared op runner and checks of the two in-process workloads."""

    in_process = True
    min_ops = 40  # so that the 75th percentile has ten ops beyond it

    def run(self, op: ReportOp, ctx):
        material, geometry = self.devices[op.device]
        qubit = dc.QubitParams(omega_q=op.omega_q, x_q=0.0)
        t0 = time.perf_counter()
        report = dc.lamb_shift_report(qubit, material, geometry, self.n_max, self.options)
        latency = time.perf_counter() - t0
        return latency, report

    def check(self, op: ReportOp, report, refs: dict, seed: int) -> list[str]:
        got = report_summary(report)
        label = f"{self.name} op {op.key} ({op.device}, omega_q={op.omega_q:.6f})"
        model = refs["model"][self.name][op.device]
        errors = check_below_gap_real(label, got, model)
        errors += compare_reports(label, got, expected_report(model, op.omega_q))
        shipped = refs["seeds"].get(str(seed), {}).get(self.name, {}).get(op.key)
        if shipped is not None:
            errors += compare_reports(label + " [seed reference]", got, shipped)
        return errors


class FamilyAboveGap(_ReportWorkload):
    name = "family_above_gap"

    def __init__(self):
        self.n_max = FAMILY_N_MAX
        self.devices = {}
        for path in bundled_geometry_configs():
            run = load_run_config(path)
            self.devices[path.stem] = (run.material, run.geometry)
            self.options = run.solver

    def draw_pass(self, rng, index: int) -> list[ReportOp]:
        return [
            ReportOp(f"{index}:{slot}", device, float(rng.uniform(*QUBIT_RANGE_GHZ)))
            for slot, device in enumerate(self.devices)
        ]


def niobium_device():
    """Niobium (dirty limit) on the bundled line model, calibrated to a 2% red-shift."""
    geometry = load_run_config(bundled_geometry_configs()[0]).geometry
    geometry = dc.ResonatorGeometry(
        length=geometry.length, ell_m=geometry.ell_m, c_per_len=geometry.c_per_len,
        g_geom=NB_G_GEOM, qubits=geometry.qubits,
    )
    f_bare = geometry.bare_frequency_ghz(dc.secular_roots(geometry, 1)[0])
    material = dc.calibrate_prefactor(dc.niobium(), geometry.g_geom, geometry.ell_m,
                                      f_bare, NB_RED_SHIFT)
    return material, geometry


class NbQubitScan(_ReportWorkload):
    name = "nb_qubit_scan"

    def __init__(self):
        self.n_max = NB_N_MAX
        self.options = dc.FixedPointOptions()
        self.devices = {"niobium": niobium_device()}

    def draw_pass(self, rng, index: int) -> list[ReportOp]:
        return [
            ReportOp(f"{index}:{slot}", "niobium", float(rng.uniform(*QUBIT_RANGE_GHZ)))
            for slot in range(NB_QUBITS_PER_PASS)
        ]


# ---------------------------------------------------------------------------
# CLI workload: the six README examples, each in a fresh child process


def parse_csv(text: str) -> dict:
    """Parse a CLI CSV table into columns and rows, skipping ``# key: value`` lines."""
    lines = [line for line in text.splitlines() if line and not line.startswith("# ")]
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(int(cell) if cell.lstrip("-").isdigit() else float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return {"columns": columns, "rows": rows}


@dataclass
class CliOp:
    key: str  # "<pass>:<command>"
    command: str
    config: str  # bundled config stem
    argv: list  # arguments after the subcommand, without --config/--out
    grid: list | None  # requested grid values, checked against the first column


@dataclass
class CliResult:
    exit_code: int
    max_rss_kb: int
    stderr: str
    outputs: dict  # file tag -> parsed table
    out_dir: Path
    trace_path: Path | None


_CLI_OUTPUTS = {
    "conductivity": ["conductivity"],
    "impedance": ["impedance"],
    "modes": ["modes"],
    "spectral-density": ["spectral_density"],
    "lamb-shift": ["shift", "shift.convergence", "shift.totals"],
    "kk-check": ["kk_check"],
}


def _grid(start: float, stop: float, count: int) -> tuple[str, list]:
    return f"{start:.4f}:{stop:.4f}:{count}", list(np.linspace(
        float(f"{start:.4f}"), float(f"{stop:.4f}"), count))


class CliReadme:
    name = "cli_readme"
    in_process = False
    # Five whole passes: the median then falls inside the block of ten
    # similar-cost ops (modes, lamb-shift) between the cheap and the dear pairs.
    min_ops = 30

    def __init__(self):
        self.configs = {p.stem: p for p in bundled_geometry_configs()}
        for path in self.configs.values():
            load_run_config(path)  # fail in set-up, not in a timed op
        self.env = child_env()

    def draw_pass(self, rng, index: int) -> list[CliOp]:
        """One config per pass; endpoints and probes drawn inside the README ranges."""
        config = str(rng.choice(sorted(self.configs)))
        nu_spec, nu_grid = _grid(rng.uniform(2.1, 3.0), rng.uniform(15.0, 20.0), 40)
        f_spec, f_grid = _grid(rng.uniform(1.0, 20.0), rng.uniform(300.0, 400.0), 100)
        sd_spec, sd_grid = _grid(rng.uniform(88.0, 95.0), rng.uniform(110.0, 120.0), 200)
        probes = [round(float(rng.uniform(4.0, 10.0)), 4), round(float(rng.uniform(30.0, 40.0)), 4)]
        specs = [
            ("conductivity", ["--nu", nu_spec, "--kappa", "0.2", "--oracle"], nu_grid),
            ("impedance", ["--freq", f_spec], f_grid),
            ("modes", [], None),
            ("spectral-density", ["--freq", sd_spec], sd_grid),
            ("lamb-shift", ["--model", "all"], None),
            ("kk-check", ["--probes", ",".join(repr(p) for p in probes)], probes),
        ]
        return [CliOp(f"{index}:{cmd}", cmd, config, argv, grid) for cmd, argv, grid in specs]

    def run(self, op: CliOp, ctx):
        out_dir = ctx.work_dir / op.key.replace(":", "-")
        out_dir.mkdir(parents=True)
        first = _CLI_OUTPUTS[op.command][0]
        args = [op.command, "--config", str(self.configs[op.config].relative_to(ROOT)),
                "--out", str(out_dir / f"{first}.csv"), *op.argv]
        trace_path = None
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "dispersive_cqed.cli", *args]
        else:
            trace_path = out_dir / "trace.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(trace_path), *args]
        err_path = out_dir / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        outputs = {}
        for tag in _CLI_OUTPUTS[op.command]:
            path = out_dir / f"{tag}.csv"
            if path.is_file():
                outputs[tag] = parse_csv(path.read_text())
        result = CliResult(proc.returncode, usage.ru_maxrss, err_path.read_text(),
                           outputs, out_dir, trace_path)
        return latency, result

    def check(self, op: CliOp, result: CliResult, refs: dict, seed: int) -> list[str]:
        label = f"cli_readme op {op.key} ({op.config})"
        if result.exit_code != 0:
            return [f"{label}: exit code {result.exit_code}: {result.stderr.strip()[-300:]}"]
        missing = [t for t in _CLI_OUTPUTS[op.command] if t not in result.outputs]
        if missing:
            return [f"{label}: missing output tables {missing}"]
        errors = []
        for tag, table in result.outputs.items():
            if "status" in table["columns"]:
                errors.append(f"{label}: {tag} has a status column")
        if errors:
            return errors
        out = result.outputs
        if op.grid is not None:
            first = next(iter(out.values()))
            got = [row[0] for row in first["rows"]]
            if len(got) != len(op.grid) or not all(
                close(g, r, 1.0, RTOL_GRID) for g, r in zip(got, op.grid)
            ):
                errors.append(f"{label}: first column does not echo the requested grid")
        errors += getattr(self, "_check_" + op.command.replace("-", "_"))(label, op, out, refs)
        shipped = refs["seeds"].get(str(seed), {}).get(self.name, {}).get(op.key)
        if shipped is not None:
            for tag, ref in shipped.items():
                errors += compare_columns(f"{label} {tag} [seed reference]", out[tag], ref,
                                          skip=("rel_err", "residual"))
        return errors[:8]

    @staticmethod
    def _check_conductivity(label, op, out, refs):
        table = out["conductivity"]
        j = table["columns"].index("rel_err")
        worst = max(row[j] for row in table["rows"])
        if not worst <= ORACLE_REL_ERR_MAX:
            return [f"{label}: oracle rel_err {worst!r} > {ORACLE_REL_ERR_MAX}"]
        return []

    @staticmethod
    def _check_impedance(label, op, out, refs):
        errors = []
        for f, nu, r_s, x_s in out["impedance"]["rows"]:
            if (r_s != 0.0) if nu <= 2.0 else not r_s > 0.0:
                errors.append(f"{label}: R_s = {r_s!r} at nu = {nu!r}")
            if not x_s > 0.0:
                errors.append(f"{label}: X_s = {x_s!r} at {f!r} GHz")
        return errors

    @staticmethod
    def _check_modes(label, op, out, refs):
        ref = refs["model"]["cli_readme"][op.config]["modes"]
        return compare_columns(f"{label} modes", out["modes"], ref)

    @staticmethod
    def _check_spectral_density(label, op, out, refs):
        bad = [row for row in out["spectral_density"]["rows"] if not math.isfinite(row[1])]
        return [f"{label}: non-finite J at {bad[0][0]!r} GHz"] if bad else []

    @staticmethod
    def _check_lamb_shift(label, op, out, refs):
        ref = refs["model"]["cli_readme"][op.config]
        errors = []
        for tag in ("shift", "shift.convergence", "shift.totals"):
            errors += compare_columns(f"{label} {tag}", out[tag], ref[tag])
        below = [row[-1] for row in ref["modes"]["rows"]]
        for (n, _, im_term), flag in zip(out["shift"]["rows"], below):
            if flag and im_term != 0.0:
                errors.append(f"{label}: below-gap mode {n} term has imaginary part {im_term!r}")
        return errors

    @staticmethod
    def _check_kk_check(label, op, out, refs):
        errors = []
        for probe, lhs, rhs, residual in out["kk_check"]["rows"]:
            if not residual <= KK_RESIDUAL_MAX:
                errors.append(f"{label}: KK residual {residual!r} at {probe!r} GHz")
            if abs(residual - abs(lhs - rhs) / abs(rhs)) > 1e-9:
                errors.append(f"{label}: KK residual {residual!r} inconsistent with lhs/rhs")
        return errors


WORKLOADS = {w.name: w for w in (FamilyAboveGap, NbQubitScan, CliReadme)}
