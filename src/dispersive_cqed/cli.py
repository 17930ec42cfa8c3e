"""Command line driver: config ingestion, subcommands, deterministic emission.

Every subcommand reads one structured config file (YAML) with sections

    material:  {preset} or {gap_frequency, limit_regime, impedance_prefactor, name}
    geometry:  {f0, z0, length, g_geom, qubits: [{position, c_series}, ...]}
               or {ell_m, c_per_len, length, g_geom, qubits: [...]}
    qubit:     {omega_q, x_q, dipole_prefactor}
    solver:    {tol, max_iter, N_max}
    output:    {format: csv|json, path, precision}

Frequencies at this boundary are ordinary frequencies in GHz; reduced units
appear only in conductivity tables (labelled nu/kappa).  Unknown keys are
rejected.  Exit codes: 0 success, 2 config error (nothing written) or
output that cannot be written, 3 numerical failure (partial table written,
with a status column appended).  Missing parent directories of the output
path are created.  A write error exits 2 even when a table failed, since
the status column did not reach the file; the files of a multi-file output
are written one after another, so an earlier one, and the created
directories, may remain.

Output is deterministic: identical config and flags produce byte-identical
files (fixed float formatting, LF line endings, no timestamps).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, DispersiveCqedError, DomainError
from .impedance import (
    LimitRegime,
    Material,
    _relative_residual,
    aluminum,
    kk_parts,
    niobium,
    surface_impedance,
)
from .lightmatter import QubitParams, coupling_strength, lamb_shift_report, spectral_density
from .mattis_bardeen import ComplexFreq, sigma_oracle, sigma_tilde
from .modes import (
    FixedPointOptions,
    QubitLoad,
    ResonatorGeometry,
    derive_line_constants,
    dispersive_modes,
)

_EXIT_OK, _EXIT_CONFIG, _EXIT_NUMERICAL = 0, 2, 3
_DEFAULT_PRECISION = 12
_DEFAULT_N_MAX = 30

_PRESETS = {"aluminum": aluminum, "niobium": niobium}
_REGIMES = {
    "extreme_anomalous": LimitRegime.EXTREME_ANOMALOUS,
    "dirty": LimitRegime.DIRTY,
}


# ---------------------------------------------------------------------------
# config ingestion


def _check_keys(section: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(unknown)}")


def _as_mapping(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(obj).__name__}")
    return obj


def _build_material(section: dict) -> Material:
    _check_keys(
        section,
        {"preset", "gap_frequency", "limit_regime", "impedance_prefactor", "name"},
        "material",
    )
    if "preset" in section:
        preset = section["preset"]
        if preset not in _PRESETS:
            raise ConfigError(
                f"unknown material preset {preset!r}; choose from {sorted(_PRESETS)}"
            )
        material = _PRESETS[preset]()
        if "impedance_prefactor" in section:
            material = replace(
                material, impedance_prefactor=float(section["impedance_prefactor"])
            )
        for key in ("gap_frequency", "limit_regime", "name"):
            if key in section:
                raise ConfigError(f"material.{key} cannot be combined with a preset")
        return material
    for key in ("gap_frequency", "limit_regime", "impedance_prefactor"):
        if key not in section:
            raise ConfigError(f"material.{key} is required without a preset")
    regime = section["limit_regime"]
    if regime not in _REGIMES:
        raise ConfigError(
            f"material.limit_regime must be one of {sorted(_REGIMES)}, got {regime!r}"
        )
    return Material(
        gap_frequency=float(section["gap_frequency"]),
        limit_regime=_REGIMES[regime],
        impedance_prefactor=float(section["impedance_prefactor"]),
        name=str(section.get("name", "custom")),
    )


def _build_geometry(section: dict) -> ResonatorGeometry:
    _check_keys(
        section,
        {"f0", "z0", "length", "g_geom", "ell_m", "c_per_len", "qubits"},
        "geometry",
    )
    if "length" not in section or "g_geom" not in section:
        raise ConfigError("geometry.length and geometry.g_geom are required")
    length = float(section["length"])
    if "f0" in section:
        if "ell_m" in section or "c_per_len" in section:
            raise ConfigError("geometry: give either f0/z0 or ell_m/c_per_len, not both")
        ell_m, c_per_len = derive_line_constants(
            float(section["f0"]), float(section.get("z0", 50.0)), length
        )
    elif "ell_m" in section and "c_per_len" in section:
        ell_m, c_per_len = float(section["ell_m"]), float(section["c_per_len"])
    else:
        raise ConfigError("geometry needs f0 (with optional z0) or ell_m and c_per_len")
    qubits = []
    for i, entry in enumerate(section.get("qubits") or []):
        entry = _as_mapping(entry, f"geometry.qubits[{i}]")
        _check_keys(entry, {"position", "c_series"}, f"geometry.qubits[{i}]")
        if "position" not in entry or "c_series" not in entry:
            raise ConfigError(f"geometry.qubits[{i}] needs position and c_series")
        qubits.append(
            QubitLoad(position=float(entry["position"]), c_series=float(entry["c_series"]))
        )
    return ResonatorGeometry(
        length=length,
        ell_m=ell_m,
        c_per_len=c_per_len,
        g_geom=float(section["g_geom"]),
        qubits=tuple(qubits),
    )


def _build_qubit(section: dict) -> QubitParams:
    _check_keys(section, {"omega_q", "x_q", "dipole_prefactor"}, "qubit")
    if "omega_q" not in section or "x_q" not in section:
        raise ConfigError("qubit.omega_q and qubit.x_q are required")
    return QubitParams(
        omega_q=float(section["omega_q"]),
        x_q=float(section["x_q"]),
        dipole_prefactor=float(section.get("dipole_prefactor", 1.0)),
    )


def _build_solver(section: dict) -> tuple[FixedPointOptions, int]:
    _check_keys(section, {"tol", "max_iter", "N_max"}, "solver")
    defaults = FixedPointOptions()
    options = FixedPointOptions(
        tol=float(section.get("tol", defaults.tol)),
        max_iter=int(section.get("max_iter", defaults.max_iter)),
    )
    n_max = int(section.get("N_max", _DEFAULT_N_MAX))
    if n_max < 1:
        raise ConfigError(f"solver.N_max must be >= 1, got {n_max}")
    return options, n_max


@dataclass
class RunConfig:
    material: Material | None
    geometry: ResonatorGeometry | None
    qubit: QubitParams | None
    solver: FixedPointOptions
    n_max: int
    out_format: str
    out_path: str | None
    precision: int


def load_run_config(
    path: str | Path,
    *,
    out_override: str | None = None,
    format_override: str | None = None,
) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    raw = _as_mapping(raw if raw is not None else {}, "config")
    _check_keys(raw, {"material", "geometry", "qubit", "solver", "output"}, "config")

    material = geometry = qubit = None
    if "material" in raw:
        material = _build_material(_as_mapping(raw["material"], "material"))
    if "geometry" in raw:
        geometry = _build_geometry(_as_mapping(raw["geometry"], "geometry"))
    if "qubit" in raw:
        qubit = _build_qubit(_as_mapping(raw["qubit"], "qubit"))
        if geometry is not None and qubit.x_q > geometry.length:
            raise ConfigError(
                f"qubit.x_q = {qubit.x_q} lies beyond geometry.length = {geometry.length}"
            )
    solver, n_max = _build_solver(_as_mapping(raw.get("solver", {}), "solver"))

    out = _as_mapping(raw.get("output", {}), "output")
    _check_keys(out, {"format", "path", "precision"}, "output")
    out_format = format_override or out.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {out_format!r}")
    out_path = out_override or out.get("path")
    precision = int(out.get("precision", _DEFAULT_PRECISION))
    if not 1 <= precision <= 17:
        raise ConfigError(f"output.precision must be in [1, 17], got {precision}")
    return RunConfig(
        material=material,
        geometry=geometry,
        qubit=qubit,
        solver=solver,
        n_max=n_max,
        out_format=out_format,
        out_path=out_path,
        precision=precision,
    )


def bundled_geometry_configs() -> list[Path]:
    """Bundled coplanar-waveguide device-family configs, by increasing gap width."""
    return sorted((Path(__file__).parent / "configs").glob("gap_*um.yaml"))


def _require(run: RunConfig, command: str, *sections: str) -> None:
    for name in sections:
        if getattr(run, name) is None:
            raise ConfigError(f"the {command} command requires a {name} section")


def _parse_range(spec: str, what: str, minimum: float | None = None) -> np.ndarray:
    """'start:stop:count' inclusive range, or a single value."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"{what} must be VALUE or START:STOP:COUNT, got {spec!r}")
    try:
        numbers = [float(p) for p in parts[:2]]
        count = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} range {spec!r}: {exc}") from exc
    if count < 1:
        raise ConfigError(f"{what} range is empty: {spec!r}")
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{what} range must be finite, got {spec!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array(numbers[:1]) if len(parts) == 1 else np.linspace(*numbers, count)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} range overflows: {spec!r}")
    if minimum is not None and values.min() <= minimum:
        raise ConfigError(f"{what} values must exceed {minimum}, got minimum {values.min()}")
    return values


# ---------------------------------------------------------------------------
# table container and formatting


@dataclass
class Table:
    name: str
    columns: list
    rows: list
    metadata: list  # ordered (key, value) pairs
    status: list | None = None  # per-row status, present only after a failure

    def failed(self) -> bool:
        return self.status is not None and any(s != "ok" for s in self.status)


def _fmt(value, precision: int) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value != value:  # nan from an aborted computation
        return "nan"
    return f"{value:.{precision}e}"


def _cells(table: Table, fmt, precision: int) -> tuple[list, list]:
    """(columns, rows) with each value through ``fmt``; the status column last, if any."""
    status = table.status
    columns = list(table.columns) + (["status"] if status is not None else [])
    rows = [[fmt(v, precision) for v in row] + ([status[i]] if status is not None else [])
            for i, row in enumerate(table.rows)]
    return columns, rows


def _render_csv(table: Table, precision: int) -> str:
    columns, rows = _cells(table, _fmt, precision)
    lines = [f"# {key}: {value}" for key, value in table.metadata]
    lines.append(",".join(columns))
    lines.extend(",".join(cells) for cells in rows)
    return "\n".join(lines) + "\n"


def _json_cell(value, precision: int):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value != value:
        return None
    return float(f"{value:.{precision}e}")


def _table_payload(table: Table, precision: int) -> dict:
    columns, rows = _cells(table, _json_cell, precision)
    return {"metadata": dict(table.metadata), "columns": columns, "rows": rows}


def _render_json(tables: list[Table], precision: int) -> str:
    if len(tables) == 1:
        payload = _table_payload(tables[0], precision)
    else:
        payload = {t.name: _table_payload(t, precision) for t in tables}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sibling_path(path: str, tag: str) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + "." + tag + (p.suffix or "")))


def _write_tables(tables: list[Table], run: RunConfig) -> None:
    if run.out_path:
        Path(run.out_path).parent.mkdir(parents=True, exist_ok=True)
    if run.out_format == "json":
        text = _render_json(tables, run.precision)
        if run.out_path:
            Path(run.out_path).write_text(text, newline="\n")
        else:
            sys.stdout.write(text)
        return
    if run.out_path:
        for i, table in enumerate(tables):
            path = run.out_path if i == 0 else _sibling_path(run.out_path, table.name)
            Path(path).write_text(_render_csv(table, run.precision), newline="\n")
    else:
        chunks = [_render_csv(t, run.precision) for t in tables]
        sys.stdout.write("\n".join(chunks))


def _material_metadata(material: Material) -> list:
    desc = (
        f"{material.name} (gap_frequency={material.gap_frequency} GHz, "
        f"regime={material.limit_regime.name.lower()}, "
        f"impedance_prefactor={material.impedance_prefactor!r} Ohm)"
    )
    meta = [("material", desc)]
    if material.from_defaults:
        meta.append(("material_note", "built from library default parameters"))
    return meta


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a list of Tables)


def _fail(table: Table, row: list, exc: DispersiveCqedError) -> list[Table]:
    """End ``table`` with the failed row, marking it with the error's type."""
    table.rows.append(row)
    table.status = ["ok"] * (len(table.rows) - 1) + [type(exc).__name__]
    return [table]


def _cmd_conductivity(run: RunConfig, args: argparse.Namespace) -> list[Table]:
    nu_values = _parse_range(args.nu, "nu", minimum=2.0)
    kappa_values = _parse_range(args.kappa, "kappa")
    if kappa_values.min() < 0.0:
        raise ConfigError("kappa values must be non-negative")
    if args.oracle and kappa_values.min() <= 0.0:
        raise ConfigError("--oracle requires strictly positive kappa values")

    columns = ["nu", "kappa", "sigma1", "sigma2"]
    if args.oracle:
        columns += ["oracle_sigma1", "oracle_sigma2", "rel_err"]
    table = Table(
        name="conductivity",
        columns=columns,
        rows=[],
        metadata=[("command", "conductivity"), ("units", "reduced (nu = 2 f / f_gap)")],
    )
    for nu in nu_values:
        for kap in kappa_values:
            try:
                sigma = sigma_tilde(ComplexFreq(float(nu), float(kap)))
                row = [nu, kap, sigma.real, -sigma.imag]
                if args.oracle:
                    ref = sigma_oracle(ComplexFreq(float(nu), float(kap)))
                    row += [ref.real, -ref.imag, abs(sigma - ref) / abs(ref)]
            except DispersiveCqedError as exc:
                return _fail(table, [nu, kap] + [math.nan] * (len(columns) - 2), exc)
            table.rows.append(row)
    return [table]


def _cmd_impedance(run: RunConfig, args: argparse.Namespace) -> list[Table]:
    _require(run, "impedance", "material")
    material = run.material
    freqs = _parse_range(args.freq, "freq", minimum=0.0)
    table = Table(
        name="impedance",
        columns=["freq_GHz", "nu", "R_s_ohm", "X_s_ohm"],
        rows=[],
        metadata=[("command", "impedance")] + _material_metadata(material),
    )
    for f in freqs:
        try:
            z = surface_impedance(material, float(f))
        except DispersiveCqedError as exc:
            return _fail(table, [f, material.reduced(f), math.nan, math.nan], exc)
        table.rows.append([f, material.reduced(f), z.real, z.imag])
    return [table]


def _cmd_modes(run: RunConfig, args: argparse.Namespace) -> list[Table]:
    _require(run, "modes", "material", "geometry", "qubit")
    material, geometry, qubit = run.material, run.geometry, run.qubit
    table = Table(
        name="modes",
        columns=["n", "k_n", "nu_n_GHz", "kappa_n_GHz", "g_n_or_NA", "below_gap_flag"],
        rows=[],
        metadata=[("command", "modes"), ("N_max", str(run.n_max))]
        + _material_metadata(material),
    )
    try:
        modes = dispersive_modes(geometry, material, run.n_max, run.solver)
    except DispersiveCqedError as exc:
        return _fail(table, [0, math.nan, math.nan, math.nan, "NA", 0], exc)
    for mode in modes:
        below = not material.above_gap(mode.omega_n.nu)
        if below:
            g_n = coupling_strength(mode, qubit, material, geometry)
            g_cell: float | str = float(np.real(g_n))
        else:
            g_cell = "NA"
        table.rows.append(
            [mode.n, mode.k_n, mode.omega_n.nu, mode.omega_n.kappa, g_cell, int(below)]
        )
    return [table]


def _cmd_spectral_density(run: RunConfig, args: argparse.Namespace) -> list[Table]:
    _require(run, "spectral-density", "material", "geometry", "qubit")
    material, geometry, qubit = run.material, run.geometry, run.qubit
    freqs = _parse_range(args.freq, "freq")
    if not material.above_gap(low := freqs.min()):  # the rule is monotone in f
        raise ConfigError(f"freq values must exceed {material.gap_frequency}, got minimum {low}")
    table = Table(
        name="spectral_density",
        columns=["omega_GHz", "J"],
        rows=[],
        metadata=[("command", "spectral-density"), ("N_max", str(run.n_max))]
        + _material_metadata(material),
    )
    try:
        modes = dispersive_modes(geometry, material, run.n_max, run.solver)
    except DispersiveCqedError as exc:
        return _fail(table, [math.nan, math.nan], exc)
    for f in freqs:
        try:
            value = spectral_density(float(f), qubit, modes, material, geometry)
        except DispersiveCqedError as exc:
            return _fail(table, [f, math.nan], exc)
        table.rows.append([f, value])
    return [table]


def _cmd_lamb_shift(run: RunConfig, args: argparse.Namespace) -> list[Table]:
    _require(run, "lamb-shift", "material", "geometry", "qubit")
    material, geometry, qubit = run.material, run.geometry, run.qubit
    meta = [("command", "lamb-shift"), ("N_max", str(run.n_max))] + _material_metadata(
        material
    )
    per_mode = Table(name="per_mode", columns=["n", "re_term_MHz", "im_term_MHz"],
                     rows=[], metadata=meta + [("table", "per_mode")])
    try:
        report = lamb_shift_report(qubit, material, geometry, run.n_max, run.solver)
    except DispersiveCqedError as exc:
        return _fail(per_mode, [0, math.nan, math.nan], exc)
    for n, term in enumerate(report.per_mode_terms, start=1):
        per_mode.rows.append([n, term.real, term.imag])

    # Only the requested curves: below_bandgap is undefined when every mode
    # lies above the gap, and the other models must still print there.
    if args.model == "all":
        curves = report.convergence_curves()
    else:
        curves = {args.model: report.convergence_curve(args.model)}
    models = list(curves)
    convergence = Table(
        name="convergence",
        columns=["M"] + (["value"] if len(models) == 1 else models),
        rows=[[m + 1] + [curves[k][m] for k in models] for m in range(run.n_max)],
        metadata=meta + [("table", "convergence"), ("models", ",".join(models))],
    )
    totals = Table(
        name="totals",
        columns=["model", "total_MHz"],
        rows=[
            ["dispersion", report.totals.dispersion],
            ["below_bandgap", report.totals.below_bandgap],
            ["no_dispersion", report.totals.no_dispersion],
        ],
        metadata=meta
        + [
            ("table", "totals"),
            ("convergence_index_70pct", str(report.convergence_index_70pct)),
        ],
    )
    return [per_mode, convergence, totals]


def _cmd_kk_check(run: RunConfig, args: argparse.Namespace) -> list[Table]:
    _require(run, "kk-check", "material")
    material = run.material
    try:
        probes = [float(p) for p in args.probes.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --probes {args.probes!r}: {exc}") from exc
    if not probes:
        raise ConfigError("--probes list is empty")
    if not all(map(math.isfinite, probes)):
        raise ConfigError(f"--probes must be finite, got {args.probes!r}")
    if args.f_max is not None and not (math.isfinite(args.f_max) and args.f_max > 0.0):
        raise ConfigError(f"--f-max must be finite and positive, got {args.f_max}")
    table = Table(
        name="kk_check",
        columns=["probe_freq", "lhs", "rhs", "residual"],
        rows=[],
        metadata=[("command", "kk-check"), ("f_max_GHz", _fmt(args.f_max, 6) if args.f_max else "default")]
        + _material_metadata(material),
    )
    status = []
    for probe in probes:
        try:
            lhs, rhs = kk_parts(material, probe, f_max_ghz=args.f_max)
            table.rows.append([probe, lhs, rhs, _relative_residual(lhs, rhs)])
            status.append("ok")
        except DispersiveCqedError as exc:
            table.rows.append([probe, math.nan, math.nan, math.nan])
            status.append(type(exc).__name__)
    if any(s != "ok" for s in status):
        table.status = status
    return [table]


_HANDLERS = {
    "conductivity": _cmd_conductivity,
    "impedance": _cmd_impedance,
    "modes": _cmd_modes,
    "spectral-density": _cmd_spectral_density,
    "lamb-shift": _cmd_lamb_shift,
    "kk-check": _cmd_kk_check,
}


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="dispersive-cqed",
        description="Lossy-superconductor resonator models: conductivity, impedance, "
        "modes, spectral density, Lamb shift, causality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("conductivity", help="complex pair-breaking conductivity table")
    common(p)
    p.add_argument("--nu", required=True, help="reduced frequency VALUE or START:STOP:COUNT (> 2)")
    p.add_argument("--kappa", default="0", help="reduced decay VALUE or START:STOP:COUNT")
    p.add_argument("--oracle", action="store_true", help="add quadrature-oracle columns")

    p = sub.add_parser("impedance", help="surface impedance sweep")
    common(p)
    p.add_argument("--freq", required=True, help="frequency in GHz, VALUE or START:STOP:COUNT")

    p = sub.add_parser("modes", help="dispersive mode table")
    common(p)

    p = sub.add_parser("spectral-density", help="effective spectral density above the gap")
    common(p)
    p.add_argument("--freq", required=True, help="frequency in GHz, VALUE or START:STOP:COUNT")

    p = sub.add_parser("lamb-shift", help="per-mode shift terms, convergence, totals")
    common(p)
    p.add_argument(
        "--model",
        choices=("dispersion", "below_bandgap", "no_dispersion", "all"),
        default="all",
        help="which normalized convergence curve(s) to emit",
    )

    p = sub.add_parser("kk-check", help="Kramers-Kronig residuals of the surface impedance")
    common(p)
    p.add_argument("--probes", required=True, help="comma-separated probe frequencies in GHz")
    p.add_argument("--f-max", type=float, default=None, help="grid upper edge in GHz")

    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        run = load_run_config(
            args.config, out_override=args.out, format_override=args.format
        )
        tables = _HANDLERS[args.command](run, args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except DispersiveCqedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    try:
        _write_tables(tables, run)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    if any(t.failed() for t in tables):
        print("numerical failure: see status column", file=sys.stderr)
        return _EXIT_NUMERICAL
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
