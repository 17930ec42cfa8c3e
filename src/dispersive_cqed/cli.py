"""Command line driver: config ingestion, subcommands, deterministic emission.

Every model subcommand reads one structured config file (YAML) with sections

    material:  {preset, impedance_prefactor}
               or {gap_frequency, limit_regime, impedance_prefactor, name}
    geometry:  {f0, z0, length, g_geom, qubits: [{position, c_series}, ...]}
               or {ell_m, c_per_len, length, g_geom, qubits: [...]}
    qubit:     {omega_q, x_q, dipole_prefactor}
    solver:    {tol, max_iter, N_max}
    output:    {format: csv|json, path, precision}

--out and --format override output.path and output.format.  Frequencies at
this boundary are ordinary frequencies in GHz; reduced units appear only in
conductivity tables (labelled nu/kappa).  Unknown keys are rejected, and a
null counts as absent.  A number is a YAML number or a numeric string (YAML
reads 1e-14 as a string), never a boolean; N_max, max_iter and precision
must be whole numbers; name and path must be strings and qubits a list.  z0
(default 50 Ohm) goes only with f0: next to ell_m/c_per_len it is refused,
since those fix the line alone.  A malformed value is a config error naming
its key.  lamb-shift --model all writes a curve that is undefined
(below_bandgap when every mode lies above the gap) as nan, null in JSON,
with a note on stderr.

Two experiment subcommands take flags instead of one config and always
write CSV at 12 digits, under the header and file names of the scripts in
scripts/, which call them:

    family-sweep [--n-max 600] [--rescale-to MHZ] [--out PATH]
        one row per bundled config: loaded fundamental, the three shift
        totals and the 70% convergence index
    mode-export [--config PATH] [--n-max 60] [--out-dir DIR]
        <stem>.modes.csv (per-mode frequencies, couplings and shift terms)
        and <stem>.convergence.csv (the three curves, an undefined one nan)

Both report each config's gap-edge restarts on stderr.  Exit codes: 0
success, 2 config error (nothing written) or output that cannot be
written, 3 numerical failure (partial table written, with a status column
appended; nothing written by the experiment subcommands).  Every error is
one stderr line.  Missing parent directories of the output path are
created.  A write error exits 2 even when a table failed, since the status
column did not reach the file; the files of a multi-file output are
written one after another, so an earlier one, and the created directories,
may remain.

Output is deterministic: identical config and flags produce byte-identical
files (fixed float formatting, LF line endings, no timestamps).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
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
from .lightmatter import (_MODELS, LambShiftReport, QubitParams, coupling_strength,
                          lamb_shift_report, rescaled, spectral_density)
from .mattis_bardeen import ComplexFreq, sigma_oracle, sigma_tilde
from .modes import (
    FixedPointOptions,
    QubitLoad,
    ResonatorGeometry,
    derive_line_constants,
    dispersive_modes,
    resonator_modes,
)

_EXIT_OK, _EXIT_CONFIG, _EXIT_NUMERICAL = 0, 2, 3


# ---------------------------------------------------------------------------
# config ingestion

# Each config section's key table: key -> (kind, default), read by _read.
_REQUIRED = object()
_CONFIG = {"material": (dict, None), "geometry": (dict, None), "qubit": (dict, None),
           "solver": (dict, {}), "output": (dict, {})}
_MATERIAL = {
    "preset": ({"aluminum": aluminum, "niobium": niobium}, None),
    "gap_frequency": (float, None),
    "limit_regime": ({"extreme_anomalous": LimitRegime.EXTREME_ANOMALOUS,
                      "dirty": LimitRegime.DIRTY}, None),
    "impedance_prefactor": (float, None),
    "name": (str, None),
}
_GEOMETRY = {
    "f0": (float, None), "z0": (float, None), "ell_m": (float, None), "c_per_len": (float, None),
    "length": (float, _REQUIRED), "g_geom": (float, _REQUIRED), "qubits": (list, []),
}
_LOAD = {"position": (float, _REQUIRED), "c_series": (float, _REQUIRED)}
_QUBIT = {"omega_q": (float, _REQUIRED), "x_q": (float, _REQUIRED),
          "dipole_prefactor": (float, QubitParams.dipole_prefactor)}
_SOLVER = {"tol": (float, FixedPointOptions.tol), "max_iter": (int, FixedPointOptions.max_iter),
           "N_max": (int, 30)}
_OUTPUT = {"format": ({"csv": "csv", "json": "json"}, "csv"), "path": (str, None),
           "precision": (int, 12)}
_KIND_NAMES = {float: "a number", int: "a whole number", str: "a string", list: "a list",
               dict: "a mapping"}


def _convert(value, kind, name: str):
    """``value`` as a ``kind`` of :func:`_read`, or a ConfigError naming the key."""
    if isinstance(kind, dict):  # one of a fixed set of names
        if isinstance(value, str) and value in kind:
            return kind[value]
        raise ConfigError(f"{name} must be one of {', '.join(sorted(kind))}, got {value!r}")
    if kind in (float, int):
        try:
            number = None if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if number is not None and (kind is float or number.is_integer()):
            return kind(number)
    elif isinstance(value, kind):
        return value
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def _read(section, table: dict, context: str) -> dict:
    """The values of one config section, checked against its key table.

    A table maps each key to (kind, default).  The kind is float (a number:
    a YAML number or a numeric string, not a boolean), int (a number with an
    integral value), str, list, dict (a mapping), or a dict of the allowed
    names, which gives the value a name maps to.  A null counts as absent.
    An absent key takes its default, is an error if that is _REQUIRED, and
    is left out of the result if it is None (a default that depends on
    other keys).  Unknown keys are errors.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(section).__name__}")
    unknown = sorted(map(str, set(section) - set(table)))
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(unknown)}")
    values = {}
    for key, (kind, default) in table.items():
        if section.get(key) is not None:
            values[key] = _convert(section[key], kind, f"{context}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{context}.{key} is required")
        elif default is not None:
            values[key] = default
    return values


def _build_material(section: dict) -> Material:
    values = _read(section, _MATERIAL, "material")
    preset = values.pop("preset", None)
    if preset is not None:
        for key in ("gap_frequency", "limit_regime", "name"):
            if key in values:
                raise ConfigError(f"material.{key} cannot be combined with a preset")
        return preset(**values)
    for key in ("gap_frequency", "limit_regime", "impedance_prefactor"):
        if key not in values:
            raise ConfigError(f"material.{key} is required without a preset")
    return Material(**values)


def _build_geometry(section: dict) -> ResonatorGeometry:
    values = _read(section, _GEOMETRY, "geometry")
    if "f0" in values:
        if "ell_m" in values or "c_per_len" in values:
            raise ConfigError("geometry: give either f0/z0 or ell_m/c_per_len, not both")
        ell_m, c_per_len = derive_line_constants(values["f0"], values.get("z0", 50.0),
                                                 values["length"])
    elif "ell_m" in values and "c_per_len" in values:
        if "z0" in values:
            raise ConfigError("geometry.z0 applies only with f0, not with ell_m/c_per_len")
        ell_m, c_per_len = values["ell_m"], values["c_per_len"]
    else:
        raise ConfigError("geometry needs f0 (with optional z0) or ell_m and c_per_len")
    qubits = [QubitLoad(**_read(entry, _LOAD, f"geometry.qubits[{i}]"))
              for i, entry in enumerate(values["qubits"])]
    return ResonatorGeometry(length=values["length"], ell_m=ell_m, c_per_len=c_per_len,
                             g_geom=values["g_geom"], qubits=tuple(qubits))


@dataclass
class Output:
    """Where and how :func:`_write_tables` writes a command's tables."""

    path: str | None  # None: stdout
    format: str = "csv"
    precision: int = 12
    tagged: bool = False  # the first CSV table also goes to a tagged sibling of path


@dataclass
class RunConfig:
    material: Material | None
    geometry: ResonatorGeometry | None
    qubit: QubitParams | None
    solver: FixedPointOptions
    n_max: int
    output: Output


def load_run_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    sections = _read({} if raw is None else raw, _CONFIG, "config")

    material = _build_material(sections["material"]) if "material" in sections else None
    geometry = _build_geometry(sections["geometry"]) if "geometry" in sections else None
    qubit = None
    if "qubit" in sections:
        qubit = QubitParams(**_read(sections["qubit"], _QUBIT, "qubit"))
        if geometry is not None and qubit.x_q > geometry.length:
            raise ConfigError(
                f"qubit.x_q = {qubit.x_q} lies beyond geometry.length = {geometry.length}"
            )
    solver = _read(sections["solver"], _SOLVER, "solver")
    n_max = solver.pop("N_max")
    if n_max < 1:
        raise ConfigError(f"solver.N_max must be >= 1, got {n_max}")

    out = _read(sections["output"], _OUTPUT, "output")
    if not 1 <= out["precision"] <= 17:
        raise ConfigError(f"output.precision must be in [1, 17], got {out['precision']}")
    return RunConfig(
        material=material,
        geometry=geometry,
        qubit=qubit,
        solver=FixedPointOptions(**solver),
        n_max=n_max,
        output=Output(out.get("path"), out["format"], out["precision"]),
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
    metadata: list  # ordered (key, value) pairs
    rows: list = field(default_factory=list)
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


def _write_tables(tables: list[Table], out: Output) -> None:
    """Write to stdout, to one JSON file, or each table to one CSV file.

    The first CSV table goes to the path itself, unless the output is
    tagged, and every other one to the sibling ``<stem>.<table name><suffix>``.
    """
    if out.path:
        Path(out.path).parent.mkdir(parents=True, exist_ok=True)
    if out.format == "json":
        text = _render_json(tables, out.precision)
        if out.path:
            Path(out.path).write_text(text, newline="\n")
        else:
            sys.stdout.write(text)
        return
    if out.path:
        for i, table in enumerate(tables):
            path = out.path if i == 0 and not out.tagged else _sibling_path(out.path, table.name)
            Path(path).write_text(_render_csv(table, out.precision), newline="\n")
    else:
        chunks = [_render_csv(t, out.precision) for t in tables]
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
    material = run.material
    freqs = _parse_range(args.freq, "freq", minimum=0.0)
    table = Table(
        name="impedance",
        columns=["freq_GHz", "nu", "R_s_ohm", "X_s_ohm"],
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
    material, geometry, qubit = run.material, run.geometry, run.qubit
    table = Table(
        name="modes",
        columns=["n", "k_n", "nu_n_GHz", "kappa_n_GHz", "g_n_or_NA", "below_gap_flag"],
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
    material, geometry, qubit = run.material, run.geometry, run.qubit
    freqs = _parse_range(args.freq, "freq")
    if not material.above_gap(low := freqs.min()):  # the rule is monotone in f
        raise ConfigError(f"freq values must exceed {material.gap_frequency}, got minimum {low}")
    table = Table(
        name="spectral_density",
        columns=["omega_GHz", "J"],
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


def _curve_rows(report: LambShiftReport, models: list[str]) -> list[list]:
    """Convergence table rows: M, then the normalized curve of each model at M.

    Only the requested curves: below_bandgap is undefined when every mode
    lies above the gap, and the other models must still print there.  A run
    that asks for more than one writes an undefined one as nan, with a note.
    """
    curves = []
    for model in models:
        try:
            curves.append(report.convergence_curve(model))
        except DomainError as exc:
            if len(models) == 1:
                raise
            print(f"{model} curve undefined ({exc}); written as nan", file=sys.stderr)
            curves.append([math.nan] * len(report.normalized_curve))
    return [[m, *values] for m, values in enumerate(zip(*curves), start=1)]


def _cmd_lamb_shift(run: RunConfig, args: argparse.Namespace) -> list[Table]:
    material, geometry, qubit = run.material, run.geometry, run.qubit
    meta = [("command", "lamb-shift"), ("N_max", str(run.n_max))] + _material_metadata(
        material
    )
    per_mode = Table(name="per_mode", columns=["n", "re_term_MHz", "im_term_MHz"],
                     metadata=meta + [("table", "per_mode")])
    try:
        report = lamb_shift_report(qubit, material, geometry, run.n_max, run.solver)
    except DispersiveCqedError as exc:
        return _fail(per_mode, [0, math.nan, math.nan], exc)
    for n, term in enumerate(report.per_mode_terms, start=1):
        per_mode.rows.append([n, term.real, term.imag])

    models = list(_MODELS) if args.model == "all" else [args.model]
    convergence = Table(
        name="convergence",
        columns=["M"] + (["value"] if len(models) == 1 else models),
        rows=_curve_rows(report, models),
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


# Each config command's handler and the config sections it needs.
_MODEL_SECTIONS = ("material", "geometry", "qubit")
_HANDLERS = {
    "conductivity": (_cmd_conductivity, ()),
    "impedance": (_cmd_impedance, ("material",)),
    "modes": (_cmd_modes, _MODEL_SECTIONS),
    "spectral-density": (_cmd_spectral_density, _MODEL_SECTIONS),
    "lamb-shift": (_cmd_lamb_shift, _MODEL_SECTIONS),
    "kk-check": (_cmd_kk_check, ("material",)),
}


# ---------------------------------------------------------------------------
# experiment commands: each loads its own configs and names its own output,
# CSV at 12 digits, with the header of the script it replaces


def _cmd_family_sweep(args: argparse.Namespace) -> tuple[list[Table], Output]:
    if args.rescale_to is not None and not math.isfinite(args.rescale_to):
        raise ConfigError(f"--rescale-to must be finite, got {args.rescale_to}")
    table = Table(
        name="family_shift_sweep",
        columns=["config", "g_geom", "fundamental_GHz", "dispersion_MHz", "below_bandgap_MHz",
                 "no_dispersion_MHz", "index_70pct"],
        metadata=[("command", "family_shift_sweep"), ("N_max", str(args.n_max)),
                  ("rescale_to_MHz", "none" if args.rescale_to is None else args.rescale_to)],
    )
    for path in bundled_geometry_configs():
        run = load_run_config(path)
        report = lamb_shift_report(run.qubit, run.material, run.geometry, args.n_max, run.solver)
        fundamental = report.modes[0].omega_n.nu
        if args.rescale_to is not None:
            report = rescaled(report, args.rescale_to)
        totals, index = report.totals, report.convergence_index_70pct
        print(f"{path.stem}: f1 = {fundamental:.4f} GHz, disp = {totals.dispersion:.6g} MHz, "
              f"idx70 = {index}, gap restarts = {len(report.restarted)}", file=sys.stderr)
        table.rows.append([path.stem, f"{run.geometry.g_geom:.6e}", fundamental,
                           totals.dispersion, totals.below_bandgap, totals.no_dispersion, index])
    return [table], Output(args.out)


def _cmd_mode_export(args: argparse.Namespace) -> tuple[list[Table], Output]:
    path = Path(args.config) if args.config else bundled_geometry_configs()[0]
    run = load_run_config(path)
    _require(run, "mode-export", *_MODEL_SECTIONS)
    material, geometry, qubit = run.material, run.geometry, run.qubit
    report = lamb_shift_report(qubit, material, geometry, args.n_max, run.solver)
    bare = resonator_modes(geometry, args.n_max)  # only for the dispersionless couplings
    lossless = replace(material, impedance_prefactor=0.0)
    head = [("command", "mode_structure_export"), ("config", path.stem)]
    modes = Table(
        name="modes",
        columns=["n", "nu_bare_GHz", "nu_disp_GHz", "kappa_GHz", "g_disp", "g_cc",
                 "term_disp_MHz", "term_cc_MHz"],
        metadata=head + [("N_max", str(args.n_max))],
    )
    rows = zip(
        bare, report.modes, report.per_mode_terms, report.comparator_terms, report.below_gap
    )
    for mode_bare, mode_disp, term, cc, bare_below in rows:
        below = not material.above_gap(mode_disp.omega_n.nu)
        g_disp = coupling_strength(mode_disp, qubit, material, geometry) if below else math.nan
        g_cc = coupling_strength(mode_bare, qubit, lossless, geometry) if bare_below else math.nan
        modes.rows.append([mode_bare.n, mode_bare.omega_n.nu, mode_disp.omega_n.nu,
                           mode_disp.omega_n.kappa, g_disp, g_cc, term.real, cc])
    convergence = Table(
        name="convergence",
        columns=["M", *_MODELS],
        rows=_curve_rows(report, list(_MODELS)),
        metadata=head + [("index_70pct", str(report.convergence_index_70pct))],
    )
    print(f"{path.stem}: gap restarts = {len(report.restarted)}", file=sys.stderr)
    return [modes, convergence], Output(str(Path(args.out_dir) / f"{path.stem}.csv"), tagged=True)


_EXPERIMENTS = {"family-sweep": _cmd_family_sweep, "mode-export": _cmd_mode_export}


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

    p = sub.add_parser("family-sweep", help="shift totals of every bundled device-family config")
    p.add_argument("--n-max", type=int, default=600, help="mode-count cutoff")
    p.add_argument(
        "--rescale-to",
        type=float,
        default=None,
        metavar="MHZ",
        help="rescale each row so its dispersionless total equals this value",
    )
    p.add_argument("--out", default="results/family_shift_sweep.csv")

    p = sub.add_parser("mode-export", help="per-mode couplings, shift terms, convergence curves")
    p.add_argument(
        "--config",
        default=None,
        help="run config path (default: strongest-coupling bundled config)",
    )
    p.add_argument("--n-max", type=int, default=60, help="mode-count cutoff")
    p.add_argument("--out-dir", default="results")

    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.command in _EXPERIMENTS:
            tables, output = _EXPERIMENTS[args.command](args)
        else:
            handler, sections = _HANDLERS[args.command]
            run = load_run_config(args.config)
            _require(run, args.command, *sections)
            output = replace(run.output, path=args.out or run.output.path,
                             format=args.format or run.output.format)
            tables = handler(run, args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except DispersiveCqedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    try:
        _write_tables(tables, output)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    if any(t.failed() for t in tables):
        print("numerical failure: see status column", file=sys.stderr)
        return _EXIT_NUMERICAL
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
