"""Command line driver: config validation, exit codes, deterministic tables."""

import json
import math
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from dispersive_cqed.cli import bundled_geometry_configs, load_run_config, main
from dispersive_cqed.lightmatter import lamb_shift_report
from dispersive_cqed.mattis_bardeen import sigma_real_axis
from dispersive_cqed.modes import resonator_modes

from conftest import CALIBRATED_A, child_env

NU1_LOSSLESS = 5.964218873719574  # fundamental of the shared end-loaded line


def run_cli(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def base_config(n_max=16, precision=12, impedance_prefactor=CALIBRATED_A):
    return {
        "material": {"preset": "aluminum", "impedance_prefactor": impedance_prefactor},
        "geometry": {
            "f0": 6.0,
            "z0": 50.0,
            "length": 0.01,
            "g_geom": 3.0e6,
            "qubits": [{"position": 0.0, "c_series": 1.0e-14}],
        },
        "qubit": {"omega_q": 5.0, "x_q": 0.0},
        "solver": {"N_max": n_max},
        "output": {"format": "csv", "precision": precision},
    }


def write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(cfg if isinstance(cfg, str) else yaml.safe_dump(cfg))
    return str(path)


def parse_csv(text):
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


class TestConfigErrors:
    """Every config problem exits 2 and writes nothing."""

    def check(self, tmp_path, capsys, cfg, tail, message=None):
        out = tmp_path / "never.csv"
        argv = [tail[0], "--config", write_config(tmp_path, cfg), "--out", str(out)]
        rc = run_cli(argv + tail[1:])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err
        if message:
            assert message in err
        assert not out.exists()
        return err

    def test_unknown_keys_rejected_everywhere(self, tmp_path, capsys):
        cfg = base_config()
        cfg["surprise"] = {}
        self.check(tmp_path, capsys, cfg, ["modes"], "surprise")
        cfg = base_config()
        cfg["material"]["color"] = "blue"
        self.check(tmp_path, capsys, cfg, ["modes"], "color")
        cfg = base_config()
        cfg["geometry"]["qubits"][0]["label"] = "q0"
        self.check(tmp_path, capsys, cfg, ["modes"], "label")
        cfg = base_config()
        cfg["solver"][7] = 1  # a key YAML reads as an integer
        self.check(tmp_path, capsys, cfg, ["modes"], "unknown key(s) in solver: 7")

    def test_preset_conflicts_and_missing_fields(self, tmp_path, capsys):
        cfg = base_config()
        cfg["material"]["gap_frequency"] = 90.0
        self.check(tmp_path, capsys, cfg, ["modes"], "preset")
        cfg = base_config()
        cfg["material"] = {"preset": "unobtainium"}
        self.check(tmp_path, capsys, cfg, ["modes"], "unobtainium")
        cfg = base_config()
        cfg["material"] = {"gap_frequency": 90.0, "limit_regime": "dirty"}
        self.check(tmp_path, capsys, cfg, ["modes"], "impedance_prefactor")
        cfg = base_config()
        cfg["material"] = {
            "gap_frequency": 90.0,
            "limit_regime": "sideways",
            "impedance_prefactor": 1.0,
        }
        self.check(tmp_path, capsys, cfg, ["modes"], "limit_regime")

    def test_geometry_parameterizations_are_exclusive(self, tmp_path, capsys):
        cfg = base_config()
        cfg["geometry"]["ell_m"] = 1e-7
        self.check(tmp_path, capsys, cfg, ["modes"])
        cfg = base_config()
        del cfg["geometry"]["f0"]
        self.check(tmp_path, capsys, cfg, ["modes"])

    def test_qubit_beyond_line(self, tmp_path, capsys):
        cfg = base_config()
        cfg["qubit"]["x_q"] = 0.02
        self.check(tmp_path, capsys, cfg, ["modes"], "beyond")

    def test_output_bounds(self, tmp_path, capsys):
        for precision in (0, 18):
            cfg = base_config(precision=precision)
            self.check(tmp_path, capsys, cfg, ["modes"], "precision")
        cfg = base_config()
        cfg["output"]["format"] = "xml"
        self.check(tmp_path, capsys, cfg, ["modes"], "format")
        cfg = base_config()
        cfg["solver"]["N_max"] = 0
        self.check(tmp_path, capsys, cfg, ["modes"], "N_max")

    def test_unreadable_or_malformed_file(self, tmp_path, capsys):
        rc = run_cli(["modes", "--config", str(tmp_path / "missing.yaml")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err
        self.check(tmp_path, capsys, "material: [unclosed", ["modes"], "YAML")
        self.check(tmp_path, capsys, "- a\n- b\n", ["modes"], "mapping")

    def test_missing_required_section(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["qubit"]
        self.check(tmp_path, capsys, cfg, ["modes"], "qubit")
        cfg = base_config()
        del cfg["material"]
        self.check(tmp_path, capsys, cfg, ["kk-check", "--probes", "4.0"], "material")

    def test_range_validation(self, tmp_path, capsys):
        cfg = base_config()
        self.check(tmp_path, capsys, cfg, ["conductivity", "--nu", "3:4:0"], "empty")
        self.check(tmp_path, capsys, cfg, ["conductivity", "--nu", "2.0"], "exceed")
        self.check(tmp_path, capsys, cfg, ["conductivity", "--nu", "1.5"], "exceed")
        self.check(tmp_path, capsys, cfg, ["conductivity", "--nu", "a:b:c"])
        self.check(
            tmp_path, capsys, cfg,
            ["conductivity", "--nu", "4", "--kappa", "-0.1"], "non-negative",
        )
        self.check(
            tmp_path, capsys, cfg,
            ["conductivity", "--nu", "4", "--oracle"], "oracle",
        )
        self.check(
            tmp_path, capsys, cfg, ["spectral-density", "--freq", "50"], "exceed"
        )
        self.check(tmp_path, capsys, cfg, ["kk-check", "--probes", ","], "empty")
        self.check(tmp_path, capsys, cfg, ["impedance", "--freq", "1:2"],
                   "config error: freq must be VALUE or START:STOP:COUNT, got '1:2'")
        err = self.check(tmp_path, capsys, cfg, ["kk-check", "--probes", "4.0,abc"],
                         "cannot parse --probes")
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize("tail", [
        ["conductivity", "--nu", "nan"],
        ["conductivity", "--nu", "1:inf:3"],
        ["conductivity", "--nu=-inf:3:3"],
        ["conductivity", "--nu", "3", "--kappa", "nan"],
        ["conductivity", "--nu", "3", "--kappa", "0:inf:2"],
        ["conductivity", "--nu=-1e308:1e308:3"],
        ["impedance", "--freq", "inf"],
        ["impedance", "--freq", "1:nan:4"],
        ["spectral-density", "--freq", "100:inf:2"],
        ["kk-check", "--probes", "4.0,nan"],
        ["kk-check", "--probes", "inf"],
        ["kk-check", "--probes", "4.0", "--f-max", "nan"],
        ["kk-check", "--probes", "4.0", "--f-max", "inf"],
        ["kk-check", "--probes", "4.0", "--f-max", "0"],
        ["kk-check", "--probes", "4.0", "--f-max", "-4350"],
    ])
    def test_nonfinite_numbers_rejected(self, tmp_path, capsys, tail):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            self.check(tmp_path, capsys, base_config(n_max=4), tail)

    @pytest.mark.parametrize("field", ["omega_q", "x_q", "dipole_prefactor"])
    @pytest.mark.parametrize("command", [
        ["lamb-shift"], ["modes"], ["spectral-density", "--freq", "100"],
    ])
    def test_nonfinite_qubit_parameters_rejected(self, tmp_path, capsys, field, command):
        cfg = base_config(n_max=4)
        cfg["qubit"][field] = float("nan")
        self.check(tmp_path, capsys, cfg, command, field)

    @pytest.mark.parametrize("key, value", [
        ("tol", 0.0), ("tol", float("nan")), ("max_iter", 0), ("relaxation", 0.0),
        ("epsilon_gap", -1e-3), ("epsilon_gap", float("nan")),
    ])
    def test_solver_options_out_of_range(self, tmp_path, capsys, key, value):
        cfg = base_config(n_max=4)
        cfg["solver"][key] = value
        self.check(tmp_path, capsys, cfg, ["modes"], key)

    @pytest.mark.parametrize("section, key, value", [
        # each raised an exception other than ConfigError
        ("geometry", "g_geom", "abc"),
        ("material", "impedance_prefactor", "big"),
        ("solver", "tol", "tight"),
        ("solver", "N_max", "many"),
        ("output", "precision", "x"),
        ("solver", "N_max", math.inf),
        ("solver", "N_max", math.nan),
        ("output", "precision", math.inf),
        ("qubit", "omega_q", None),
        ("qubit", "omega_q", [5.0]),
        ("geometry", "qubits", 5),
        ("material", "preset", ["aluminum"]),
        ("material", "limit_regime", ["dirty"]),
        ("output", "path", 123),
        # each was coerced: truncated to an integer, or a boolean read as 1.0
        ("solver", "N_max", 2.7),
        ("solver", "max_iter", 1.5),
        ("output", "precision", 3.9),
        ("geometry", "g_geom", True),
        # refused before, by a message that did not name output.format
        ("output", "format", 5),
        # ignored without a trace next to ell_m/c_per_len, which fix the line alone
        ("geometry", "z0", 75.0),
    ])
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                               section, key, value):
        # In process, so that any other exception fails the test; no --out and
        # a relative output.path, so that the working directory must stay empty.
        monkeypatch.chdir(tmp_path)
        cfg = base_config(n_max=4)
        cfg["output"]["path"] = "never.csv"
        if key == "limit_regime":  # given only without a preset
            cfg["material"] = {"gap_frequency": 87.0, "impedance_prefactor": CALIBRATED_A}
        if key == "z0":  # the line given by its constants instead of f0
            del cfg["geometry"]["f0"]
            cfg["geometry"].update(ell_m=4.0e-7, c_per_len=1.6e-10)
        cfg[section][key] = value
        path = tmp_path / "config" / "run.yaml"
        path.parent.mkdir()
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli(["modes", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("config error: ") and f"{section}.{key}" in line
        assert [p.name for p in tmp_path.iterdir()] == ["config"]

    @pytest.mark.parametrize("usual, spelling", [
        ("c_series: 1.0e-14", "c_series: 1e-14"),  # YAML 1.1 reads 1e-14 as a string
        ("N_max: 30", "N_max: 30.0"),
        ("x_q: 0.0", "x_q: 0.0\n  dipole_prefactor: null"),  # null is absent: the default
        ("  z0: 50.0\n", ""),  # f0 without z0 takes 50 Ohm
        # the line constants that derive_line_constants(6.0, 50.0, 0.01) gives
        ("  f0: 6.0\n  z0: 50.0\n",
         "  ell_m: 4.1666666666666667e-07\n  c_per_len: 1.6666666666666666e-10\n"),
    ])
    def test_accepted_spellings_load_the_same_config(self, tmp_path, usual, spelling):
        text = bundled_geometry_configs()[0].read_text()
        assert text.count(usual) == 1
        path = write_config(tmp_path, text.replace(usual, spelling))
        assert load_run_config(path) == load_run_config(bundled_geometry_configs()[0])

    @pytest.mark.parametrize("key, value", [("relaxation", 0.5), ("epsilon_gap", 1e-3)])
    def test_removed_solver_keys_are_unknown(self, tmp_path, capsys, key, value):
        # The fixed point has one method and a fixed restart offset; a config
        # that still sets either former knob fails like any unknown key.
        cfg = base_config(n_max=4)
        cfg["solver"][key] = value
        out = tmp_path / "never.csv"
        rc = run_cli(["modes", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"config error: unknown key(s) in solver: {key}" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestConductivity:
    def test_real_axis_rows_match_closed_form(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = run_cli(["conductivity", "--config", path, "--nu", "2.5"])
        assert rc == 0
        meta, columns, rows = parse_csv(capsys.readouterr().out)
        assert meta["command"] == "conductivity"
        assert columns == ["nu", "kappa", "sigma1", "sigma2"]
        assert len(rows) == 1
        ref = sigma_real_axis(2.5)
        assert float(rows[0][2]) == pytest.approx(ref.real, rel=1e-11)
        assert float(rows[0][3]) == pytest.approx(-ref.imag, rel=1e-11)

    def test_oracle_columns_agree(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = run_cli(
            ["conductivity", "--config", path,
             "--nu", "2.5:6:3", "--kappa", "0.05:0.2:2", "--oracle"]
        )
        assert rc == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        assert columns[-3:] == ["oracle_sigma1", "oracle_sigma2", "rel_err"]
        assert len(rows) == 6
        assert max(float(r[-1]) for r in rows) <= 1e-6

    def test_json_payload_shape(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = run_cli(
            ["conductivity", "--config", path, "--nu", "4", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["columns", "metadata", "rows"]  # sort_keys
        assert payload["metadata"]["command"] == "conductivity"
        assert payload["rows"][0][0] == 4.0
        assert isinstance(payload["rows"][0][2], float)

    def test_byte_determinism(self, tmp_path):
        path = write_config(tmp_path, base_config())
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = run_cli(
                ["conductivity", "--config", path,
                 "--nu", "2.5:10:4", "--kappa", "0:0.2:2", "--out", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b"\r" not in outs[0]
        assert outs[0].endswith(b"\n")


class TestImpedance:
    def test_lossless_below_lossy_above(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = run_cli(["impedance", "--config", path, "--freq", "40"])
        assert rc == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        assert columns == ["freq_GHz", "nu", "R_s_ohm", "X_s_ohm"]
        assert float(rows[0][2]) == 0.0  # purely reactive below the gap
        assert float(rows[0][3]) > 0.0

        rc = run_cli(["impedance", "--config", path, "--freq", "100"])
        assert rc == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0][2]) > 0.0

    def test_precision_respected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(precision=3))
        rc = run_cli(["impedance", "--config", path, "--freq", "100"])
        assert rc == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert re.fullmatch(r"-?\d\.\d{3}e[+-]\d{2,3}", rows[0][2])

    def test_preset_default_note_in_metadata(self, tmp_path, capsys):
        cfg = {"material": {"preset": "niobium"}}
        path = write_config(tmp_path, cfg)
        rc = run_cli(["impedance", "--config", path, "--freq", "100"])
        assert rc == 0
        meta, _, _ = parse_csv(capsys.readouterr().out)
        assert "niobium" in meta["material"]
        assert "default" in meta["material_note"]


class TestModes:
    def test_lossless_table(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(impedance_prefactor=0.0))
        rc = run_cli(["modes", "--config", path])
        assert rc == 0
        meta, columns, rows = parse_csv(capsys.readouterr().out)
        assert columns == ["n", "k_n", "nu_n_GHz", "kappa_n_GHz", "g_n_or_NA", "below_gap_flag"]
        assert meta["N_max"] == "16"
        assert [int(r[0]) for r in rows] == list(range(1, 17))
        assert float(rows[0][2]) == pytest.approx(NU1_LOSSLESS, rel=1e-11)
        for r in rows:
            assert float(r[3]) == 0.0  # no impedance, no linewidth
            below = float(r[2]) < 87.0
            assert int(r[5]) == int(below)
            if below:
                float(r[4])  # numeric coupling
            else:
                assert r[4] == "NA"
        # The gap exactly at mode 15's bare frequency (reduced 2): the mode at
        # the edge counts as below it, as the impedance and the spectrum say.
        edge = float(resonator_modes(load_run_config(path).geometry, 15)[-1].omega_n.nu)
        cfg = base_config(impedance_prefactor=0.0)
        cfg["material"] = {"gap_frequency": edge, "limit_regime": "extreme_anomalous",
                           "impedance_prefactor": 0.0}
        assert run_cli(["modes", "--config", write_config(tmp_path, cfg)]) == 0
        rows = parse_csv(capsys.readouterr().out)[2]
        assert [int(r[5]) for r in rows] == [1] * 15 + [0]
        float(rows[14][4])  # numeric coupling

    def test_calibrated_below_gap_modes_lossless_but_shifted(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(n_max=14, impedance_prefactor=0.0))
        rc = run_cli(["modes", "--config", path])
        assert rc == 0
        _, _, bare_rows = parse_csv(capsys.readouterr().out)

        path = write_config(tmp_path, base_config(n_max=14))
        rc = run_cli(["modes", "--config", path])
        assert rc == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        for bare, row in zip(bare_rows, rows):
            assert float(row[3]) == 0.0
            assert int(row[5]) == 1
            assert float(row[2]) < float(bare[2])  # red shift from the reactance

    def test_above_gap_modes_acquire_linewidth(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(n_max=16))
        rc = run_cli(["modes", "--config", path])
        assert rc == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        for row in rows[14:]:
            assert float(row[3]) > 0.0
            assert int(row[5]) == 0
            assert row[4] == "NA"


class TestLambShift:
    def test_csv_writes_sibling_tables(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "shift.csv"
        rc = run_cli(["lamb-shift", "--config", path, "--out", str(out)])
        assert rc == 0

        meta, columns, rows = parse_csv(out.read_text())
        assert meta["table"] == "per_mode"
        assert columns == ["n", "re_term_MHz", "im_term_MHz"]
        assert len(rows) == 16
        assert all(float(r[1]) < 0.0 for r in rows)

        conv_path = tmp_path / "shift.convergence.csv"
        meta, columns, rows = parse_csv(conv_path.read_text())
        assert columns == ["M", "dispersion", "below_bandgap", "no_dispersion"]
        assert meta["models"] == "dispersion,below_bandgap,no_dispersion"
        assert [float(v) for v in rows[-1][1:]] == [1.0, 1.0, 1.0]

        meta, columns, rows = parse_csv((tmp_path / "shift.totals.csv").read_text())
        assert columns == ["model", "total_MHz"]
        totals = {r[0]: float(r[1]) for r in rows}
        assert set(totals) == {"dispersion", "below_bandgap", "no_dispersion"}
        assert all(v < 0.0 for v in totals.values())
        assert abs(totals["below_bandgap"]) <= abs(totals["no_dispersion"])
        assert int(meta["convergence_index_70pct"]) >= 1

    def test_single_model_curve(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(n_max=6))
        rc = run_cli(["lamb-shift", "--config", path, "--model", "dispersion"])
        assert rc == 0
        chunks = capsys.readouterr().out.split("\n\n")
        _, columns, rows = parse_csv(chunks[1])
        assert columns == ["M", "value"]
        assert float(rows[-1][1]) == 1.0

    def test_json_bundles_all_tables(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(n_max=6))
        rc = run_cli(["lamb-shift", "--config", path, "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["convergence", "per_mode", "totals"]
        assert payload["totals"]["rows"][0][0] == "dispersion"


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_all_modes_above_gap_writes_the_undefined_curve_as_nan(self, tmp_path, capsys, fmt):
        # --model all prints the two defined curves and all three totals; the
        # undefined below-bandgap column is nan (null in JSON), noted on stderr.
        cfg = base_config(n_max=6)
        cfg["material"] = {
            "gap_frequency": 4.0,
            "limit_regime": "extreme_anomalous",
            "impedance_prefactor": CALIBRATED_A,
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / f"shift.{fmt}"
        rc = run_cli(["lamb-shift", "--config", path, "--out", str(out), "--format", fmt])
        assert rc == 0
        assert capsys.readouterr().err == (
            "below_bandgap curve undefined (total shift vanishes; normalized curve undefined); "
            "written as nan\n")
        if fmt == "csv":
            meta, columns, rows = parse_csv((tmp_path / "shift.convergence.csv").read_text())
            totals = parse_csv((tmp_path / "shift.totals.csv").read_text())[2]
            undefined = "nan"
        else:
            payload = json.loads(out.read_text())
            convergence = payload["convergence"]
            meta, columns, rows = (convergence[k] for k in ("metadata", "columns", "rows"))
            totals = payload["totals"]["rows"]
            undefined = None
        assert meta["models"] == "dispersion,below_bandgap,no_dispersion"
        assert columns == ["M", "dispersion", "below_bandgap", "no_dispersion"]
        assert [row[2] for row in rows] == [undefined] * 6
        assert all(math.isfinite(float(row[c])) for row in rows for c in (1, 3))
        assert float(rows[-1][1]) == float(rows[-1][3]) == 1.0
        totals = {name: float(value) for name, value in totals}
        assert totals["below_bandgap"] == 0.0
        assert totals["dispersion"] < 0.0 and totals["no_dispersion"] < 0.0

    @pytest.mark.parametrize("model", ["dispersion", "no_dispersion"])
    def test_all_modes_above_gap_prints_the_defined_curves(self, tmp_path, model):
        # Only the below-bandgap curve is undefined there; a run that does
        # not ask for it prints its curve and all three totals.
        cfg = base_config(n_max=6)
        cfg["material"] = {
            "gap_frequency": 4.0,
            "limit_regime": "extreme_anomalous",
            "impedance_prefactor": CALIBRATED_A,
        }
        out = tmp_path / "shift.csv"
        rc = run_cli(["lamb-shift", "--config", write_config(tmp_path, cfg), "--out", str(out),
                      "--model", model])
        assert rc == 0
        meta, columns, rows = parse_csv((tmp_path / "shift.convergence.csv").read_text())
        assert meta["models"] == model
        assert columns == ["M", "value"]
        assert len(rows) == 6 and float(rows[-1][1]) == 1.0
        _, _, rows = parse_csv((tmp_path / "shift.totals.csv").read_text())
        totals = {r[0]: float(r[1]) for r in rows}
        assert totals["below_bandgap"] == 0.0
        assert totals["dispersion"] < 0.0 and totals["no_dispersion"] < 0.0

    def test_all_modes_above_gap_below_bandgap_model_is_a_config_error(self, tmp_path, capsys):
        cfg = base_config(n_max=6)
        cfg["material"] = {
            "gap_frequency": 4.0,
            "limit_regime": "extreme_anomalous",
            "impedance_prefactor": CALIBRATED_A,
        }
        out = tmp_path / "shift.csv"
        rc = run_cli(["lamb-shift", "--config", write_config(tmp_path, cfg), "--out", str(out),
                      "--model", "below_bandgap"])
        assert rc == 2
        assert "total shift vanishes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_solver_leaving_the_domain_is_a_numerical_failure(self, tmp_path, capsys, side):
        out = tmp_path / "shift.csv"
        path = write_config(tmp_path, solver_failure_config(side))
        rc = run_cli(["lamb-shift", "--config", path, "--out", str(out)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        _, columns, rows = parse_csv(out.read_text())
        assert columns[-1] == "status"
        assert rows == [["0", "nan", "nan", "NoConvergence"]]


def solver_failure_config(side):
    """A valid device on which mode 1's fixed point fails: 10x the calibrated
    prefactor with the gap at ``side`` times mode 1's bare frequency."""
    cfg = base_config(n_max=3)
    cfg["material"] = {
        "gap_frequency": side * NU1_LOSSLESS,
        "limit_regime": "extreme_anomalous",
        "impedance_prefactor": 10.0 * CALIBRATED_A,
    }
    return cfg


class TestNumericalFailure:
    """A numerical failure exits 3: a table command writes the rows it has and
    a status row, and mode-export writes nothing."""

    @pytest.mark.parametrize("tail, status", [
        (["modes"], "NoConvergence"),
        (["spectral-density", "--freq", "90:100:3"], "NoConvergence"),
        (["conductivity", "--nu", "2.0000005", "--kappa", "1e-7"], "GapSingularity"),
    ])
    def test_table_ends_in_a_status_row(self, tmp_path, capsys, tail, status):
        cfg = base_config()
        cfg["solver"]["max_iter"] = 1
        out = tmp_path / "table.csv"
        rc = run_cli([tail[0], "--config", write_config(tmp_path, cfg), "--out", str(out),
                      *tail[1:]])
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: see status column\n"
        _, columns, rows = parse_csv(out.read_text())
        assert columns[-1] == "status"
        assert rows[-1][-1] == status

    def test_overflowing_reduced_frequency_is_one_stderr_line(self, tmp_path, capsys):
        # nu = 2 f / f_gap overflows to inf: a DomainError row, and no numpy
        # overflow warning next to the one stderr line.
        out = tmp_path / "z.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["impedance", "--config", write_config(tmp_path, base_config()),
                       "--freq", "1e308", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: see status column\n"
        _, _, rows = parse_csv(out.read_text())
        assert rows == [["1.000000000000e+308", "inf", "nan", "nan", "DomainError"]]

    def test_mode_export_writes_nothing(self, tmp_path, capsys):
        cfg = base_config()
        cfg["solver"]["max_iter"] = 1
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = run_cli(["mode-export", "--config", write_config(tmp_path, cfg),
                      "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("numerical failure: ")
        assert list(out_dir.iterdir()) == []


class TestOutputPath:
    def test_missing_parent_directories_are_created(self, tmp_path):
        path = write_config(tmp_path, base_config(n_max=4))
        out = tmp_path / "no" / "such" / "dir" / "shift.csv"
        assert run_cli(["lamb-shift", "--config", path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "shift.convergence.csv", "shift.csv", "shift.totals.csv"]

    def test_unwritable_output_is_one_line_and_exit_2(self, tmp_path):
        # The output path names an existing directory: the write raises
        # IsADirectoryError, reported without a traceback.
        path = write_config(tmp_path, base_config(n_max=4))
        out = tmp_path / "taken"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "dispersive_cqed.cli", "modes", "--config", path,
             "--out", str(out)],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("cannot write output: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_unwritable_output_of_a_failed_table_exits_2(self, tmp_path, capsys):
        # The status column that exit 3 points to never reached the file.
        path = write_config(tmp_path, solver_failure_config(0.99))
        out = tmp_path / "taken"
        out.mkdir()
        assert run_cli(["lamb-shift", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1

    def test_failed_sibling_write_leaves_the_earlier_file(self, tmp_path, capsys):
        # Files are written in turn: the per-mode table is on disk when the
        # convergence sibling cannot be written.
        path = write_config(tmp_path, base_config(n_max=4))
        out = tmp_path / "shift.csv"
        (tmp_path / "shift.convergence.csv").mkdir()
        assert run_cli(["lamb-shift", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("cannot write output: ")
        assert parse_csv(out.read_text())[2]
        assert not (tmp_path / "shift.totals.csv").exists()


class TestSpectralDensity:
    def test_zero_impedance_gives_zero_rows(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(n_max=30, impedance_prefactor=0.0))
        rc = run_cli(["spectral-density", "--config", path, "--freq", "100"])
        assert rc == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        assert columns == ["omega_GHz", "J"]
        assert float(rows[0][1]) == 0.0

    def test_pole_yields_partial_table_and_exit_3(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(n_max=30, impedance_prefactor=0.0))
        out = tmp_path / "jtable.csv"
        run = load_run_config(path)
        probe = resonator_modes(run.geometry, 15)[-1].omega_n.nu  # on a lossless pole
        rc = run_cli(
            ["spectral-density", "--config", path,
             "--freq", f"88:{probe}:2", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "numerical failure" in captured.err
        _, columns, rows = parse_csv(out.read_text())
        assert columns[-1] == "status"
        assert rows[0][-1] == "ok"
        assert rows[1][-1] == "PoleProximity"
        assert rows[1][1] == "nan"


class TestKkCheck:
    def test_lossless_identity_is_trivial(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(impedance_prefactor=0.0))
        rc = run_cli(["kk-check", "--config", path, "--probes", "4.0,40.0"])
        assert rc == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        assert columns == ["probe_freq", "lhs", "rhs", "residual"]
        for row in rows:
            assert [float(v) for v in row[1:]] == [0.0, 0.0, 0.0]

    def test_calibrated_residual_small(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = run_cli(["kk-check", "--config", path, "--probes", "4.0"])
        assert rc == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert 0.0 < float(rows[0][3]) < 0.02

    def test_coarse_grid_reported_per_probe(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "kk.csv"
        rc = run_cli(
            ["kk-check", "--config", path, "--probes", "4.0,87.435", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "numerical failure" in captured.err
        _, columns, rows = parse_csv(out.read_text())
        assert columns[-1] == "status"
        assert rows[0][-1] == "ok"
        assert float(rows[0][3]) < 0.02
        assert rows[1][-1] == "GridTooCoarse"
        assert rows[1][1] == "nan"


class TestBundledConfigs:
    def test_family_of_six_loads(self):
        paths = bundled_geometry_configs()
        assert len(paths) == 6
        assert [p.name for p in paths] == sorted(p.name for p in paths)
        g_values = []
        for p in paths:
            run = load_run_config(p)
            assert run.material is not None
            assert run.geometry is not None
            assert run.qubit is not None
            assert run.material.impedance_prefactor == CALIBRATED_A
            assert run.geometry.length == 0.01
            g_values.append(run.geometry.g_geom)
        # narrower gap -> stronger geometric coupling; files sort by gap width
        assert g_values == sorted(g_values, reverse=True)
        assert g_values[0] == 3.0e6


class TestEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        path = write_config(tmp_path, base_config())
        proc = subprocess.run(
            [sys.executable, "-m", "dispersive_cqed.cli",
             "conductivity", "--config", path, "--nu", "4"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# command: conductivity")

    def test_import_loads_no_scipy(self):
        # scipy is a test oracle only; the CLI's import must not pay for it.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, dispersive_cqed.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"
EXPERIMENT_SCRIPTS = {"family-sweep": "family_shift_sweep", "mode-export": "mode_structure_export"}


class TestExperimentErrors:
    """family-sweep and mode-export, and the scripts that call them: an error
    exits 2 with one line and writes nothing.  In process, so that any other
    exception fails the test."""

    @pytest.mark.parametrize("via", ["subcommand", "script"])
    @pytest.mark.parametrize("command, config, tail, message", [
        ("family-sweep", None, ["--n-max", "0"], "n_max must be >= 1, got 0"),
        ("family-sweep", None, ["--rescale-to", "nan"], "--rescale-to must be finite, got nan"),
        ("mode-export", None, ["--n-max", "0"], "n_max must be >= 1, got 0"),
        ("mode-export", "abc", ["--n-max", "4"], "solver.N_max must be a whole number"),
        ("mode-export", "missing", ["--n-max", "4"], "cannot read config file"),
    ])
    def test_error_is_one_line_exit_2_and_nothing_written(self, tmp_path, capsys, via,
                                                          command, config, tail, message):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if config == "abc":
            cfg = base_config()
            cfg["solver"]["N_max"] = "abc"
            tail = tail + ["--config", write_config(tmp_path, cfg)]
        elif config == "missing":
            tail = tail + ["--config", str(tmp_path / "missing.yaml")]
        if command == "family-sweep":
            tail = tail + ["--out", str(out_dir / "family_shift_sweep.csv")]
        else:
            tail = tail + ["--out-dir", str(out_dir)]
        if via == "subcommand":
            rc = run_cli([command, *tail])
        else:
            script = SCRIPTS_DIR / f"{EXPERIMENT_SCRIPTS[command]}.py"
            rc = runpy.run_path(str(script))["main"](tail)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("config error: ") and message in line
        assert list(out_dir.iterdir()) == []


class TestModeStructureExport:
    SCRIPT = SCRIPTS_DIR / "mode_structure_export.py"

    def test_undefined_below_bandgap_curve_is_written_as_nan(self, tmp_path, capsys):
        # The gap just under the fundamental: every mode lies above it, so the
        # below-bandgap comparator sum vanishes and its curve is undefined.
        cfg = base_config()
        cfg["material"] = {"gap_frequency": 5.958, "limit_regime": "extreme_anomalous",
                           "impedance_prefactor": CALIBRATED_A, "name": "aluminum"}
        path = write_config(tmp_path, cfg, name="gap_00p6um.yaml")
        export = runpy.run_path(str(self.SCRIPT))["main"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = export(["--config", path, "--n-max", "10", "--out-dir", str(tmp_path)])
            run = load_run_config(path)
            report = lamb_shift_report(run.qubit, run.material, run.geometry, 10, run.solver)
        assert rc == 0
        assert "below_bandgap curve undefined" in capsys.readouterr().err
        assert not report.below_gap.any()
        _, columns, rows = parse_csv((tmp_path / "gap_00p6um.convergence.csv").read_text())
        assert columns == ["M", "dispersion", "below_bandgap", "no_dispersion"]
        assert [row[2] for row in rows] == ["nan"] * 10
        for column, model in ((1, "dispersion"), (3, "no_dispersion")):
            curve = report.convergence_curve(model)
            assert [row[column] for row in rows] == [f"{v:.12e}" for v in curve]
            assert all(math.isfinite(v) for v in curve)
        _, _, mode_rows = parse_csv((tmp_path / "gap_00p6um.modes.csv").read_text())
        assert len(mode_rows) == 10
