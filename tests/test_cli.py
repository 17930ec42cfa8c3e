"""Command line driver: config validation, exit codes, deterministic tables."""

import json
import re
import subprocess
import sys
import warnings

import pytest
import yaml

from dispersive_cqed.cli import bundled_geometry_configs, load_run_config, main
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


    def test_all_modes_above_gap_is_a_config_error(self, tmp_path, capsys):
        cfg = base_config(n_max=6)
        cfg["material"] = {
            "gap_frequency": 4.0,
            "limit_regime": "extreme_anomalous",
            "impedance_prefactor": CALIBRATED_A,
        }
        out = tmp_path / "shift.csv"
        rc = run_cli(["lamb-shift", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        assert "total shift vanishes" in capsys.readouterr().err
        assert not out.exists()

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
