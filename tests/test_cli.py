"""Command-line surface: tables, files, exit codes, determinism.

All scenario work here runs on the small fixed-height box from the
experiment tests (one packet flight ~0.5 s) so the file stays quick;
the production configurations are exercised by the acceptance suite.
"""

import configparser
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import pairstats
from pairstats import cli, experiment, propagator
from pairstats.cli import (
    EXIT_ALL_INVALID,
    EXIT_CALIBRATION,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from pairstats.errors import CalibrationError
from pairstats.experiment import ScenarioConfig, SweepConfig, config_from_dict
from pairstats.grid import dump_wavefunction_csv
from pairstats.propagator import BarrierPotential, CalibrationResult

SMALL_INI = """\
[grid]
half_width = 64
points = 2048

[packet]
center = -10
wavenumber = 8
sigma = 1

[pair]
separation = {separation}
sign = {sign}

[barrier]
width = 0.5
height = {height}

[evolution]
dt = 5e-4
max_steps = 12000
"""

SWEEP_BLOCK = """\
[sweep]
parameter = {parameter}
values = {values}
"""


# what a subcommand needs beyond its config to fly a scenario
SUBCOMMAND_ARGS = {"density": ("joint", "--evolved")}


def write_ini(tmp_path, name="scenario.ini", *, sign="boson", separation="3",
              height="26.787825", sweep_values=None, sweep_parameter="separation_d",
              extra=""):
    text = SMALL_INI.format(sign=sign, separation=separation, height=height)
    if sweep_values is not None:
        text += "\n" + SWEEP_BLOCK.format(parameter=sweep_parameter, values=sweep_values)
    text += extra
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestOccupancyCommand:
    def test_all_tables(self, capsys):
        assert main(["occupancy", "2", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "N=2 M=2 statistics=mb" in out
        assert "N=2 M=2 statistics=be" in out
        assert "N=2 M=2 statistics=fd" in out
        # mb row for the stacked vector: exact fraction and decimal
        assert "1/4  0.25" in out
        assert "1/3  0.333333333333" in out
        for line in out.splitlines():
            if line.startswith("total"):
                assert line.split()[-1] == "1"

    def test_single_table_selection(self, capsys):
        assert main(["occupancy", "3", "2", "--stats", "mb"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "statistics=mb" in out
        assert "statistics=be" not in out
        assert "3/8  0.375" in out

    def test_exclusion_table(self, capsys):
        assert main(["occupancy", "3", "3", "--stats", "fd"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("1,1,1")]
        assert len(lines) == 1
        assert lines[0].split()[-1] == "1"

    def test_oracle_agreement(self, capsys):
        assert main(["occupancy", "3", "4", "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle: mb table matches exact enumeration of 4**3 assignments" in out

    def test_oracle_over_the_budget_exits_2_before_printing(self, capsys):
        # C(18, 7) = 31824 table rows fit their budget; 12**7 assignments do not
        assert main(["occupancy", "7", "12", "--oracle"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "12^7 = 35831808 assignments exceed the enumeration budget" in captured.err

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["occupancy", "-1", "2"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert main(["occupancy", "2", "0"]) == EXIT_USAGE

    def test_table_over_the_budget_exits_2_before_printing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_ENUMERATION_BUDGET", 100)
        # C(8, 4) = 70 vectors fit, C(9, 5) = 126 do not
        assert main(["occupancy", "4", "5", "--stats", "mb"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 70 + 4
        assert main(["occupancy", "5", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has 126 occupancy vectors, over the table budget 100" in captured.err
        monkeypatch.undo()
        # C(79, 40) ~ 5.4e22 rows
        assert main(["occupancy", "40", "40"]) == EXIT_USAGE
        assert "over the table budget 10000000" in capsys.readouterr().err


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("pairstats ")

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["occupancy", "2", "2", "--loud"])
        assert exc.value.code == 2

    def test_import_leaves_scipy_integrate_unloaded(self):
        src = Path(pairstats.__file__).resolve().parents[1]
        code = "import sys, pairstats.cli; print('scipy.integrate' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert result.stdout.strip() == "False"

    def test_calibrates_with_scipy_blocked(self, tmp_path):
        src = Path(pairstats.__file__).resolve().parents[1]
        path = tmp_path / "cal.ini"
        path.write_text(SMALL_INI.format(sign="boson", separation="3", height="calibrate")
                        .replace("height = calibrate", "height = calibrate\ntol = 0.01"),
                        encoding="utf-8")
        argv = ["calibrate", "--config", str(path), "--out", str(tmp_path / "out")]
        code = ("import sys; sys.modules['scipy'] = None; import pairstats.cli; "
                f"sys.exit(pairstats.cli.main({argv!r}))")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert (tmp_path / "out" / "calibration.json").exists()


class TestReadmeScenarioBlock:
    def test_block_lists_every_key_with_its_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Scenario files", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block, encoding="utf-8")
        config, sweep_block = cli._load_config_file(str(path))
        assert sweep_block is None
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
        parser.read_string(block)
        listed = {(section, key) for section in parser.sections() for key in parser[section]}
        assert listed == {(section, key) for section, key, _ in experiment._CONFIG_KEYS.values()}
        optional = [f for f in fields(ScenarioConfig) if not experiment._CONFIG_KEYS[f.name][2]]
        assert {f.name: getattr(config, f.name) for f in optional} == {
            f.name: f.default for f in optional
        }


class TestCommittedConfigs:
    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini")),
        ids=lambda path: path.name,
    )
    def test_loads_and_validates(self, path):
        # a committed config that still sets a removed key is refused here
        config, sweep_block = cli._load_config_file(str(path))
        config.validate()
        if sweep_block is not None:
            SweepConfig(base=config, **sweep_block).validate()


class TestConfigFileErrors:
    def test_malformed_ini(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("just some words\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/x.ini"]) == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_ini(tmp_path, extra="\n[packet2]\nmass = 1\n")
        assert main(["run", "--config", path]) == EXIT_USAGE
        assert "unknown config sections" in capsys.readouterr().err

    def test_unknown_key_in_section_rejected(self, tmp_path, capsys):
        path = write_ini(tmp_path, extra="\n[measurement]\ncoupling = 2\n")
        assert main(["run", "--config", path]) == EXIT_USAGE
        assert "unknown keys" in capsys.readouterr().err

    def test_default_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "d.ini"
        path.write_text("[DEFAULT]\nx = 1\n" + SMALL_INI.format(
            sign="boson", separation="3", height="26.787825"), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        assert "DEFAULT" in capsys.readouterr().err

    def test_bad_sweep_values_rejected(self, tmp_path, capsys):
        path = write_ini(tmp_path, sweep_values="2.0 nope")
        assert main(["sweep", "--config", path]) == EXIT_USAGE
        assert "bad sweep values" in capsys.readouterr().err

    def test_incomplete_sweep_block_rejected(self, tmp_path, capsys):
        path = write_ini(tmp_path, extra="\n[sweep]\nparameter = separation_d\n")
        assert main(["sweep", "--config", path]) == EXIT_USAGE
        assert "'parameter' and 'values'" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, named", [
        ("points = 2048", "points = 4096.0", "[grid] points: cannot parse '4096.0'"),
        ("half_width = 64", "half_width = abc", "[grid] half_width: cannot parse 'abc'"),
        ("max_steps = 12000", "max_steps = 12000\n\n[measurement]\nstability_fractions = 0.1 x",
         "[measurement] stability_fractions: cannot parse '0.1 x'"),
    ])
    def test_unparsable_value_exits_2_naming_the_key(self, tmp_path, capsys, old, new, named):
        path = Path(write_ini(tmp_path))
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("old, new", [
        ("wavenumber = 8", "wavenumber = -8.0"),
        ("center = -10", "center = 20.0"),
    ])
    def test_packet_a_not_launched_at_the_barrier_exits_2_before_evolving(
        self, tmp_path, capsys, monkeypatch, old, new
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called on a rejected config")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        path = Path(write_ini(tmp_path))
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "packet A must start left of the barrier" in err and "carrier" in err

    @pytest.mark.parametrize("offset", ["2.0", "-40.0"])
    def test_out_of_band_wavenumber_offset_exits_2_before_evolving(
        self, tmp_path, capsys, monkeypatch, offset
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called on a rejected config")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        path = Path(write_ini(tmp_path))
        path.write_text(path.read_text(encoding="utf-8").replace(
            "sign = boson", f"sign = boson\nwavenumber_offset = {offset}"), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"wavenumber offset {offset} out of band" in err and "over the limit 3e-11" in err

    @pytest.mark.parametrize("height, extra, field", [
        ("nan", "", "barrier_height"),
        ("26.787825", "\n[measurement]\nbarrier_amplitude_max = inf\n", "barrier_amplitude_max"),
    ])
    def test_non_finite_value_exits_2_before_evolving(
        self, tmp_path, capsys, monkeypatch, height, extra, field
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called on a rejected config")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        path = write_ini(tmp_path, height=height, extra=extra)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("barrier_amplitude_max", "0"),
    ])
    def test_threshold_at_or_below_zero_exits_2_before_evolving(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called on a rejected config")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        path = write_ini(tmp_path, extra=f"\n[measurement]\n{field} = {value}\n")
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert f"{field} must be positive, got {float(value)}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("edge_amplitude_max", "-1"),
        ("norm_drift_max", "-1"),
        ("lobe_sigmas", "-5"),
        ("boundary", "0"),
        ("center", "0.0"),
        ("check_every", "200"),
    ])
    def test_removed_measurement_key_exits_2_before_evolving(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        # the barrier and the split sit at x = 0, readiness is tested every
        # CHECK_EVERY steps, and the other three are module constants: none
        # of them is a key of a file
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called on a rejected config")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        section = {"center": "barrier", "check_every": "evolution"}.get(field, "measurement")
        path = Path(write_ini(tmp_path))
        text = path.read_text(encoding="utf-8")
        header = f"[{section}]\n"
        if header not in text:
            text += "\n" + header
        path.write_text(text.replace(header, f"{header}{field} = {value}\n"), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert (f"unknown keys in section [{section}]: ['{field}']"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "sweep", "calibrate", "density"])
    def test_unusable_out_exits_2_before_evolving(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called with no place to write the result")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n", encoding="utf-8")
        path = write_ini(tmp_path, height="calibrate", sweep_values="3")
        argv = [command, *SUBCOMMAND_ARGS.get(command, ()), "--config", path, "--out", str(taken)]
        assert main(argv) == EXIT_USAGE
        assert f"error: cannot use {taken} as the output directory" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["run", "sweep", "calibrate"])
    def test_grid_over_the_memory_cap_exits_2_before_evolving(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called on a rejected config")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        path = write_ini(tmp_path, height="calibrate", sweep_values="3")
        Path(path).write_text(Path(path).read_text(encoding="utf-8").replace(
            "points = 2048", f"points = {2**21}"), encoding="utf-8")
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert "points must be <= 1048576" in capsys.readouterr().err


class TestRunCommand:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        path = write_ini(tmp_path)
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert main(["run", "--config", path, "--out", str(out1)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["run", "--config", path, "--out", str(out2)]) == EXIT_OK
        assert "param=3" in first
        assert "nearest reference:" in first
        assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()
        assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()

    def test_json_echo_reruns_the_same_scenario(self, tmp_path):
        path = write_ini(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "run.json").read_text(encoding="utf-8"))
        echoed = config_from_dict(summary["config"])
        assert echoed.barrier_height == pytest.approx(26.787825)
        assert echoed.separation == 3.0
        row = summary["rows"][0]
        assert row["valid"] is True
        assert row["p20"] + row["p02"] + row["p11"] == pytest.approx(1.0, abs=1e-9)

    def test_quadrature_oracle_agrees(self, tmp_path, capsys):
        path = write_ini(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out), "--oracle"]) == EXIT_OK
        stdout = capsys.readouterr().out
        tagged = [ln for ln in stdout.splitlines() if ln.startswith("oracle:")]
        assert len(tagged) == 1
        delta = float(tagged[0].rsplit("=", 1)[1])
        assert delta < 1e-9

    def test_oracle_reuses_the_measured_pair(self, tmp_path, capsys, monkeypatch):
        path = write_ini(tmp_path, sign="fermion",
                         extra="\n[measurement]\nstability_fractions = 0.1 0.2\n")
        plain, checked = tmp_path / "plain", tmp_path / "oracle"
        assert main(["run", "--config", path, "--out", str(plain)]) == EXIT_OK

        evolutions, oracle_times = [], []
        real_evolve_pair = experiment.evolve_pair_to_measurement
        real_oracle = cli.quadrant_quadrature_oracle

        def counting_evolve_pair(*args, **kwargs):
            evolutions.append(args)
            return real_evolve_pair(*args, **kwargs)

        def recording_oracle(pair, *args, **kwargs):
            oracle_times.append((pair.psi_a.t, pair.psi_b.t))
            split_pairs.append(pair)
            return real_oracle(pair, *args, **kwargs)

        # the quadrature is set against the position split of its own pair
        split_pairs, real_split = [], cli.joint_probabilities

        def recording_split(pair, *args, **kwargs):
            split_pairs.append(pair)
            return real_split(pair, *args, **kwargs)

        for module in (experiment, cli):
            monkeypatch.setattr(module, "evolve_pair_to_measurement", counting_evolve_pair)
        monkeypatch.setattr(cli, "quadrant_quadrature_oracle", recording_oracle)
        monkeypatch.setattr(cli, "joint_probabilities", recording_split)
        capsys.readouterr()
        assert main(["run", "--config", path, "--out", str(checked), "--oracle"]) == EXIT_OK
        stdout = capsys.readouterr().out

        assert len(evolutions) == 1
        for name in ("run.csv", "run.json"):
            assert (plain / name).read_bytes() == (checked / name).read_bytes()
        # the quadrature saw the pair at the measurement time, not the extended one
        row = json.loads((checked / "run.json").read_text(encoding="utf-8"))["rows"][0]
        assert len(row["stability_a"]) == 2
        assert oracle_times == [(pytest.approx(row["t_meas"], abs=1e-9),) * 2]
        assert len(split_pairs) == 2 and split_pairs[0] is split_pairs[1]
        tagged = [ln for ln in stdout.splitlines() if ln.startswith("oracle:")]
        assert len(tagged) == 1
        assert float(tagged[0].rsplit("=", 1)[1]) <= 1e-12

    def test_oracle_size_checked_before_evolving(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called before the oracle size check")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        path = write_ini(tmp_path, height="calibrate")
        text = Path(path).read_text(encoding="utf-8")
        text = text.replace("half_width = 64", "half_width = 256")
        Path(path).write_text(text.replace("points = 2048", "points = 8192"), encoding="utf-8")
        cli._load_config_file(path)[0].validate()  # only the oracle's size is wrong
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out), "--oracle"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "2D quadrature oracle limited to 4096 grid points, got 8192" in err
        assert not (out / "run.csv").exists() and not (out / "run.json").exists()

    def test_degenerate_fermion_exits_4(self, tmp_path, capsys):
        path = write_ini(tmp_path, sign="fermion", separation="0")
        assert main(["run", "--config", path]) == EXIT_DEGENERATE
        assert "degenerate" in capsys.readouterr().err


class TestSweepCommand:
    def test_requires_config_with_sweep_block(self, tmp_path, capsys):
        assert main(["sweep"]) == EXIT_USAGE
        assert "needs --config" in capsys.readouterr().err
        path = write_ini(tmp_path)  # no [sweep] section
        assert main(["sweep", "--config", path]) == EXIT_USAGE
        assert "no [sweep] section" in capsys.readouterr().err

    @pytest.mark.parametrize("parameter, values", [
        ("separation_d", "2.0 3.0"),
        ("wavenumber_dk", "-0.25 0.25"),
    ])
    def test_parallel_output_matches_serial(self, tmp_path, capsys, parameter, values):
        path = write_ini(tmp_path, sweep_values=values, sweep_parameter=parameter)
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        code = main(["sweep", "--config", path, "--out", str(out_serial), "--verbose"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "2 rows (2 valid)" in captured.out
        assert "param=" in captured.err  # verbose row lines go to stderr
        code = main(["sweep", "--config", path, "--out", str(out_parallel),
                     "--parallel", "2"])
        assert code == EXIT_OK
        assert (out_serial / "sweep.csv").read_bytes() == (
            out_parallel / "sweep.csv"
        ).read_bytes()
        assert (out_serial / "sweep.json").read_bytes() == (
            out_parallel / "sweep.json"
        ).read_bytes()

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_bad_parallel_exits_2_before_evolving(self, tmp_path, capsys, monkeypatch, parallel):
        def refuse(*args, **kwargs):
            raise AssertionError("evolved before rejecting --parallel")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        # a calibrated barrier: calibration would evolve first
        path = write_ini(tmp_path, height="calibrate", sweep_values="2.0 3.0")
        out = tmp_path / "out"
        code = main(["sweep", "--config", path, "--out", str(out), "--parallel", parallel])
        assert code == EXIT_USAGE
        assert f"--parallel must be >= 1, got {parallel}" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("values", ["nan 3.0", "inf", "3.0 -inf"])
    def test_non_finite_values_exit_2_before_evolving(self, tmp_path, capsys, monkeypatch,
                                                      values):
        def refuse(*args, **kwargs):
            raise AssertionError("evolved before rejecting the sweep values")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(experiment, "evolve", refuse)
        # a calibrated barrier: calibration would evolve first
        path = write_ini(tmp_path, height="calibrate", sweep_values=values)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_USAGE
        assert "sweep values must be finite" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_all_invalid_rows_exit_5(self, tmp_path, capsys):
        path = write_ini(tmp_path, sign="fermion", sweep_values="0.0")
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_ALL_INVALID
        captured = capsys.readouterr()
        assert "no valid rows" in captured.err
        # the error row is still written for inspection
        text = (out / "sweep.csv").read_text(encoding="utf-8")
        assert "error" in text


class TestDensityCommand:
    def test_single_packet_dump_is_normalized(self, tmp_path, capsys):
        path = write_ini(tmp_path)
        out = tmp_path / "out"
        assert main(["density", "single_a", "--config", path, "--out", str(out)]) == EXIT_OK
        lines = (out / "density_single_a.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,re,im,abs2"
        assert len(lines) == 1 + 2048
        dx = 2.0 * 64.0 / 2048
        total = sum(float(ln.split(",")[3]) for ln in lines[1:]) * dx
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_identical_packets_dump_identically(self, tmp_path):
        path = write_ini(tmp_path, separation="0")
        out = tmp_path / "out"
        assert main(["density", "single_a", "--config", path, "--out", str(out)]) == EXIT_OK
        assert main(["density", "single_b", "--config", path, "--out", str(out)]) == EXIT_OK
        a = (out / "density_single_a.csv").read_bytes()
        b = (out / "density_single_b.csv").read_bytes()
        assert a == b

    def test_fermion_joint_dump_has_empty_diagonal(self, tmp_path):
        path = write_ini(tmp_path, sign="fermion")
        out = tmp_path / "nested" / "dir"  # --out must create parents
        code = main(["density", "joint", "--config", path, "--out", str(out),
                     "--max-points", "32"])
        assert code == EXIT_OK
        lines = (out / "density_joint.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x1,x2,density"
        assert len(lines) == 1 + 32 * 32
        for line in lines[1:]:
            x1, x2, dens = line.split(",")
            # cancellation in the exchange term can leave ~1e-200 dust
            assert float(dens) >= -1e-15
            if x1 == x2:
                assert abs(float(dens)) < 1e-13

    def test_evolved_packet_b_is_the_one_measured(self, tmp_path):
        path = write_ini(tmp_path, separation="2.5")
        out = tmp_path / "out"
        assert main(["density", "single_b", "--evolved", "--config", path,
                     "--out", str(out)]) == EXIT_OK
        config = cli._load_config_file(path)[0]
        _, pair = experiment.run_resolved(config, param_value=config.separation)
        expected = io.StringIO(newline="")
        dump_wavefunction_csv(pair.psi_b, expected)
        written = (out / "density_single_b.csv").read_text(encoding="utf-8")
        assert written.splitlines() == expected.getvalue().splitlines()

    @pytest.mark.parametrize("max_points", ["0", "-3"])
    def test_bad_max_points_exits_2_before_evolving(self, tmp_path, capsys, monkeypatch,
                                                     max_points):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolved before rejecting --max-points")

        monkeypatch.setattr(propagator, "evolve", no_evolve)
        path = write_ini(tmp_path)
        out = tmp_path / "out"
        code = main(["density", "joint", "--evolved", "--config", path, "--out", str(out),
                     "--max-points", max_points])
        assert code == EXIT_USAGE
        assert f"--max-points must be >= 1, got {max_points}" in capsys.readouterr().err
        assert not (out / "density_joint.csv").exists()


class TestCalibrateCommand:
    def test_fixed_height_reports_transmission(self, tmp_path, capsys):
        path = write_ini(tmp_path)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", path, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "barrier height 26.787825 transmits" in stdout
        report = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        assert report["kind"] == "calibration"
        assert 0.4 < report["transmission"] < 0.6
        assert "calibration" not in report  # no bisection happened

    @pytest.mark.parametrize("command", ["calibrate", "run", "sweep", "density"])
    def test_verbose_lists_every_calibration_run(self, tmp_path, capsys, monkeypatch, command):
        fake = CalibrationResult(
            barrier=BarrierPotential(26.787825, 0.5), transmission=0.5012, iterations=2,
            history=((30.5, 0.4321), (26.787825, 0.5012)), measurement_time=2.9,
        )
        monkeypatch.setattr(cli, "resolve_barrier", lambda config: (
            replace(config, barrier_height=fake.barrier.height), fake))
        path = write_ini(tmp_path, height="calibrate", sweep_values="3")
        assert main([command, *SUBCOMMAND_ARGS.get(command, ()), "--config", path,
                     "--out", str(tmp_path / "out"), "--verbose"]) == EXIT_OK
        captured = capsys.readouterr()
        # each run is followed by the bracket of the runs so far: the highest
        # height above target, the lowest below it, "-" while a side is unknown
        first = captured.err.index("  height 30.5 -> T = 0.43210000\n    bracket [-, 30.5]\n")
        assert captured.err.index(
            "  height 26.787825 -> T = 0.50120000\n    bracket [26.787825, 30.5]\n"
        ) > first
        assert "bracket" not in captured.out

    @pytest.mark.parametrize("command", ["calibrate", "run", "sweep", "density"])
    def test_verbose_lists_the_runs_of_a_failed_calibration(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def fail(config):
            raise CalibrationError("run budget 2 spent", [(30.5, 0.4321), (26.787825, 0.5312)])

        monkeypatch.setattr(cli, "resolve_barrier", fail)
        path = write_ini(tmp_path, height="calibrate", sweep_values="3")
        argv = [command, *SUBCOMMAND_ARGS.get(command, ()), "--config", path,
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CALIBRATION
        quiet = capsys.readouterr()
        assert main(argv + ["--verbose"]) == EXIT_CALIBRATION
        captured = capsys.readouterr()
        assert captured.out == quiet.out
        runs = ("  height 30.5 -> T = 0.43210000\n    bracket [-, 30.5]\n"
                "  height 26.787825 -> T = 0.53120000\n    bracket [26.787825, 30.5]\n")
        assert runs not in quiet.err
        assert captured.err.index(runs) < captured.err.index("error: run budget 2 spent")

    def test_calibration_search_hits_target(self, tmp_path, capsys):
        path = write_ini(tmp_path, height="calibrate",
                         extra="\n[barrier]\n", sweep_values=None)
        # rewrite with a looser tolerance to keep the bisection short
        text = SMALL_INI.format(sign="boson", separation="3", height="calibrate")
        text += "\n"
        path = tmp_path / "cal.ini"
        path.write_text(text.replace("height = calibrate",
                                     "height = calibrate\ntol = 0.01"),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(path), "--out", str(out),
                     "--verbose"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "->" in captured.err  # per-iteration detail on stderr
        report = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        block = report["calibration"]
        assert abs(block["transmission"] - 0.5) <= 0.01
        assert block["iterations"] == len(block["history"]) >= 1
        assert math.isfinite(block["height"])
