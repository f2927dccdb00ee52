import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from dataclasses import fields, replace

import dcelab
from dcelab import config
from dcelab.cli import main
from dcelab.config import ConfigError, build_gate, build_otto, build_squid, load_config
from dcelab.gate import OpenRates, default_cqed_params
from dcelab.otto import CycleSpec
from dcelab.output import format_value, read_table, sha256_of_file, write_table


def write_cfg(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def run(tmp_path, subcommand, doc, *extra):
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    return main([subcommand, "--config", str(cfg), "--out", str(out), *extra]), out


# the scenario loader is built on libyaml where pyyaml has it, else on pure Python;
# the loader tests run on every base this install has
LOADER_BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def each_loader(monkeypatch):
    """Yields each loader base, with load_config reading through a loader built on it."""
    for base in LOADER_BASES:
        with monkeypatch.context() as m:
            m.setattr(config, "_ScenarioLoader", config._scenario_loader(base))
            yield base


SPECTRUM_DOC = {"squid": {"chi0": 0.0, "b0L": 1.0e6, "b0R": 1.0e6, "n_max": 4}}

STATIC_DOC = {
    "cavity": {"length": 3.141592653589793, "n_modes": 5},
    "trajectory": {"type": "static", "t_end": 4.0},
    "bogoliubov": {"n_times": 9},
}

OTTO_DOC = {
    "otto": {"length": 3.141592653589793, "epsilon": 0.01, "beta_A": 6.0,
             "beta_C": 2.0, "n_modes": 12,
             "tau_min": 5.0, "tau_max": 300.0, "n_tau": 4},
}


class TestConfigValidation:
    def test_unknown_block_rejected(self, tmp_path):
        path = write_cfg(tmp_path, {"cavities": {"length": 1.0}})
        with pytest.raises(ConfigError, match="cavities"):
            load_config(path)

    def test_unknown_key_names_the_path(self, tmp_path):
        path = write_cfg(tmp_path, {"cavity": {"length": 1.0, "n_modes": 4,
                                               "typo_key": 1}})
        with pytest.raises(ConfigError, match=r"\$\.cavity.*typo_key"):
            load_config(path)

    def test_syntax_error_reports_line(self, tmp_path, monkeypatch):
        path = tmp_path / "broken.yaml"
        path.write_text("cavity:\n  length: [1.0\n")
        for _ in each_loader(monkeypatch):
            with pytest.raises(ConfigError, match="line"):
                load_config(path)

    def test_wrong_type_names_the_field(self, tmp_path):
        path = write_cfg(tmp_path, {"squid": {"chi0": 0.0, "b0L": "big",
                                              "b0R": 1.0, "n_max": 2}})
        with pytest.raises(ConfigError, match=r"\$\.squid\.b0L"):
            load_config(path)

    def test_unsigned_exponent_floats_parse(self, tmp_path, monkeypatch):
        # YAML 1.1 would read 1.0e6 as a string; the loader must not
        path = tmp_path / "exp.yaml"
        path.write_text("squid: {chi0: 0.0, b0L: 1.0e6, b0R: 1e6, n_max: 2}\n")
        for _ in each_loader(monkeypatch):
            cfg = load_config(path)
            assert cfg["squid"]["b0L"] == 1.0e6
            assert cfg["squid"]["b0R"] == 1.0e6

    @pytest.mark.parametrize("text, key, line", [
        ("cavity: {n_modes: 4, n_modes: 8, length: 1.0}\n", "n_modes", 1),
        ("cavity:\n  length: 1.0\n  n_modes: 4\n  n_modes: 8\n", "n_modes", 4),
        ("squid: {chi0: 0.0, b0L: 1.0, b0R: 1.0, n_max: 2}\ncavity: {length: 1.0, "
         "n_modes: 4}\nsquid: {chi0: 0.0, b0L: 1.0, b0R: 1.0, n_max: 2}\n", "squid", 3),
    ], ids=["flow_mapping", "block_mapping", "top_level"])
    def test_duplicate_key_names_the_key_and_its_line(self, tmp_path, monkeypatch, text, key,
                                                      line):
        # pyyaml alone would keep the last value and run with it
        path = tmp_path / "dup.yaml"
        path.write_text(text)
        for _ in each_loader(monkeypatch):
            with pytest.raises(ConfigError, match=rf"line {line}: found duplicate key '{key}'"):
                load_config(path)

    def test_merge_key_may_be_overridden(self, tmp_path, monkeypatch):
        path = tmp_path / "merge.yaml"
        path.write_text("cavity:\n  <<: {length: 1.0, n_modes: 4}\n  n_modes: 8\n")
        for _ in each_loader(monkeypatch):
            assert load_config(path) == {"cavity": {"length": 1.0, "n_modes": 8}}

    def test_top_level_must_be_mapping(self, tmp_path, monkeypatch):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        for _ in each_loader(monkeypatch):
            with pytest.raises(ConfigError, match="mapping"):
                load_config(path)

    def test_empty_file_is_empty_config(self, tmp_path, monkeypatch):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        for _ in each_loader(monkeypatch):
            assert load_config(path) == {}

    def test_the_loader_uses_libyaml_where_pyyaml_has_it(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert issubclass(config._ScenarioLoader, base)


class TestExitCodes:
    def test_unknown_key_exits_2(self, tmp_path):
        doc = {"squid": {"chi0": 0.0, "b0L": 1.0, "b0R": 1.0, "n_max": 2,
                         "oops": 3}}
        code, _ = run(tmp_path, "spectrum", doc)
        assert code == 2

    def test_missing_block_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "spectrum", {"cavity": {"length": 1.0,
                                                        "n_modes": 2}})
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_superluminal_wall_exits_3(self, tmp_path, capsys):
        doc = {"cavity": {"length": 3.141592653589793, "n_modes": 4},
               "trajectory": {"type": "harmonic", "epsilon": 0.3,
                              "omega": 2.0, "t_end": 5.0}}
        code, _ = run(tmp_path, "bogoliubov", doc)
        assert code == 3
        assert "superluminal" in capsys.readouterr().err

    def test_truncation_leak_exits_3(self, tmp_path, capsys):
        doc = {"gate": {"r": 2.5, "p_z": [0.0], "n_max": 40}}
        code, _ = run(tmp_path, "gate", doc)
        assert code == 3
        assert "enlarge n_max" in capsys.readouterr().err

    def test_out_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = write_cfg(tmp_path, SPECTRUM_DOC)
        assert main(["spectrum", "--config", str(cfg), "--out", str(taken)]) == 2
        assert "config error: cannot create output directory" in capsys.readouterr().err

    def test_unwritable_table_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "spectrum.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path, SPECTRUM_DOC)
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: cannot write the results" in err and "spectrum.csv" in err

    def test_success_exits_0(self, tmp_path):
        code, out = run(tmp_path, "spectrum", SPECTRUM_DOC)
        assert code == 0
        assert (out / "spectrum.csv").exists()
        assert (out / "spectrum_manifest.json").exists()


class TestNonFiniteNumbers:
    """YAML .nan and .inf pass every schema bound without a maximum; load_config
    rejects them by path, except +inf for a gate lifetime, which switches that
    channel off."""

    NAN = float("nan")
    CASES = {
        "cavity": ("bogoliubov", {**STATIC_DOC, "cavity": {"length": NAN, "n_modes": 5}}),
        "trajectory": ("bogoliubov", {**STATIC_DOC, "trajectory": {
            "type": "harmonic", "epsilon": NAN, "omega": 2.0, "t_end": 4.0}}),
        "bogoliubov": ("bogoliubov", {**STATIC_DOC, "bogoliubov": {"beta_temp": NAN}}),
        "msa": ("msa", {"cavity": {"length": 3.141592653589793, "n_modes": 4},
                        "msa": {"omega": 2.0, "tau_max": NAN}}),
        "moore": ("moore", {**STATIC_DOC, "moore": {"t_max": 4.0, "temperature": NAN}}),
        "squid": ("spectrum", {"squid": {**SPECTRUM_DOC["squid"], "b0L": NAN}}),
        "otto": ("otto", {"otto": {**OTTO_DOC["otto"], "epsilon": NAN}}),
        "gate": ("gate", {"gate": {"r": 0.3, "p_z": [0.5], "n_max": 12,
                                   "rates": {"temperature_mK": NAN}}}),
        "crosscheck": ("crosscheck", {
            "cavity": {"length": 3.141592653589793, "n_modes": 4},
            "trajectory": {"type": "harmonic", "epsilon": 0.01, "omega": 2.0, "t_end": 4.0},
            "crosscheck": {"beta_factor": NAN}}),
    }

    @pytest.mark.parametrize("block", list(CASES))
    def test_nan_in_each_block_exits_2(self, tmp_path, capsys, block):
        subcommand, doc = self.CASES[block]
        code, _ = run(tmp_path, subcommand, doc)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"$.{block}." in err
        assert "nan is not a finite number" in err

    @pytest.mark.parametrize("value, message", [
        (float("inf"), "inf is not a finite number"),
        (-float("inf"), "-inf is less than or equal to the minimum of 0"),
    ], ids=["+inf", "-inf"])
    def test_infinite_length_exits_2(self, tmp_path, capsys, value, message):
        doc = {**STATIC_DOC, "cavity": {"length": value, "n_modes": 5}}
        code, _ = run(tmp_path, "bogoliubov", doc)
        assert code == 2
        assert f"$.cavity.length: {message}" in capsys.readouterr().err

    def test_infinite_lifetime_switches_the_channel_off(self, tmp_path):
        doc = {"gate": {"r": 0.3, "p_z": [0.5], "n_max": 12,
                        "rates": {"tau_phi": float("inf")}}}
        assert load_config(write_cfg(tmp_path, doc)) == doc
        assert run(tmp_path, "gate", doc)[0] == 0
        assert build_gate(doc["gate"])[2].tau_phi == float("inf")


class TestParser:
    """main builds its parser once per process; reuse must leak nothing between runs."""

    @pytest.mark.parametrize("subcommand, doc, table", [
        ("bogoliubov", {"cavity": {"length": 3.141592653589793, "n_modes": 4},
                        "trajectory": {"type": "harmonic", "epsilon": 0.02, "omega": 2.0,
                                       "t_end": 8.0},
                        "bogoliubov": {"n_times": 5}}, "occupations.csv"),
        ("msa", {"cavity": {"length": 3.141592653589793, "n_modes": 4},
                 "msa": {"omega": 2.0, "n_samples": 5}}, "slow_amplitudes.csv"),
    ], ids=["bogoliubov", "msa"])
    def test_two_runs_in_one_process_write_identical_tables(self, tmp_path, subcommand,
                                                            doc, table):
        cfg = write_cfg(tmp_path, doc)
        blobs = []
        for name in ("first", "second"):
            assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            blobs.append((tmp_path / name / table).read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_thread_count_after_a_good_run_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SPECTRUM_DOC)
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            main(["spectrum", "--config", str(cfg), "--threads", "0"])
        assert exit_.value.code == 2
        assert "thread count must be >= 1" in capsys.readouterr().err

    def test_build_parser_returns_a_new_parser_and_main_keeps_one(self):
        from dcelab import cli
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


class TestTableFormats:
    def test_csv_round_trip_is_bitwise(self, tmp_path):
        rows = [[0.1, 1.0 / 3.0, -0.0], [1e-300, 2.0**-52, 12345.678901234567],
                [np.pi, -np.e, 6.02214076e23], ["label", 3, np.float64(0.1)],
                [np.int64(-7), np.float32(0.1), "x-y"], [float("nan"), np.inf, -np.inf],
                [5e-324, -5e-324, np.float64(np.nan)], [True, 2**60, np.str_("s")]]
        first = write_table(tmp_path / "a", ["x", "y", "z"], rows, "csv")
        # each row is formatted by one '%'; the bytes are those of format_value per cell
        assert first.read_text() == "".join(
            ",".join(format_value(v) for v in row) + "\n" for row in [["x", "y", "z"], *rows])
        header, parsed = read_table(first)
        second = write_table(tmp_path / "b", header, parsed, "csv")
        assert first.read_bytes() == second.read_bytes()

    def test_empty_sweep_gives_header_only(self, tmp_path):
        path = write_table(tmp_path / "empty", ["a", "b"], [], "csv")
        assert path.read_text() == "a,b\n"
        header, rows = read_table(path)
        assert header == ["a", "b"] and rows == []

    def test_json_mirrors_csv_values(self, tmp_path):
        rows = [[1.0 / 3.0, 2.0], [np.pi, -1e-17]]
        c = write_table(tmp_path / "t", ["u", "v"], rows, "json")
        payload = json.loads(c.read_text())
        assert payload["columns"] == ["u", "v"]
        assert payload["rows"] == rows

    def test_row_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="row length"):
            write_table(tmp_path / "bad", ["a"], [[1.0, 2.0]], "csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_table(tmp_path / "bad", ["a"], [], "xml")

    def test_reading_closes_every_file(self, tmp_path):
        csv = write_table(tmp_path / "t", ["a"], [[1.0]], "csv")
        js = write_table(tmp_path / "t", ["a"], [[1.0]], "json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            read_table(csv)
            read_table(js)
            sha256_of_file(csv)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSpectrumRun:
    def test_roots_near_dirichlet_ladder(self, tmp_path):
        code, out = run(tmp_path, "spectrum", SPECTRUM_DOC)
        assert code == 0
        header, rows = read_table(out / "spectrum.csv")
        assert header == ["n", "kd", "phi"]
        for n, kd, _ in rows:
            assert abs(kd - n * np.pi) < 1e-4

    def test_manifest_records_provenance(self, tmp_path):
        _, out = run(tmp_path, "spectrum", SPECTRUM_DOC, "--seed", "7")
        manifest = json.loads((out / "spectrum_manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["outputs"] == ["spectrum.csv"]
        assert len(manifest["config_sha256"]) == 64
        assert manifest["tolerances"]["max_sine_residual"] < 1e-10
        assert set(manifest["versions"]) == {"dcelab", "numpy", "scipy", "python"}


class TestBogoliubovRun:
    def test_static_wall_beta_column_stays_numerical_zero(self, tmp_path):
        code, out = run(tmp_path, "bogoliubov", STATIC_DOC)
        assert code == 0
        header, rows = read_table(out / "occupations.csv")
        assert header[:2] == ["t", "beta_max"]
        assert header[2:] == [f"N_{k}" for k in range(1, 6)]
        assert len(rows) == 9
        for row in rows:
            assert row[1] < 1e-10
            assert max(row[2:]) < 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, STATIC_DOC)
        outs = []
        for name in ("o1", "o2"):
            assert main(["bogoliubov", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name / "occupations.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_resonant_drive_populates_the_fundamental(self, tmp_path):
        doc = {"cavity": {"length": 3.141592653589793, "n_modes": 6},
               "trajectory": {"type": "harmonic", "epsilon": 0.02,
                              "omega": 2.0, "t_end": 20.0},
               "bogoliubov": {"n_times": 5}}
        code, out = run(tmp_path, "bogoliubov", doc)
        assert code == 0
        _, rows = read_table(out / "occupations.csv")
        n1 = [r[2] for r in rows]
        assert n1[0] < 1e-12 and n1[-1] > 0.01
        assert all(a <= b + 1e-12 for a, b in zip(n1, n1[1:]))


class TestMsaRun:
    def test_amplitude_columns_track_requested_pairs(self, tmp_path):
        doc = {"cavity": {"length": 3.141592653589793, "n_modes": 8},
               "msa": {"omega": 2.0, "tau_max": 0.5, "n_samples": 6,
                       "pairs": [[1, 1], [1, 3]]}}
        code, out = run(tmp_path, "msa", doc)
        assert code == 0
        header, rows = read_table(out / "slow_amplitudes.csv")
        assert header == ["tau", "abs_alpha_1_1", "abs_beta_1_1",
                          "abs_alpha_1_3", "abs_beta_1_3"]
        assert rows[0][1:] == [1.0, 0.0, 0.0, 0.0]
        # degenerate resonance: |beta_11| grows monotonically from zero
        b11 = [r[2] for r in rows]
        assert all(a < b for a, b in zip(b11, b11[1:]))
        assert rows[-1][0] == 0.5

    def test_n_steps_is_accepted_and_ignored(self, tmp_path):
        doc = {"cavity": {"length": 3.141592653589793, "n_modes": 8},
               "msa": {"omega": 3.0, "tau_max": 0.9, "n_samples": 51,
                       "pairs": [[1, 2]]}}
        (tmp_path / "plain").mkdir()
        (tmp_path / "steps").mkdir()
        code, out = run(tmp_path / "plain", "msa", doc)
        assert code == 0
        doc["msa"]["n_steps"] = 1000
        code, out_steps = run(tmp_path / "steps", "msa", doc)
        assert code == 0
        assert (out / "slow_amplitudes.csv").read_bytes() == \
            (out_steps / "slow_amplitudes.csv").read_bytes()

    def test_pair_beyond_truncation_exits_2(self, tmp_path):
        doc = {"cavity": {"length": 3.141592653589793, "n_modes": 4},
               "msa": {"omega": 2.0, "pairs": [[1, 9]]}}
        code, _ = run(tmp_path, "msa", doc)
        assert code == 2


class TestMooreRun:
    def test_tables_cover_the_requested_grids(self, tmp_path):
        doc = {"cavity": {"length": 3.141592653589793, "n_modes": 4},
               "trajectory": {"type": "harmonic", "epsilon": 0.05,
                              "omega": 2.0, "t_end": 6.0},
               "moore": {"t_max": 8.0, "n_z": 7, "n_x": 5, "n_t": 3}}
        code, out = run(tmp_path, "moore", doc)
        assert code == 0
        fh, f_rows = read_table(out / "moore_function.csv")
        assert fh == ["z", "F"]
        assert len(f_rows) == 7
        # left edge of the window: F(z) = z / R0 before the wall moves
        assert abs(f_rows[0][1] - f_rows[0][0] / np.pi) < 1e-12
        eh, e_rows = read_table(out / "energy_density.csv")
        assert eh == ["x", "t", "T_tt"]
        assert len(e_rows) == 5 * 3
        # before the drive starts the density is the static Casimir value
        static = -np.pi / 24.0 / np.pi**2
        for x, t, u in e_rows[:5]:
            assert t == 0.0
            assert abs(u - static) < 1e-10

    def test_reruns_write_identical_tables(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "cavity": {"length": 3.141592653589793, "n_modes": 4},
            "trajectory": {"type": "harmonic", "epsilon": 0.05,
                           "omega": 2.0, "t_end": 6.0},
            "moore": {"t_max": 8.0, "n_z": 9, "n_x": 7, "n_t": 5,
                      "temperature": 0.4}})
        for run_dir in ("a", "b"):
            assert main(["moore", "--config", str(cfg),
                         "--out", str(tmp_path / run_dir)]) == 0
        for name in ("moore_function.csv", "energy_density.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        # one grid-wide evaluation, written t outer and x inner
        _, rows = read_table(tmp_path / "a" / "energy_density.csv")
        ts = [r[1] for r in rows]
        assert ts == sorted(ts) and len(set(ts)) == 5
        assert [r[0] for r in rows[:7]] == [r[0] for r in rows[7:14]]


class TestOttoRun:
    def test_efficiency_approaches_compression_ratio(self, tmp_path):
        code, out = run(tmp_path, "otto", OTTO_DOC)
        assert code == 0
        header, rows = read_table(out / "otto_cycle.csv")
        assert header == ["tau_omega1", "eta", "W", "Q", "P"]
        assert abs(rows[-1][1] - 0.01) < 1e-6
        assert rows[-1][0] == 300.0

    def test_empty_sweep_gives_header_only_csv(self, tmp_path):
        doc = {"otto": {"length": 3.141592653589793, "epsilon": 0.01,
                        "beta_A": 6.0, "beta_C": 2.0, "tau_values": []}}
        code, out = run(tmp_path, "otto", doc)
        assert code == 0
        assert (out / "otto_cycle.csv").read_text() == "tau_omega1,eta,W,Q,P\n"

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, OTTO_DOC)
        blobs = []
        for name, threads in (("s", "1"), ("p", "4")):
            assert main(["otto", "--config", str(cfg), "--out",
                         str(tmp_path / name), "--threads", threads]) == 0
            blobs.append((tmp_path / name / "otto_cycle.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_tau_values_and_range_are_exclusive(self, tmp_path):
        doc = {"otto": {"length": 1.0, "epsilon": 0.01, "beta_A": 6.0,
                        "beta_C": 2.0, "tau_values": [1.0],
                        "tau_min": 1.0, "tau_max": 2.0, "n_tau": 2}}
        code, _ = run(tmp_path, "otto", doc)
        assert code == 2


class TestGateRun:
    def test_closed_form_matches_protocol_columns(self, tmp_path):
        doc = {"gate": {"r": 0.5, "p_z": [-1.0, 0.0, 0.5, 1.0], "n_max": 60}}
        code, out = run(tmp_path, "gate", doc)
        assert code == 0
        header, rows = read_table(out / "gate_fidelity.csv")
        assert header == ["p_z", "fbar_closed", "fbar_simulated",
                          "fbar_open", "purity"]
        for pz, fc, fs, fo, pur in rows:
            assert abs(fc - fs) < 1e-6
            # without a rates block the lossless limit is reported
            assert fo == fs and pur == 1.0
        assert rows[0][1] == 1.0 and rows[-1][1] == 1.0

    def test_closed_run_builds_two_squeezes(self, tmp_path, monkeypatch):
        # one per gate angle, shared by every P_z of the run, both from one
        # real exponential of the even and odd blocks of S(r, 0)
        import dcelab.gate as gate
        calls = []
        expm_taylor = gate.expm_taylor
        monkeypatch.setattr(gate, "expm_taylor",
                            lambda a: calls.append((a.shape, a.dtype)) or expm_taylor(a))
        doc = {"gate": {"r": 0.5, "p_z": [-1.0, -0.5, 0.0, 0.5, 1.0], "n_max": 40}}
        code, _ = run(tmp_path, "gate", doc)
        assert code == 0 and calls == [((2, 21, 21), np.float64)]

    def test_rows_sorted_by_polarization(self, tmp_path):
        doc = {"gate": {"r": 0.4, "p_z": [0.5, -0.5, 0.0], "n_max": 40}}
        code, out = run(tmp_path, "gate", doc)
        assert code == 0
        _, rows = read_table(out / "gate_fidelity.csv")
        assert [r[0] for r in rows] == [-0.5, 0.0, 0.5]

    def test_rates_block_switches_on_the_lindblad_column(self, tmp_path):
        doc = {"gate": {"r": 0.3, "p_z": [0.5], "n_max": 24,
                        "rates": {"tau_q": 2.0e5, "tau_r": 2.0e5,
                                  "tau_phi": 1.0e4, "temperature_mK": 60.0}}}
        code, out = run(tmp_path, "gate", doc)
        assert code == 0
        _, rows = read_table(out / "gate_fidelity.csv")
        pz, fc, fs, fo, pur = rows[0]
        assert fo < fs
        assert 0.97 < pur < 1.0


    def test_thread_count_does_not_change_open_gate_bytes(self, tmp_path):
        doc = {"gate": {"r": 0.3, "p_z": [0.2, 0.7], "n_max": 12,
                        "rates": {"tau_q": 2.0e5, "tau_r": 2.0e5,
                                  "tau_phi": 1.0e4, "temperature_mK": 60.0}}}
        cfg = write_cfg(tmp_path, doc)
        blobs = []
        for name, threads in (("s", "1"), ("p", "2")):
            assert main(["gate", "--config", str(cfg), "--out",
                         str(tmp_path / name), "--threads", threads]) == 0
            blobs.append((tmp_path / name / "gate_fidelity.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestBuilders:
    """The builders cast what a scenario gives and leave every other field
    to the default of the dataclass it feeds."""

    @pytest.mark.parametrize("subcommand, doc, table, key, value", [
        ("gate", {"gate": {"r": 0.3, "p_z": [0.0, 0.5]}}, "gate_fidelity.csv",
         "n_max", 20),
        ("otto", OTTO_DOC, "otto_cycle.csv", "n_modes", 10),
    ])
    def test_integral_float_spelling_writes_the_same_bytes(self, tmp_path, subcommand,
                                                           doc, table, key, value):
        # the schema accepts 20.0 where it asks for an integer
        blobs = []
        for spelling in (value, float(value)):
            block = dict(doc[subcommand], **{key: spelling})
            case = tmp_path / type(spelling).__name__
            case.mkdir()
            code, out = run(case, subcommand, {subcommand: block})
            assert code == 0
            blobs.append((out / table).read_bytes())
        assert blobs[0] == blobs[1]

    def test_gate_defaults_come_from_the_library(self):
        params, p_z, rates = build_gate({"r": 0.5, "p_z": [0.0]})
        expected = default_cqed_params(t_gate=0.5 / 0.0075)
        for field in fields(expected):
            assert getattr(params, field.name) == getattr(expected, field.name), field.name
        assert p_z.tolist() == [0.0] and rates is None

    def test_missing_rates_come_from_typical(self):
        _, _, rates = build_gate({"r": 0.5, "p_z": [0.0], "rates": {"tau_q": 1.0e5}})
        assert rates == replace(OpenRates.typical(), tau_q=1e5)

    def test_otto_mode_count_defaults_to_the_cycle_spec(self):
        doc = {k: v for k, v in OTTO_DOC["otto"].items() if k != "n_modes"}
        spec, _ = build_otto(doc)
        default = CycleSpec(L0=1.0, eps=0.01, beta_A=6.0, beta_C=2.0, tau=1.0)
        assert spec.n_modes == default.n_modes
        assert spec.include_casimir == default.include_casimir

    def test_squid_length_defaults_to_one(self):
        params, n_max = build_squid(SPECTRUM_DOC["squid"])
        assert params.d == 1.0 and n_max == 4


class TestCrosscheckRun:
    DOC = {"cavity": {"length": 3.141592653589793, "n_modes": 16},
           "trajectory": {"type": "harmonic", "epsilon": 0.01,
                          "omega": 2.0, "t_end": 10.0}}

    def test_resonant_drive_passes_default_bounds(self, tmp_path, capsys):
        code, out = run(tmp_path, "crosscheck", self.DOC)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ode vs moore" in stdout and "ode vs msa" in stdout
        _, rows = read_table(out / "crosscheck.csv")
        assert len(rows) == 2
        for name, value, bound in rows:
            assert value <= bound

    def test_deviation_bound_is_epsilon_squared_scaled(self, tmp_path):
        _, out = run(tmp_path, "crosscheck", self.DOC)
        _, rows = read_table(out / "crosscheck.csv")
        moore_row = [r for r in rows if r[0] == "ode_vs_moore_max_dbeta"][0]
        assert moore_row[2] == 5.0 * 0.01**2

    def test_unreachable_bounds_exit_3(self, tmp_path, capsys):
        doc = dict(self.DOC)
        doc["crosscheck"] = {"beta_factor": 1e-6}
        code, _ = run(tmp_path, "crosscheck", doc)
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_nonresonant_drive_is_a_physics_error(self, tmp_path, capsys):
        doc = {"cavity": self.DOC["cavity"],
               "trajectory": {"type": "harmonic", "epsilon": 0.01,
                              "omega": 2.5, "t_end": 10.0}}
        code, _ = run(tmp_path, "crosscheck", doc)
        assert code == 3
        assert "resonant" in capsys.readouterr().err


class TestOutputBlockDefaults:
    def test_config_output_block_sets_directory_and_format(self, tmp_path):
        doc = dict(SPECTRUM_DOC)
        doc["output"] = {"path": str(tmp_path / "from_cfg"), "format": "json"}
        cfg = write_cfg(tmp_path, doc)
        assert main(["spectrum", "--config", str(cfg)]) == 0
        header, rows = read_table(tmp_path / "from_cfg" / "spectrum.json")
        assert header == ["n", "kd", "phi"]
        assert len(rows) == 4

    def test_cli_flags_override_the_block(self, tmp_path):
        doc = dict(SPECTRUM_DOC)
        doc["output"] = {"path": str(tmp_path / "ignored"), "format": "json"}
        cfg = write_cfg(tmp_path, doc)
        assert main(["spectrum", "--config", str(cfg), "--out",
                     str(tmp_path / "flag"), "--format", "csv"]) == 0
        assert (tmp_path / "flag" / "spectrum.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestImports:
    HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.optimize", "scipy.special")
    SCHEMA_LIBS = ("jsonschema", "referencing", "rpds", "attrs")
    GATE_DOC = {"gate": {"r": 0.3, "p_z": [0.5], "n_max": 12}}
    OPEN_GATE_DOC = {"gate": dict(GATE_DOC["gate"], rates={"tau_q": 2.0e5})}

    @staticmethod
    def fresh(code):
        """The stdout of code run in a fresh interpreter on this dcelab."""
        src = str(Path(dcelab.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        return out.stdout.strip()

    @classmethod
    def loaded(cls, module, *prefixes):
        """The modules under prefixes that a fresh `import module` loads."""
        return cls.fresh(f"import sys, {module}; "
                         f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")

    @classmethod
    def loaded_after(cls, tmp_path, runs, prefixes=HEAVY):
        """The prefixes under which modules are loaded after each of runs, (subcommand,
        doc) pairs run one after another in one fresh interpreter."""
        argvs = [[sub, "--config", str(write_cfg(tmp_path, doc, f"{i}.yaml")),
                  "--out", str(tmp_path / str(i))] for i, (sub, doc) in enumerate(runs)]
        return json.loads(cls.fresh(f"""
import contextlib, io, json, sys
from dcelab.cli import main
after = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{{argv[0]}} failed")
    after.append(sorted({{p for p in {prefixes!r} for m in sys.modules
                         if m == p or m.startswith(p + ".")}}))
print(json.dumps(after))"""))

    @classmethod
    def light_runs(cls):
        """A tiny run of each subcommand that needs no heavy scipy subpackage."""
        cavity = {"length": 3.141592653589793, "n_modes": 4}
        harmonic = {"type": "harmonic", "epsilon": 0.02, "omega": 2.0, "t_end": 4.0}
        return [
            ("otto", OTTO_DOC),
            ("bogoliubov", {"cavity": cavity, "trajectory": harmonic,
                            "bogoliubov": {"n_times": 3}}),
            ("bogoliubov", {"cavity": cavity,
                            "trajectory": {"type": "quintic", "epsilon": 0.02, "tau": 4.0},
                            "bogoliubov": {"n_times": 3}}),
            ("msa", {"cavity": cavity, "msa": {"omega": 2.0, "tau_max": 0.1,
                                               "n_samples": 3}}),
            ("moore", {"cavity": cavity, "trajectory": harmonic,
                       "moore": {"t_max": 4.0, "n_z": 3, "n_x": 3, "n_t": 3}}),
            ("crosscheck", TestCrosscheckRun.DOC),
            ("gate", cls.GATE_DOC),
        ]

    def test_cli_import_leaves_out_scipy_integrate(self):
        assert self.loaded("dcelab.cli", "scipy.integrate") == "[]"

    def test_cli_import_leaves_out_scipy_linalg_optimize_and_special(self):
        # the one dense exponential is magnus.expm_taylor; the one root finder is squid.bisect
        assert self.loaded("dcelab.cli", "scipy.linalg", "scipy.optimize",
                           "scipy.special") == "[]"

    def test_cli_import_loads_no_solver_and_no_scipy_sparse(self):
        # each runner imports its own solver module when it first calls it
        assert self.loaded("dcelab.cli", "dcelab", "scipy.sparse") == \
            "['dcelab', 'dcelab.cli', 'dcelab.config', 'dcelab.output']"

    def test_bogoliubov_import_leaves_out_scipy_linalg(self):
        assert self.loaded("dcelab.bogoliubov", "scipy.linalg") == "[]"

    def test_runs_other_than_open_gate_and_spectrum_load_no_heavy_scipy(self, tmp_path):
        # one interpreter for all: the set after each run is empty only if that run
        # and every run before it loaded none
        runs = self.light_runs()
        assert self.loaded_after(tmp_path, runs) == [[]] * len(runs)

    def test_open_gate_run_loads_scipy_sparse(self, tmp_path):
        assert self.loaded_after(tmp_path, [("gate", self.OPEN_GATE_DOC)]) == \
            [["scipy.sparse"]]

    def test_spectrum_run_loads_no_heavy_scipy(self, tmp_path):
        # the notch root is found by squid.bisect, not scipy.optimize.brentq
        assert self.loaded_after(tmp_path, [("spectrum", SPECTRUM_DOC)]) == [[]]

    def test_cli_import_loads_no_schema_library(self):
        # scenario files are checked by config's own walker over SCHEMA
        assert self.loaded("dcelab.cli", *self.SCHEMA_LIBS) == "[]"

    def test_no_run_loads_a_schema_library(self, tmp_path):
        runs = [*self.light_runs(), ("gate", self.OPEN_GATE_DOC), ("spectrum", SPECTRUM_DOC)]
        assert self.loaded_after(tmp_path, runs, self.SCHEMA_LIBS)[-1] == []

    def test_shipped_config_runs_where_jsonschema_cannot_import(self, tmp_path):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "otto_efficiency.yaml"
        argv = ["otto", "--config", str(cfg), "--out", str(tmp_path)]
        # a None entry in sys.modules makes every import of jsonschema fail;
        # fresh() raises unless the run exits 0
        self.fresh(f"""
import sys
sys.modules["jsonschema"] = None
from dcelab.cli import main
sys.exit(main({argv!r}))""")
        assert (tmp_path / "otto_cycle.csv").exists()
