import dataclasses
import json
import os
import re
import textwrap
import warnings

import numpy as np
import pytest

from exafsga import analysis, cli, ga
from exafsga.cli import (
    ConfigError,
    build_paths,
    load_data,
    load_inputs,
    main,
    parse_config,
)
from exafsga.fitness import FitnessConfig
from exafsga.ga import GENE_BOUNDS, GAConfig
from exafsga.model import evaluate_model
from exafsga.paths import PathSet, serialize_feff_path, synth_path
from exafsga.spectra import FTConfig, KGrid, KSpectrum, SpectrumError, chi_file_lines
from test_ga import unhonoured_bounds


SYNTH_CONFIG = """
[run]
mode = synth
output_dir = {out}

[grid]
k_min = 0.5
k_max = 12.5
delta_k = 0.05

[synth_paths]
shell1 = 2.3 6 1.0
shell2 = 3.0 12 0.7

[synth]
s02 = 0.70 0.55
sigma2 = 0.003 0.005
delta_r = 0.02 -0.01
delta_e0 = -0.5
snr = 20
seed = 4
"""

FIT_CONFIG = """
[run]
mode = fit
output_dir = {out}
data_file = {data}

[grid]
k_min = 0.5
k_max = 12.5
delta_k = 0.05

[ft]
k_min_fit = 2.5
k_max_fit = 12.0

[synth_paths]
shell1 = 2.3 6 1.0
shell2 = 3.0 12 0.7

[ga]
population_size = 30
max_generations = 5
patience = 5
rng_seed = 11

[genes]
delta_e0 = -2 2 0.01
s02 = 0 1 0.01
sigma2 = 0 0.01 0.0005
delta_r = -0.05 0.05 0.005
"""


def write_config(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def run_synth(tmp_path):
    out = tmp_path / "synth_out"
    cfg = write_config(tmp_path, SYNTH_CONFIG.format(out=out), "synth.ini")
    assert main(["synth", "--config", cfg]) == 0
    return os.path.join(out, "synthetic_chi.dat")


class TestParseConfig:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/run.ini")

    def test_missing_run_section(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nk_min = 1\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_bad_mode(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nmode = wiggle\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_defaults(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nmode = fit\n")
        rc = parse_config(cfg)
        assert rc.grid == KGrid(0.5, 12.5, 0.05)
        assert rc.ga == GAConfig()
        assert rc.fitness == FitnessConfig(ft=FTConfig(k_range=(2.5, 12.0)))
        assert rc.gene_bounds == GENE_BOUNDS

    def test_ga_keys_are_gaconfig_fields(self):
        """[ga] reads GAConfig's fields in order, the bounds pair as its two
        keys, each with GAConfig's default."""
        rows = [row for row in cli.SETTINGS if row[0] == "ga"]
        keys = [f.name for f in dataclasses.fields(GAConfig)]
        i = keys.index("mutation_rate_bounds")
        keys[i:i + 1] = ["mutation_rate_min", "mutation_rate_max"]
        assert [key for _, key, *_ in rows] == keys
        assert cli.KEYS["ga"] == set(keys)
        defaults = {}
        for _, _, field, _, default in rows:
            defaults[field] = (defaults[field], default) if field in defaults else default
        assert defaults == dataclasses.asdict(GAConfig())

    def test_gene_triple_parse_error(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nmode = fit\n\n[genes]\ns02 = 0 1\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_bad_value_names_section_and_key(self, tmp_path):
        for section, key, value in [
            ("ga", "patience", "soon"),
            ("ga", "population_size", "50%"),
            ("cutoff", "repeats", "few"),
            ("error", "population", "100"),
            ("error", "population", "20.9 30"),
            ("synth", "snr", "loud"),
            ("benchmark", "n_paths", "5 ten"),
            ("genes", "s02", "-1.0 -0.5 0.005"),
            ("genes", "sigma2", "-0.01 0.01 0.0001"),
        ]:
            text = f"[run]\nmode = fit\n\n[{section}]\n{key} = {value}\n"
            message = rf"\[{section}\] key '{key}': cannot parse '{re.escape(value)}'"
            with pytest.raises(ConfigError, match=message):
                parse_config(write_config(tmp_path, text))

    def test_unknown_section_or_key_rejected(self, tmp_path):
        for text, message in [
            ("\n[ga]\npopulaton_size = 99999\n", r"\[ga\] unknown key 'populaton_size'"),
            ("seed = 3\n", r"\[run\] unknown key 'seed'"),
            ("\n[ft]\nwindow = hanning\n", r"\[ft\] unknown key 'window'"),
            ("\n[fitting]\nspace = R\n", r"unknown section \[fitting\]"),
            ("\n[DEFAULT]\nk_min = 1\n", r"unknown section \[DEFAULT\]"),
        ]:
            cfg = write_config(tmp_path, "[run]\nmode = fit\n" + text)
            with pytest.raises(ConfigError, match=message):
                parse_config(cfg)
            assert main(["fit", "--config", cfg]) == 2
        # [synth_paths] keys are path labels, not settings.
        cfg = write_config(tmp_path, "[run]\nmode = synth\n\n[synth_paths]\nany_label = 2.3 6 1\n")
        assert parse_config(cfg).synth_paths == [("any_label", 2.3, 6.0, 1.0)]

    @pytest.mark.parametrize("k_weight", ["7", "-2", "400"])
    def test_fitness_k_weight_out_of_range_rejected(self, tmp_path, capsys, k_weight):
        cfg = write_config(tmp_path, f"[run]\nmode = fit\n\n[fitness]\nk_weight = {k_weight}\n")
        message = f"[fitness] k_weight must be in 0..3, got {k_weight}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(cfg)
        assert main(["fit", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("ft, fit_range", [("k_max_fit = 20", "2.5, 20.0"),
                                                ("k_min_fit = 0.1", "0.1, 12.0")])
    def test_fit_range_beyond_grid_rejected(self, tmp_path, capsys, ft, fit_range):
        cfg = write_config(tmp_path, f"[run]\nmode = fit\n\n[ft]\n{ft}\n")
        message = f"[ft] k_range [{fit_range}] extends beyond the grid [0.5, 12.5]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(cfg)
        assert main(["fit", "--config", cfg]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_synth_lists_length_mismatch(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nmode = synth\n\n[synth_paths]\na = 2.3 6 1\n\n"
            "[synth]\ns02 = 0.7 0.5\nsigma2 = 0.003\ndelta_r = 0.0\n",
        )
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_synth_lists_must_match_synth_paths_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = SYNTH_CONFIG.format(out=out).replace(
            "shell2 = 3.0 12 0.7", "shell2 = 3.0 12 0.7\nshell3 = 3.5 6 0.5")
        assert main(["synth", "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            "config error: [synth] parameter lists must match [synth_paths] count\n")
        assert not out.exists()

    def test_library_error_is_the_cause(self, tmp_path):
        text = SYNTH_CONFIG.format(out=tmp_path / "out").replace("k_max = 12.5", "k_max = 0.2")
        with pytest.raises(ConfigError, match=r"^\[grid\] k_max must exceed k_min$") as info:
            parse_config(write_config(tmp_path, text))
        assert isinstance(info.value.__cause__, SpectrumError)
        assert str(info.value.__cause__) == "k_max must exceed k_min"


class TestBuildGeneSpecs:
    def test_layout(self, tmp_path):
        data = run_synth(tmp_path)
        text = FIT_CONFIG.format(out=tmp_path / "out", data=data).replace(
            "shell2 = 3.0 12 0.7", "shell2 = 3.0 12 0.7\nshell3 = 3.5 6 0.5"
        )
        paths, _, specs = load_inputs(parse_config(write_config(tmp_path, text)))
        assert len(paths) == 3 and len(specs) == 10
        assert [specs[0].name, specs[1].name, specs[9].name] == ["delta_e0", "s02_0", "delta_r_2"]
        assert (specs[0].lower, specs[0].upper, specs[0].step) == (-2.0, 2.0, 0.01)
        assert (specs[9].lower, specs[9].upper, specs[9].step) == (-0.05, 0.05, 0.005)


class TestLoadData:
    def test_uniform_resample(self, tmp_path):
        p = tmp_path / "chi.dat"
        k = np.arange(0.0, 14.01, 0.1)
        p.write_text("\n".join(f"{a} {2*a}" for a in k))
        grid = KGrid(0.5, 12.5, 0.05)
        spec = load_data(str(p), grid)
        np.testing.assert_allclose(spec.chi, 2 * grid.ks, rtol=1e-12)

    def test_non_uniform_interp(self, tmp_path):
        p = tmp_path / "chi.dat"
        rng = np.random.default_rng(0)
        k = np.sort(rng.uniform(0.0, 14.0, 300))
        p.write_text("\n".join(f"{a},{3*a}" for a in k))
        grid = KGrid(0.5, 12.5, 0.05)
        spec = load_data(str(p), grid)
        np.testing.assert_allclose(spec.chi, 3 * grid.ks, rtol=1e-6)

    def test_descending_k_rejected(self, tmp_path):
        p = tmp_path / "chi.dat"
        p.write_text("2.0 0.1\n1.0 0.2\n")
        with pytest.raises(SpectrumError):
            load_data(str(p), KGrid(1.0, 2.0, 0.5))

    @pytest.mark.parametrize("grid", [KGrid(0.5, 12.5, 0.05), KGrid(1.0, 14.5, 0.05)])
    def test_grid_beyond_data_range_rejected(self, tmp_path, grid):
        p = tmp_path / "chi.dat"
        p.write_text("\n".join(f"{a} {2*a}" for a in np.arange(0.6, 14.01, 0.1)))
        with pytest.raises(SpectrumError, match="run grid extends beyond data range"):
            load_data(str(p), grid)

    @pytest.mark.parametrize("row", ["0.004 nan", "0.004 inf", "nan 0.1", "-0.1 0.1"])
    def test_bad_row_below_grid_names_line(self, tmp_path, row):
        p = tmp_path / "chi.dat"
        rng = np.random.default_rng(0)
        k = np.sort(rng.uniform(0.01, 14.0, 300))
        p.write_text("# k chi\n" + row + "\n" + "\n".join(f"{a},{3*a}" for a in k))
        with pytest.raises(SpectrumError, match=rf"{re.escape(str(p))}:2: "):
            load_data(str(p), KGrid(0.5, 12.5, 0.05))


class TestMainSynth:
    def test_writes_spectrum_and_manifest(self, tmp_path):
        data = run_synth(tmp_path)
        assert os.path.exists(data)
        assert os.path.exists(os.path.join(os.path.dirname(data), "manifest.json"))
        k, chi = np.loadtxt(data).T
        assert len(k) == KGrid(0.5, 12.5, 0.05).n_points

    def test_seed_override_changes_noise(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, SYNTH_CONFIG.format(out=out_a), "a.ini")
        cfg_b = write_config(tmp_path, SYNTH_CONFIG.format(out=out_b), "b.ini")
        assert main(["synth", "--config", cfg_a]) == 0
        assert main(["synth", "--config", cfg_b, "--seed", "99"]) == 0
        a = np.loadtxt(out_a / "synthetic_chi.dat")
        b = np.loadtxt(out_b / "synthetic_chi.dat")
        assert not np.array_equal(a[:, 1], b[:, 1])

    @pytest.mark.parametrize("snr", ["inf", "none"])
    def test_no_noise_writes_the_model(self, tmp_path, snr):
        out = tmp_path / "out"
        text = SYNTH_CONFIG.format(out=out).replace("snr = 20", f"snr = {snr}")
        cfg = write_config(tmp_path, text)
        assert main(["synth", "--config", cfg]) == 0
        rc = parse_config(cfg)
        model = evaluate_model(build_paths(rc), rc.truth, rc.grid)
        lines = chi_file_lines(rc.grid.ks, model.chi, "synthetic spectrum (snr=None, seed=4)")
        assert (out / "synthetic_chi.dat").read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("args,seed", [([], 4), (["--seed", "7"], 7)])
    def test_manifest_records_the_noise_seed(self, tmp_path, args, seed):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SYNTH_CONFIG.format(out=out))
        assert main(["synth", "--config", cfg, *args]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed
        header = (out / "synthetic_chi.dat").read_text().splitlines()[0]
        assert header.endswith(f"seed={seed})")

    def test_out_overrides_output_dir(self, tmp_path, capsys):
        configured, out = tmp_path / "configured", tmp_path / "override"
        cfg = write_config(tmp_path, SYNTH_CONFIG.format(out=configured))
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.split() == [
            str(out / "synthetic_chi.dat"), str(out / "manifest.json")]
        assert not configured.exists()


class TestMainFit:
    def test_round_trip_artifacts(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "fit_out"
        cfg = write_config(
            tmp_path, FIT_CONFIG.format(out=out, data=data), "fit.ini"
        )
        assert main(["fit", "--config", cfg]) == 0
        for name in ("model_k.csv", "model_r.csv", "traces.csv", "summary.txt",
                     "manifest.json"):
            assert os.path.exists(out / name), name
        summary = (out / "summary.txt").read_text()
        assert "best_fitness" in summary
        table = np.loadtxt(out / "model_k.csv", delimiter=",", skiprows=1)
        assert table.shape[1] == 3
        assert np.all(np.isfinite(table))

    def test_best_parameters_within_bounds(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "fit_out"
        cfg = write_config(
            tmp_path, FIT_CONFIG.format(out=out, data=data), "fit.ini"
        )
        assert main(["fit", "--config", cfg]) == 0
        summary = (out / "summary.txt").read_text()
        params = {}
        for line in summary.splitlines():
            if " = " in line and "+/-" not in line and "[" in line or line.startswith("delta_e0"):
                name, _, rest = line.partition(" = ")
                try:
                    params[name.strip()] = float(rest.split()[0])
                except ValueError:
                    pass
        assert -2.0 <= params["delta_e0"] <= 2.0
        for key, val in params.items():
            if key.startswith("s02"):
                assert 0.0 <= val <= 1.0
            elif key.startswith("sigma2"):
                assert 0.0 <= val <= 0.01
            elif key.startswith("delta_r"):
                assert -0.05 <= val <= 0.05

    def test_byte_identical_rerun(self, tmp_path):
        data = run_synth(tmp_path)
        out_a, out_b = tmp_path / "fa", tmp_path / "fb"
        cfg_a = write_config(tmp_path, FIT_CONFIG.format(out=out_a, data=data), "fa.ini")
        cfg_b = write_config(tmp_path, FIT_CONFIG.format(out=out_b, data=data), "fb.ini")
        assert main(["fit", "--config", cfg_a]) == 0
        assert main(["fit", "--config", cfg_b]) == 0
        for name in ("model_k.csv", "model_r.csv", "traces.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("mode", ["fit", "cutoff-sweep", "error-analysis"])
    def test_missing_data_file_is_config_error(self, tmp_path, capsys, mode):
        out = tmp_path / "fit_out"
        text = FIT_CONFIG.format(out=out, data="ignored").replace("mode = fit", f"mode = {mode}")
        text = "\n".join(
            line for line in text.splitlines() if not line.startswith("data_file")
        )
        cfg = write_config(tmp_path, text, "fit.ini")
        assert main([mode, "--config", cfg]) == 2
        assert f"config error: {mode} mode requires data_file" in capsys.readouterr().err


class TestMainErrors:
    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nmode = wiggle\n")
        assert main(["fit", "--config", cfg]) == 2

    def test_percent_in_value_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\nmode = fit\n\n[ga]\npopulation_size = 50%\n")
        assert main(["fit", "--config", cfg]) == 2
        assert "[ga] key 'population_size'" in capsys.readouterr().err

    def test_undecodable_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"[run]\nmode = fit\n# \xff\n")
        assert main(["fit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: 'utf-8' codec")

    def test_missing_config_exit_code(self):
        assert main(["fit", "--config", "/nonexistent.ini"]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        # points at a data file that does not exist -> runtime failure
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, FIT_CONFIG.format(out=out, data=tmp_path / "missing.dat")
        )
        assert main(["fit", "--config", cfg]) == 1

    @pytest.mark.parametrize("mode, code", [
        ("fit", 1), ("cutoff-sweep", 1), ("error-analysis", 1), ("synth", 2),
    ])
    def test_failed_run_leaves_no_output_dir(self, tmp_path, mode, code):
        # A data file that does not exist, or (synth) no [synth] truth.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, FIT_CONFIG.format(out=out, data=tmp_path / "missing.dat"))
        assert main([mode, "--config", cfg]) == code
        assert not out.exists()

    @pytest.mark.parametrize("k_max, reason", [
        ("1e12", "grid has 19999999999991 points, more than 4096"),
        ("0.2", "k_max must exceed k_min"),
    ])
    def test_bad_grid_is_config_error_naming_grid(self, tmp_path, capsys, k_max, reason):
        out = tmp_path / "out"
        text = SYNTH_CONFIG.format(out=out).replace("k_max = 12.5", f"k_max = {k_max}")
        assert main(["synth", "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"config error: [grid] {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("space", ["K", "K+R"])
    def test_r_range_without_an_r_point_fails_before_the_first_fit(self, tmp_path, capsys,
                                                                   monkeypatch, space):
        data = run_synth(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(ga, "evolve", no_fit)
        out = tmp_path / "out"
        text = FIT_CONFIG.format(out=out, data=data).replace(
            "k_max_fit = 12.0", "k_max_fit = 12.0\nr_min = 0.01\nr_max = 0.02")
        text += f"\n[fitness]\nspace = {space}\n"
        assert main(["fit", "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            "config error: [ft] r_range [0.01, 0.02] holds no r-point "
            "m*pi/(n_fft*delta_k) = m*0.0306796, 0 <= m < 1024\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["fit", "synth"])
    def test_no_paths_is_config_error(self, tmp_path, capsys, mode):
        out = tmp_path / "out"
        text = f"[run]\nmode = {mode}\noutput_dir = {out}\ndata_file = unread.dat\n"
        assert main([mode, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            "config error: either path_manifest or a [synth_paths] section is required\n")
        assert not out.exists()

    def test_output_dir_that_cannot_be_made_fails_after_the_run(self, tmp_path):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        cfg = write_config(tmp_path, SYNTH_CONFIG.format(out=out))
        assert main(["synth", "--config", cfg]) == 1


def no_fit(*args, **kwargs):
    raise AssertionError("a fit ran")


class TestMainMalformedValues:
    """A malformed value exits 2, naming its section and key, before any fit."""

    @pytest.mark.parametrize("mode, section, key, value, reason", [
        ("synth", "synth", "snr", "0", "must be positive, 'inf' or 'none'"),
        ("benchmark", "benchmark", "n_paths", "0", "must be at least 1"),
        ("benchmark", "benchmark", "n_paths", "", "needs one or more values"),
        ("fit", "genes", "s02", "1.0 0.5 0.005", "s02: lower must be < upper"),
        ("fit", "genes", "s02", "0 1e300 1e-300", "s02: more than 2^32 quantization levels"),
        ("fit", "genes", "sigma2", "-0.01 0.01 0.0001", "must be at least 0.0"),
        ("fit", "genes", "delta_e0", "1e8 100000000.000001 1e-8", "delta_e0: step too fine for "
         "the float spacing of the bounds; two levels could decode to one value"),
        ("fit", "grid", "k_min", "nan", "not a finite number"),
        ("fit", "grid", "k_max", "inf", "not a finite number"),
        ("fit", "ft", "window_sill", "nan", "not a finite number"),
        ("fit", "ft", "r_max", "nan", "not a finite number"),
        ("fit", "fitness", "epsilon", "inf", "not a finite number"),
    ])
    def test_setting(self, tmp_path, capsys, monkeypatch, mode, section, key, value, reason):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        monkeypatch.setattr(analysis, "run_ga", no_fit)
        cfg = write_config(tmp_path, f"[run]\nmode = {mode}\n\n[{section}]\n{key} = {value}\n")
        assert main([mode, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: [{section}] key '{key}': cannot parse {value!r}: {reason}\n"

    @pytest.mark.parametrize("section, setting, reason", [
        ("ga", "population_size = 1", "population_size must be at least 2"),
        ("ga", "crossover_method = xor", "unknown crossover_method 'xor'"),
        ("ga", "elite_fraction = 0.9", "elite_fraction + random_fraction must be < 1"),
        ("ga", "rechenberg_factor = 1", "rechenberg_factor must lie in (0,1)"),
        ("ga", "patience = 0", "patience and max_generations must be >= 1"),
        ("ga", "max_generations = 0", "patience and max_generations must be >= 1"),
        ("ft", "n_fft = 1000", "n_fft must be a power of two, got 1000"),
        ("ft", "window_sill = 6", "window_sill wider than half the fit range"),
        ("ft", "window_sill = -1", "window_sill must be >= 0"),
        ("ft", "k_weight = 5", "k_weight must be in 0..3, got 5"),
        ("fitness", "space = Q", "space must be K, R, or K+R, got 'Q'"),
        ("fitness", "n_indep = 0", "n_indep must be positive"),
        ("fitness", "k_weight = 5", "k_weight must be in 0..3, got 5"),
        ("synth", "s02 = -0.1\nsigma2 = 0.003\ndelta_r = 0", "s02 must be non-negative, got -0.1"),
        ("synth", "s02 = 0.7\nsigma2 = -0.003\ndelta_r = 0",
         "sigma2 must be non-negative, got -0.003"),
        ("synth", "s02 = 0.7 0.5\nsigma2 = 0.003\ndelta_r = 0",
         "s02, sigma2, delta_r lists must match in length"),
        ("cutoff", "repeats = 0", "n_repeat must be at least 1, got 0"),
        ("cutoff", "percents = -1", "percents must be non-negative and at most 100, got [-1.0]"),
        ("cutoff", "percents = 5 150",
         "percents must be non-negative and at most 100, got [5.0, 150.0]"),
        ("error", "n_runs = 1", "n_runs must be at least 2"),
        ("error", "population = 50 20", "population range (50, 20) is reversed"),
        ("error", "population = 0 1", "population range (0, 1) starts below 2"),
        ("error", "generations = 0 3", "generations range (0, 3) starts below 1"),
    ])
    def test_rejected_value_names_section(self, tmp_path, capsys, monkeypatch, section, setting,
                                          reason):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        out = tmp_path / "out"
        text = f"[run]\nmode = fit\noutput_dir = {out}\n\n[{section}]\n{setting}\n"
        assert main(["fit", "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"config error: [{section}] {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, kwargs", [
        ("cutoff", "repeats", "0", {"percents": (5.0,), "n_repeat": 0}),
        ("cutoff", "percents", "-1", {"percents": (-1.0,)}),
        ("cutoff", "percents", "5 150", {"percents": (5.0, 150.0)}),
        ("error", "n_runs", "1", {"n_runs": 1}),
        ("error", "population", "30 20", {"ranges": {"population": (30, 20)}}),
        ("error", "population", "1 20", {"ranges": {"population": (1, 20)}}),
        ("error", "generations", "0 3", {"ranges": {"generations": (0, 3)}}),
        ("error", "mutation_rate", "30 10", {"ranges": {"mutation_rate": (30.0, 10.0)}}),
    ])
    def test_ensemble_design_reason_is_the_library_one(self, tmp_path, capsys, monkeypatch,
                                                       section, key, value, kwargs):
        # main prints the reason cutoff_sweep or error_analysis gives for the
        # same value when called directly.
        monkeypatch.setattr(analysis, "run_ga", no_fit)
        mode, call = {"cutoff": ("cutoff-sweep", analysis.cutoff_sweep),
                      "error": ("error-analysis", analysis.error_analysis)}[section]
        grid = KGrid(0.5, 12.5, 0.05)
        paths = PathSet(paths=(synth_path(2.3, 6.0, grid, label="a"),))
        data = KSpectrum(grid=grid, chi=np.zeros(grid.n_points))
        with pytest.raises(analysis.AnalysisError) as exc:
            call(data, paths, GAConfig(), FitnessConfig(ft=FTConfig(k_range=(2.5, 12.0))),
                 **kwargs)
        out = tmp_path / "out"
        text = f"[run]\nmode = {mode}\noutput_dir = {out}\n\n[{section}]\n{key} = {value}\n"
        assert main([mode, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"config error: [{section}] {exc.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode, section, key, reason", [
        ("fit", "ga", "rng_seed", "rng_seed must be >= 0, got -3"),
        ("synth", "synth", "seed", "key 'seed': cannot parse '-3': must be at least 0"),
        ("benchmark", "benchmark", "generations",
         "key 'generations': cannot parse '-3': must be at least 0"),
    ])
    def test_negative_seed_or_generations(self, tmp_path, capsys, monkeypatch, mode, section,
                                          key, reason):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        out = tmp_path / "out"
        text = f"[run]\nmode = {mode}\noutput_dir = {out}\n\n[{section}]\n{key} = -3\n"
        assert main([mode, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"config error: [{section}] {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["fit", "cutoff-sweep", "error-analysis"])
    @pytest.mark.parametrize("ft, reason", [
        ("window_sill = 0\nk_min_fit = 2.501\nk_max_fit = 2.509",
         "k_range [2.501, 2.509] contains no grid samples"),
        ("n_fft = 128", "n_fft=128: the transform samples k = n*delta_k, 0 <= n < n_fft, "
                        "up to 6.35, short of k_range's end 12.0"),
    ])
    def test_fit_range_that_cannot_fit(self, tmp_path, capsys, monkeypatch, mode, ft, reason):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        monkeypatch.setattr(analysis, "run_ga", no_fit)
        out = tmp_path / "out"
        text = FIT_CONFIG.format(out=out, data="unread.dat").replace("mode = fit", f"mode = {mode}")
        text = text.replace("k_min_fit = 2.5\nk_max_fit = 12.0", ft)
        assert main([mode, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"config error: [ft] {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["fit", "cutoff-sweep", "error-analysis"])
    def test_fit_range_past_the_last_sample(self, tmp_path, capsys, monkeypatch, mode):
        # On a 0.005 grid the default 2048 samples end at 10.235, short of 12.0.
        data = run_synth(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_ga", no_fit)
        monkeypatch.setattr(analysis, "run_ga", no_fit)
        out = tmp_path / "out"
        text = FIT_CONFIG.format(out=out, data=data).replace("mode = fit", f"mode = {mode}")
        text = text.replace("delta_k = 0.05", "delta_k = 0.005") + "\n[fitness]\nspace = R\n"
        assert main([mode, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            "config error: [ft] n_fft=2048: the transform samples k = n*delta_k, 0 <= n < n_fft, "
            "up to 10.235, short of k_range's end 12.0\n")
        assert not out.exists()

    def test_negative_seed_option(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SYNTH_CONFIG.format(out=out))
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", cfg, "--seed", "-3"])
        assert exc.value.code == 2
        assert "argument --seed: cannot parse '-3': must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["fit", "synth"])
    @pytest.mark.parametrize("values, reason", [
        pytest.param("-2.3 6 1", "r_eff must be positive",
                     id="-2.3 6 1-r_eff, degeneracy, and lambda_const must be positive"),
        pytest.param("2.3 6 1 0", "lambda must be positive everywhere",
                     id="2.3 6 1 0-r_eff, degeneracy, and lambda_const must be positive"),
        ("2.3 6 -1", "amp_scale must be non-negative"),
    ])
    def test_synth_path(self, tmp_path, capsys, monkeypatch, mode, values, reason):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        text = (f"[run]\nmode = {mode}\noutput_dir = {tmp_path / 'out'}\ndata_file = unread.dat\n"
                f"\n[synth_paths]\na = {values}\n")
        assert main([mode, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"config error: [synth_paths] 'a': {reason}\n"


class TestMainGeneBounds:
    """[genes] bounds the paths cannot honour exit 2 before any fit."""

    @pytest.mark.parametrize("mode", ["fit", "cutoff-sweep", "error-analysis"])
    @pytest.mark.parametrize("case, reason", [
        ("short", "delta_e0 = -10.0 (level 0), every other gene at its lower bound: path "
                  "short.dat: shifted k in [1.695, 12.605] outside theory range [0.000, 12.550]"),
        ("delta_r", "delta_e0 = -10.0 (level 0), every other gene at its lower bound: path "
                    "shell1: r_eff + delta_r = -0.7000000000000002 must be positive"),
        ("interior", "delta_e0 = 0.9500000000000001 (level 95), every other gene at its lower "
                     "bound: path late: shifted k in [0.026, 12.490] outside theory range "
                     "[0.150, 14.450]"),
    ])
    def test_exit_2_naming_the_level(self, tmp_path, capsys, monkeypatch, mode, case, reason):
        data = run_synth(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_ga", no_fit)
        monkeypatch.setattr(analysis, "run_ga", no_fit)
        out = tmp_path / "out"
        if case == "delta_r":
            paths = "[synth_paths]\nshell1 = 2.3 6 1.0\n[genes]\ndelta_r = -3 0.2 0.01\n"
        else:
            (path,), _, (e0, *_) = unhonoured_bounds(case)
            (tmp_path / path.label).write_text(serialize_feff_path(path))
            (tmp_path / "paths.manifest").write_text(f"{path.label}\n")
            paths = (f"path_manifest = {tmp_path / 'paths.manifest'}\n"
                     f"[genes]\ndelta_e0 = {e0.lower} {e0.upper} {e0.step}\n")
        text = (f"[run]\nmode = {mode}\noutput_dir = {out}\ndata_file = {data}\n{paths}"
                "[ga]\npopulation_size = 20\nmax_generations = 3\n")
        assert main([mode, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"config error: [genes] {reason}\n"
        assert not out.exists()

    def test_benchmark_exits_2_before_any_timing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        out = tmp_path / "out"
        text = (f"[run]\nmode = benchmark\noutput_dir = {out}\n\n[genes]\n"
                "delta_r = -3 0.2 0.01\n\n[benchmark]\nn_paths = 2 4\n")
        assert main(["benchmark", "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            "config error: [genes] delta_e0 = -10.0 (level 0), every other gene at its lower "
            "bound: path bench_0: r_eff + delta_r = -1.0 must be positive\n")
        assert not out.exists()


class TestMainInputErrors:
    """A malformed chi(k) or path file exits 2 naming the file and line."""

    def test_non_finite_data_value(self, tmp_path, capsys):
        data = tmp_path / "bad.dat"
        data.write_text("# k chi\n0.4 nan\n" + "".join(f"{k} 0.1\n" for k in range(1, 15)))
        cfg = write_config(tmp_path, FIT_CONFIG.format(out=tmp_path / "out", data=data))
        assert main(["fit", "--config", cfg]) == 2
        assert f"input error: {data}:2: non-finite value" in capsys.readouterr().err

    def test_malformed_path_file(self, tmp_path, capsys):
        grid = KGrid(0.5, 12.5, 0.05)
        lines = serialize_feff_path(synth_path(2.3, 6, grid, label="shell1")).splitlines()
        bad = len(lines) - 3  # a data row, numbered from 1
        lines[bad - 1] = lines[bad - 1].replace(lines[bad - 1].split()[2], "x")
        (tmp_path / "shell1.dat").write_text("\n".join(lines) + "\n")
        (tmp_path / "paths.manifest").write_text("shell1.dat\n")
        cfg = write_config(tmp_path, f"""
            [run]
            mode = fit
            output_dir = {tmp_path / "out"}
            data_file = {run_synth(tmp_path)}
            path_manifest = {tmp_path / "paths.manifest"}
            """)
        assert main(["fit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"input error: {tmp_path / 'shell1.dat'}:{bad}: non-numeric value" in err


    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("column", [0, 1, 2, 3, 5, 6])
    def test_non_finite_path_value(self, tmp_path, capsys, monkeypatch, column, value):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        grid = KGrid(0.5, 12.5, 0.05)
        lines = serialize_feff_path(synth_path(2.3, 6, grid, label="shell1")).splitlines()
        bad = len(lines) - 3  # a data row, numbered from 1
        row = lines[bad - 1].split()
        row[column] = value
        lines[bad - 1] = " ".join(row)
        (tmp_path / "shell1.dat").write_text("\n".join(lines) + "\n")
        (tmp_path / "paths.manifest").write_text("shell1.dat\n")
        cfg = write_config(tmp_path, f"""
            [run]
            mode = fit
            output_dir = {tmp_path / "out"}
            data_file = unread.dat
            path_manifest = {tmp_path / "paths.manifest"}
            """)
        assert main(["fit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {tmp_path / 'shell1.dat'}:{bad}: ")
        assert err.endswith(" has non-finite values\n")

    @pytest.mark.parametrize("kind", ["alternating", "step"])
    def test_overflowing_path_slope(self, tmp_path, capsys, kind):
        # f_eff alternating +-1e308 (the difference overflows), or 1e308
        # below k = 1 (the slope overflows at k = 1): exit 2 naming the
        # file's line, the path and the array, with no numpy warning.
        grid = KGrid(0.5, 12.5, 0.05)
        lines = serialize_feff_path(synth_path(2.3, 6, grid, label="shell1")).splitlines()
        first_row = 5  # the first data row, numbered from 1
        for n in range(first_row, len(lines) + 1):
            row = lines[n - 1].split()
            if kind == "alternating":
                row[2] = "1e308" if n % 2 else "-1e308"
            elif float(row[0]) < 1.0:
                row[2] = "1e308"
            lines[n - 1] = " ".join(row)
        bad = first_row + (1 if kind == "alternating" else 20)
        (tmp_path / "shell1.dat").write_text("\n".join(lines) + "\n")
        (tmp_path / "paths.manifest").write_text("shell1.dat\n")
        cfg = write_config(tmp_path, f"""
            [run]
            mode = fit
            output_dir = {tmp_path / "out"}
            data_file = {run_synth(tmp_path)}
            path_manifest = {tmp_path / "paths.manifest"}

            [genes]
            delta_e0 = -0.1 0 0.1
            """)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'shell1.dat'}:{bad}: path shell1.dat:"
            " f_eff slope from the previous sample is not finite\n"
        )
        assert not (tmp_path / "out").exists()

    def test_negative_path_degeneracy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        grid = KGrid(0.5, 12.5, 0.05)
        lines = serialize_feff_path(synth_path(2.3, 6, grid, label="shell1")).splitlines()
        summary = 3  # the line after the separator, numbered from 1
        lines[summary - 1] = lines[summary - 1].replace("6.000000000", "-6.000000000")
        (tmp_path / "shell1.dat").write_text("\n".join(lines) + "\n")
        (tmp_path / "paths.manifest").write_text("shell1.dat\n")
        cfg = write_config(tmp_path, f"""
            [run]
            mode = fit
            output_dir = {tmp_path / "out"}
            data_file = unread.dat
            path_manifest = {tmp_path / "paths.manifest"}
            """)
        assert main(["fit", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'shell1.dat'}:{summary}: degeneracy must be positive\n"
        )

    def test_manifest_line_with_a_third_token(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_ga", no_fit)
        grid = KGrid(0.5, 12.5, 0.05)
        (tmp_path / "shell1.dat").write_text(serialize_feff_path(synth_path(2.3, 6, grid)))
        manifest = tmp_path / "paths.manifest"
        manifest.write_text("shell1.dat 6 extra\n")
        cfg = write_config(tmp_path, f"""
            [run]
            mode = fit
            output_dir = {tmp_path / "out"}
            data_file = unread.dat
            path_manifest = {manifest}
            """)
        assert main(["fit", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            f"input error: {manifest}:1: unexpected token 'extra'")

    def test_overflowing_synth_truth_names_the_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
            [run]
            mode = synth
            output_dir = {tmp_path / "out"}

            [synth_paths]
            a = 2.3 1e300 1.0

            [synth]
            s02 = 1e300
            sigma2 = 0.003
            delta_r = 0
            snr = none
            """)
        assert main(["synth", "--config", cfg]) == 2
        assert capsys.readouterr().err == "input error: path a: model chi is not finite\n"
        assert not (tmp_path / "out").exists()


class TestMainCutoffSweep:
    def test_sweep_artifact(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "sweep_out"
        text = FIT_CONFIG.format(out=out, data=data).replace(
            "mode = fit", "mode = cutoff-sweep"
        )
        text += "\n[cutoff]\npercents = 0 5\nrepeats = 1\n"
        cfg = write_config(tmp_path, text, "sweep.ini")
        assert main(["cutoff-sweep", "--config", cfg]) == 0
        table = np.loadtxt(out / "cutoff_sweep.csv", delimiter=",", skiprows=1)
        assert table.shape == (2, 3)
        assert table[0, 2] == 2  # zero cutoff keeps both paths


class TestMainErrorAnalysis:
    def test_report_artifacts(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "err_out"
        text = FIT_CONFIG.format(out=out, data=data).replace(
            "mode = fit", "mode = error-analysis"
        )
        text += "\n[error]\nn_runs = 3\npopulation = 20 30\ngenerations = 3 4\n"
        cfg = write_config(tmp_path, text, "err.ini")
        assert main(["error-analysis", "--config", cfg]) == 0
        for name in ("error_report.csv", "covariance.csv", "run_manifest.csv"):
            assert os.path.exists(out / name), name
        with open(out / "run_manifest.csv") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 4  # header + 3 runs


class TestMainBenchmark:
    def test_scaling_table(self, tmp_path):
        out = tmp_path / "bench_out"
        text = (
            f"[run]\nmode = benchmark\noutput_dir = {out}\n\n"
            "[ga]\npopulation_size = 20\n\n"
            "[benchmark]\nn_paths = 2 4\ngenerations = 2\n"
        )
        cfg = write_config(tmp_path, text, "bench.ini")
        assert main(["benchmark", "--config", cfg]) == 0
        table = np.loadtxt(out / "benchmark.csv", delimiter=",", skiprows=1)
        assert table.shape == (2, 2)
        assert np.all(table[:, 1] > 0)
