import os
import textwrap

import numpy as np
import pytest

from exafsga.cli import (
    ConfigError,
    load_data,
    load_inputs,
    main,
    parse_config,
)
from exafsga.spectra import KGrid, SpectrumError


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
        assert rc.ga.population_size == 200
        assert rc.fitness.space == "K"
        assert rc.gene_bounds["s02"] == (0.0, 1.2, 0.005)

    def test_gene_triple_parse_error(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nmode = fit\n\n[genes]\ns02 = 0 1\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_bad_value_names_section_and_key(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nmode = fit\n\n[ga]\npatience = soon\n")
        with pytest.raises(ConfigError, match=r"\[ga\] key 'patience': cannot parse 'soon'"):
            parse_config(cfg)

    def test_synth_lists_length_mismatch(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nmode = synth\n\n[synth_paths]\na = 2.3 6 1\n\n"
            "[synth]\ns02 = 0.7 0.5\nsigma2 = 0.003\ndelta_r = 0.0\n",
        )
        with pytest.raises(ConfigError):
            parse_config(cfg)


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

    def test_missing_config_exit_code(self):
        assert main(["fit", "--config", "/nonexistent.ini"]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        # points at a data file that does not exist -> runtime failure
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, FIT_CONFIG.format(out=out, data=tmp_path / "missing.dat")
        )
        assert main(["fit", "--config", cfg]) == 1


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
