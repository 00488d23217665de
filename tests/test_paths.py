import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exafsga.paths import (
    PathParseError,
    PathSet,
    ScatteringPath,
    load_manifest,
    load_path_file,
    parse_feff_path,
    serialize_feff_path,
    synth_path,
)
from exafsga.spectra import KGrid

MINIMAL_FILE = """\
 Cu example path
 some header line
 ----------------------------------------------------------------------
   2  12.00000   2.552700    nleg, deg, reff
    k   real[2*phc]   mag[feff]  phase[feff] red factor   lambda     real[p]
   0.0000  2.9505e+00  0.0000e+00  0.0000e+00  1.0000e+00  5.0505e+00  5.2754e-01
   1.0000  2.7399e+00  2.2591e-01 -1.1689e+00  1.0000e+00  6.1446e+00  1.1335e+00
   2.0000  2.3921e+00  3.8642e-01 -1.5885e+00  1.0000e+00  9.2887e+00  2.0483e+00
"""


class TestParser:
    def test_minimal_file(self):
        path = parse_feff_path(MINIMAL_FILE, label="feff0001.dat")
        assert path.degeneracy == 12.0
        assert path.r_eff == pytest.approx(2.5527)
        assert len(path.k_theory) == 3
        assert path.f_eff[1] == pytest.approx(0.22591)
        assert path.phase_scatter[2] == pytest.approx(-1.5885)
        assert path.phase_central[0] == pytest.approx(2.9505)
        assert path.lam[1] == pytest.approx(6.1446)

    def test_file_without_column_header(self):
        # Data then starts at the first line of seven numeric columns: a line
        # of seven tokens whose first is not a number is passed over, and so
        # is a blank line between data rows.
        header = next(ln for ln in MINIMAL_FILE.splitlines(keepends=True) if "real[p]" in ln)
        bare = MINIMAL_FILE.replace(header, "")
        worded = MINIMAL_FILE.replace(header, " index k phc mag phase red lambda\n").replace(
            "   1.0000  2.7399e+00", "\n   1.0000  2.7399e+00")
        full = parse_feff_path(MINIMAL_FILE, label="feff0001.dat")
        for text in (bare, worded):
            path = parse_feff_path(text, label="feff0001.dat")
            assert (path.degeneracy, path.r_eff) == (full.degeneracy, full.r_eff)
            for name in ("k_theory", "f_eff", "phase_scatter", "phase_central", "lam", "real_p"):
                np.testing.assert_array_equal(getattr(path, name), getattr(full, name))

    def test_missing_separator(self):
        with pytest.raises(PathParseError, match="separator"):
            parse_feff_path("just some text\nwith no dashes\n")

    def test_non_numeric_row_cites_line(self):
        bad = MINIMAL_FILE.replace(
            "   2.0000  2.3921e+00", "   abc  2.3921e+00"
        )
        with pytest.raises(PathParseError, match="line 8"):
            parse_feff_path(bad)

    def test_non_increasing_k(self):
        bad = MINIMAL_FILE.replace("   2.0000  2.3921e+00", "   0.5000  2.3921e+00")
        with pytest.raises(PathParseError, match="increasing"):
            parse_feff_path(bad)

    def test_non_positive_lambda(self):
        bad = MINIMAL_FILE.replace("9.2887e+00", "-1.0000e+00")
        with pytest.raises(PathParseError, match="lambda"):
            parse_feff_path(bad)

    @pytest.mark.parametrize(
        "old,new,field",
        [
            ("12.00000", "nan", "degeneracy"),
            ("2.2591e-01", "inf", "f_eff"),
        ],
    )
    def test_non_finite_value_names_file_and_field(self, old, new, field):
        bad = MINIMAL_FILE.replace(old, new)
        with pytest.raises(PathParseError, match=f"path feff0001.dat: {field} "):
            parse_feff_path(bad, label="feff0001.dat")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "column,field",
        [(0, "k_theory"), (1, "phase_central"), (2, "f_eff"), (3, "phase_scatter"),
         (5, "lam"), (6, "real_p")],
    )
    def test_non_finite_sample_names_file_line(self, tmp_path, column, field, value):
        lines = MINIMAL_FILE.splitlines()
        row = lines[6].split()  # line 7, the second data row
        row[column] = value
        lines[6] = " ".join(row)
        p = tmp_path / "feff0001.dat"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(PathParseError) as info:
            load_path_file(p)
        assert str(info.value) == f"{p}:7: path feff0001.dat: {field} has non-finite values"

    @pytest.mark.parametrize(
        "old,new,line,reason",
        [
            ("   2.0000  2.3921e+00", "   0.5000  2.3921e+00", 8, "k_theory not strictly increasing"),
            ("6.1446e+00", "0.0000e+00", 7, "lambda must be positive everywhere"),
            ("12.00000", "-12.00000", 4, "degeneracy must be positive"),
            ("12.00000", "nan", 4, "path feff0001.dat: degeneracy is not finite"),
            ("2.552700", "0.000000", 4, "r_eff must be positive"),
        ],
    )
    def test_order_and_lambda_name_file_line(self, tmp_path, old, new, line, reason):
        p = tmp_path / "feff0001.dat"
        p.write_text(MINIMAL_FILE.replace(old, new))
        with pytest.raises(PathParseError) as info:
            load_path_file(p)
        assert str(info.value) == f"{p}:{line}: {reason}"

    @pytest.mark.parametrize(
        "old,new,line,sample,field",
        [
            ("6.1446e+00", "0.0000e+00", 7, 1, None),
            ("12.00000", "-12.00000", 4, None, "degeneracy"),
            (" ---", " ===", None, None, None),
        ],
    )
    def test_load_path_file_keeps_the_parser_error(self, tmp_path, old, new, line, sample,
                                                   field):
        p = tmp_path / "feff0001.dat"
        p.write_text(MINIMAL_FILE.replace(old, new))
        with pytest.raises(PathParseError) as info:
            load_path_file(p)
        exc = info.value
        assert (exc.file, exc.line, exc.sample, exc.field) == (p, line, sample, field)
        assert str(exc).startswith(f"{p}: " if line is None else f"{p}:{line}: ")
        assert "parse_feff_path" in {entry.name for entry in info.traceback}

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_after_column_header(self, rows):
        lines = MINIMAL_FILE.splitlines()
        text = "\n".join(lines[: 5 + rows]) + "\n"
        with pytest.raises(PathParseError, match="^need at least two theory samples$") as info:
            parse_feff_path(text)
        assert info.value.sample is None

    def test_roundtrip(self):
        grid = KGrid(0.5, 12.0, 0.05)
        original = synth_path(2.5527, 12.0, grid, amp_scale=0.7, label="rt")
        text = serialize_feff_path(original)
        parsed = parse_feff_path(text, label="rt")
        assert parsed.degeneracy == pytest.approx(original.degeneracy, abs=1e-9)
        assert parsed.r_eff == pytest.approx(original.r_eff, abs=1e-9)
        for attr in ("k_theory", "f_eff", "phase_scatter", "phase_central", "lam"):
            np.testing.assert_allclose(
                getattr(parsed, attr), getattr(original, attr), atol=1e-9
            )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    deg=st.floats(min_value=0.5, max_value=100.0),
    r_eff=st.floats(min_value=1.0, max_value=8.0),
)
def test_roundtrip_property(seed, deg, r_eff):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    k = np.cumsum(rng.uniform(0.05, 0.5, n))
    path = ScatteringPath(
        label="prop",
        degeneracy=deg,
        r_eff=r_eff,
        k_theory=k,
        f_eff=rng.uniform(0, 2, n),
        phase_scatter=rng.uniform(-np.pi, np.pi, n),
        phase_central=rng.uniform(-np.pi, np.pi, n),
        lam=rng.uniform(1, 30, n),
    )
    parsed = parse_feff_path(serialize_feff_path(path), label="prop")
    np.testing.assert_allclose(parsed.k_theory, path.k_theory, atol=1e-8)
    np.testing.assert_allclose(parsed.f_eff, path.f_eff, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(parsed.lam, path.lam, rtol=1e-9)


class TestScatteringPathInvariants:
    def test_mismatched_lengths(self):
        with pytest.raises(PathParseError):
            ScatteringPath(
                label="x",
                degeneracy=1,
                r_eff=2.0,
                k_theory=np.array([0.0, 1.0, 2.0]),
                f_eff=np.array([0.0, 1.0]),
                phase_scatter=np.zeros(3),
                phase_central=np.zeros(3),
                lam=np.ones(3),
            )

    def test_negative_degeneracy(self):
        with pytest.raises(PathParseError):
            ScatteringPath(
                label="x",
                degeneracy=-1,
                r_eff=2.0,
                k_theory=np.array([0.0, 1.0]),
                f_eff=np.zeros(2),
                phase_scatter=np.zeros(2),
                phase_central=np.zeros(2),
                lam=np.ones(2),
            )


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "field",
        ["degeneracy", "r_eff", "k_theory", "f_eff", "phase_scatter",
         "phase_central", "lam", "real_p"],
    )
    def test_non_finite_rejected_naming_label_and_field(self, field, value):
        fields = dict(
            degeneracy=6.0,
            r_eff=2.5,
            k_theory=np.array([0.0, 1.0, 2.0]),
            f_eff=np.full(3, 0.5),
            phase_scatter=np.zeros(3),
            phase_central=np.zeros(3),
            lam=np.ones(3),
            real_p=np.ones(3),
        )
        if np.ndim(fields[field]):
            fields[field][1] = value
        else:
            fields[field] = value
        with pytest.raises(PathParseError, match=f"path shell1: {field} "):
            ScatteringPath(label="shell1", **fields)


    @staticmethod
    def fields(**changes):
        fields = dict(
            label="shell1",
            degeneracy=6.0,
            r_eff=2.5,
            k_theory=np.array([0.0, 1.0, 2.0, 3.0]),
            f_eff=np.full(4, 0.5),
            phase_scatter=np.zeros(4),
            phase_central=np.zeros(4),
            lam=np.ones(4),
            real_p=np.ones(4),
        )
        fields.update(changes)
        return fields

    @pytest.mark.parametrize(
        "changes,sample",
        [
            (dict(f_eff=np.array([0.5, 0.5, np.nan, np.inf])), 2),
            (dict(real_p=np.array([np.inf, 1.0, 1.0, 1.0])), 0),
            (dict(k_theory=np.array([0.0, 1.0, 1.0, 0.5])), 2),
            (dict(k_theory=np.array([0.0, 2.0, 1.0, 3.0])), 2),
            (dict(lam=np.array([1.0, 1.0, 1.0, -1.0])), 3),
            (dict(lam=np.array([1.0, 0.0, -1.0, 1.0])), 1),
        ],
    )
    def test_per_sample_rule_names_first_failing_sample(self, changes, sample):
        with pytest.raises(PathParseError) as info:
            ScatteringPath(**self.fields(**changes))
        assert info.value.sample == sample

    @pytest.mark.parametrize(
        "changes,name,sample",
        [
            # The difference of two samples overflows.
            (dict(f_eff=np.array([0.5, 1e308, -1e308, 1e308])), "f_eff", 2),
            (dict(phase_scatter=np.array([0.0, 0.0, 1.7e308, -1.7e308])), "phase_scatter", 3),
            (dict(k_theory=np.array([-1e308, 1e308, 1.5e308, 1.6e308])), "k_theory", 1),
            # The difference is finite; its quotient by the k step overflows.
            (dict(k_theory=np.array([0.0, 0.5, 1.0, 1.5]), lam=np.array([1.0, 1.0, 1e308, 1.0])),
             "lam", 2),
            (dict(k_theory=np.array([0.0, 0.5, 1.0, 1.5]),
                  phase_central=np.array([1e308, 0.0, 0.0, 0.0])), "phase_central", 1),
        ],
    )
    def test_non_finite_slope_names_path_array_and_sample(self, changes, name, sample):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PathParseError) as info:
                ScatteringPath(**self.fields(**changes))
        what = "step" if name == "k_theory" else "slope"
        assert str(info.value) == f"path shell1: {name} {what} from the previous sample is not finite"
        assert info.value.sample == sample

    def test_steep_finite_slopes_accepted(self):
        path = ScatteringPath(**self.fields(
            k_theory=np.array([0.0, 1e-300, 1.0, 2.0]), f_eff=np.array([0.0, 1e-10, 1e300, 0.0])))
        assert np.isfinite(np.diff(path.f_eff) / np.diff(path.k_theory)).all()

    @pytest.mark.parametrize(
        "changes,reason",
        [
            (dict(degeneracy=np.nan), "path shell1: degeneracy is not finite"),
            (dict(r_eff=np.inf), "path shell1: r_eff is not finite"),
            (dict(degeneracy=0.0), "degeneracy must be positive"),
            (dict(r_eff=-1.0), "r_eff must be positive"),
            (dict(f_eff=np.ones(3)), "f_eff length (3,) != 4"),
            (dict(k_theory=np.array([1.0]), f_eff=np.ones(1), phase_scatter=np.zeros(1),
                  phase_central=np.zeros(1), lam=np.ones(1), real_p=None),
             "need at least two theory samples"),
        ],
    )
    def test_other_rules_name_no_sample(self, changes, reason):
        with pytest.raises(PathParseError) as info:
            ScatteringPath(**self.fields(**changes))
        assert str(info.value) == reason
        assert info.value.sample is None


class TestPathSet:
    def test_unique_labels(self):
        grid = KGrid(0.5, 10.0, 0.1)
        p = synth_path(2.5, 12, grid, label="a")
        with pytest.raises(ValueError):
            PathSet(paths=(p, p))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^PathSet must contain at least one path$"):
            PathSet(paths=())

    def test_subset(self):
        grid = KGrid(0.5, 10.0, 0.1)
        ps = PathSet(
            paths=tuple(synth_path(2.0 + i, 6, grid, label=f"p{i}") for i in range(3))
        )
        sub = ps.subset(["p0", "p2"])
        assert sub.labels() == ["p0", "p2"]


class TestSynthPath:
    def test_zero_amp(self):
        grid = KGrid(0.5, 10.0, 0.1)
        path = synth_path(2.5, 12, grid, amp_scale=0.0)
        assert np.all(path.f_eff == 0.0)

    def test_zero_at_k0(self):
        grid = KGrid(0.5, 10.0, 0.1)
        path = synth_path(2.5, 12, grid)
        assert path.k_theory[0] == 0.0
        assert path.f_eff[0] == 0.0

    def test_amplitude_peak_at_sqrt50(self):
        grid = KGrid(0.0, 12.0, 0.01)
        path = synth_path(2.5, 12, grid)
        k_peak = path.k_theory[np.argmax(path.f_eff)]
        assert k_peak == pytest.approx(np.sqrt(50.0), abs=0.01)

    def test_invalid_args(self):
        grid = KGrid(0.5, 10.0, 0.1)
        with pytest.raises(ValueError):
            synth_path(-1.0, 12, grid)
        with pytest.raises(ValueError):
            synth_path(2.5, 12, grid, lambda_const=0.0)
        # r_eff, degeneracy and lambda_const fail ScatteringPath's own rules.
        for arg, reason in [("r_eff", "r_eff must be positive"),
                            ("degeneracy", "degeneracy must be positive"),
                            ("lambda_const", "lambda must be positive everywhere")]:
            for value in (0.0, -1.0):
                args = {"r_eff": 2.5, "degeneracy": 12.0, "lambda_const": 10.0, arg: value}
                with pytest.raises(PathParseError) as info:
                    synth_path(grid=grid, **args)
                assert str(info.value) == reason


class TestManifest:
    def test_load_with_override(self, tmp_path):
        grid = KGrid(0.5, 10.0, 0.1)
        for i in range(2):
            p = synth_path(2.5 + i, 12, grid, label=f"f{i}")
            (tmp_path / f"feff000{i}.dat").write_text(serialize_feff_path(p))
        manifest = tmp_path / "paths.txt"
        manifest.write_text("# comment\nfeff0000.dat\nfeff0001.dat 48\n")
        ps = load_manifest(manifest)
        assert len(ps) == 2
        assert ps.paths[0].degeneracy == pytest.approx(12.0)
        assert ps.paths[1].degeneracy == pytest.approx(48.0)

    @pytest.mark.parametrize("override", ["many", "nan", "-3", "0"])
    def test_bad_override_names_manifest_line(self, tmp_path, override):
        grid = KGrid(0.5, 10.0, 0.1)
        (tmp_path / "feff0000.dat").write_text(serialize_feff_path(synth_path(2.5, 12, grid)))
        manifest = tmp_path / "paths.txt"
        manifest.write_text(f"# comment\nfeff0000.dat {override}\n")
        with pytest.raises(PathParseError, match=rf"{re.escape(str(manifest))}:2: bad degeneracy"):
            load_manifest(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "paths.txt"
        manifest.write_text("# nothing\n")
        with pytest.raises(PathParseError):
            load_manifest(manifest)

    def test_repeated_path_names_manifest_line_and_label(self, tmp_path):
        grid = KGrid(0.5, 10.0, 0.1)
        for i in range(2):
            p = synth_path(2.5 + i, 12, grid, label=f"f{i}")
            (tmp_path / f"feff000{i}.dat").write_text(serialize_feff_path(p))
        manifest = tmp_path / "paths.txt"
        manifest.write_text("feff0000.dat\n# comment\nfeff0001.dat\nfeff0000.dat 6\n")
        with pytest.raises(PathParseError) as info:
            load_manifest(manifest)
        message = str(info.value)
        assert f"{manifest}:4:" in message
        assert "feff0000.dat" in message and "line 1" in message

    def test_comment_token_ends_the_line(self, tmp_path):
        grid = KGrid(0.5, 10.0, 0.1)
        for i in range(2):
            p = synth_path(2.5 + i, 12, grid, label=f"f{i}")
            (tmp_path / f"feff000{i}.dat").write_text(serialize_feff_path(p))
        manifest = tmp_path / "paths.txt"
        manifest.write_text("feff0000.dat 6 # note\nfeff0001.dat #48\n")
        ps = load_manifest(manifest)
        assert [p.degeneracy for p in ps] == [6.0, 12.0]

    def test_third_token_names_manifest_line(self, tmp_path):
        grid = KGrid(0.5, 10.0, 0.1)
        (tmp_path / "a.dat").write_text(serialize_feff_path(synth_path(2.5, 12, grid)))
        manifest = tmp_path / "paths.txt"
        manifest.write_text("# comment\na.dat 8 whatever else\n")
        with pytest.raises(PathParseError) as info:
            load_manifest(manifest)
        assert (info.value.file, info.value.line) == (manifest, 2)
        assert str(info.value) == (
            f"{manifest}:2: unexpected token 'whatever': a line holds a path file name"
            " and at most one degeneracy"
        )
