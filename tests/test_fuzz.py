"""Fuzz the three input parsers: each returns a valid object or raises an
exception class that exafsga defines.  Also checks the k->r map's columns on
random grids and transform settings."""

import dataclasses
import math
import string

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from exafsga.cli import KEYS, MODES, ConfigError, gene_specs, parse_config
from exafsga.paths import parse_feff_path
from exafsga.spectra import (
    FTConfig, KGrid, TransformConfigError, check_k_range, k_to_r_map, read_chi_file,
)

# tmp_path is shared by the examples of a test: each rewrites its one file.
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "0", "-1", ""]),
    st.sampled_from(["0.5", "1", "2", "3", "5", "12", "0.01", "1e-4"]),
    st.floats().map(repr),
    st.integers(-10, 10**6).map(str),
)
JUNK = st.text(alphabet=string.printable.replace("\n", "").replace("\r", ""), max_size=12)
VALUES = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=4).map(" ".join), JUNK)
SETTINGS = st.dictionaries(
    st.sampled_from(sorted((s, k) for s, keys in KEYS.items() for k in keys if k != "mode")),
    VALUES,
    max_size=2,
)


def raised_by_exafsga(exc: Exception) -> bool:
    return type(exc).__module__.startswith("exafsga.")


def finite_floats(obj) -> list[float]:
    values = []
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float):
                values.append(v)
    return values


@settings(FUZZ, max_examples=600)
@given(mode=st.sampled_from(MODES + ("", "wiggle")), settings_=SETTINGS,
       synth_paths=st.lists(VALUES, max_size=3))
def test_parse_config(tmp_path, mode, settings_, synth_paths):
    sections = {"run": {"mode": mode}}
    for (section, key), value in settings_.items():
        sections.setdefault(section, {})[key] = value
    if synth_paths:
        sections["synth_paths"] = {f"p{i}": v for i, v in enumerate(synth_paths)}
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()
    )
    path = tmp_path / "fuzz.ini"
    path.write_text(text)
    # Every rejection is a ConfigError naming its section or the file.
    try:
        cfg = parse_config(str(path))
    except ConfigError as exc:
        assert str(exc).startswith("[") or str(path) in str(exc), repr(exc)
        return
    # Building the k->r map is left out: any power-of-two n_fft is legal.
    assert cfg.grid.n_points >= 1
    assert len(gene_specs(cfg, 1)) == 4
    for obj in (cfg.grid, cfg.fitness.ft, cfg.fitness):
        assert all(map(math.isfinite, finite_floats(obj))), obj


@FUZZ
@given(rows=st.lists(st.lists(st.one_of(NUMBERS, JUNK, st.just("#")), max_size=4), max_size=8))
def test_read_chi_file(tmp_path, rows):
    path = tmp_path / "chi.dat"
    path.write_text("\n".join(" ".join(row) for row in rows))
    try:
        k, chi = read_chi_file(path)
    except Exception as exc:
        assert raised_by_exafsga(exc), repr(exc)
        return
    assert k.shape == chi.shape and k.size >= 2
    assert np.all(np.isfinite(k)) and np.all(np.isfinite(chi))
    assert k[0] >= 0 and np.all(np.diff(k) > 0)


FEFF_NUMBERS = st.one_of(NUMBERS, st.floats(0.05, 20.0).map(repr))
FEFF_LINES = st.one_of(
    st.lists(FEFF_NUMBERS, min_size=6, max_size=8).map(" ".join),
    st.just(" " + "-" * 70),
    st.just("    k   real[2*phc]   mag[feff]  phase[feff] red factor   lambda     real[p]"),
    st.lists(FEFF_NUMBERS, max_size=4).map(lambda v: " ".join(v) + "    nleg, deg, reff"),
    JUNK,
)


@FUZZ
@given(lines=st.lists(FEFF_LINES, max_size=10))
def test_parse_feff_path(lines):
    try:
        path = parse_feff_path("\n".join(lines))
    except Exception as exc:
        assert raised_by_exafsga(exc), repr(exc)
        return
    assert path.degeneracy > 0 and path.r_eff > 0
    assert path.k_theory.size >= 2 and np.all(np.diff(path.k_theory) > 0)
    assert np.all(path.lam > 0)
    for name in ("f_eff", "phase_scatter", "phase_central", "lam", "real_p"):
        assert np.all(np.isfinite(getattr(path, name))), name


@settings(max_examples=150, deadline=None)
@given(k_min=st.floats(0.0, 5.0), delta_k=st.floats(0.01, 0.2), n=st.integers(3, 400),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), sill=st.floats(0.0, 1.0),
       r_min=st.floats(0.0, 20.0), r_span=st.floats(1.0, 30.0), k_weight=st.integers(0, 3),
       extra_fft=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_k_to_r_support_is_one_run_read_as_a_slice(k_min, delta_k, n, ends, sill, r_min,
                                                   r_span, k_weight, extra_fft, seed):
    grid = KGrid(k_min, k_min + (n - 1) * delta_k, delta_k)
    a, b = sorted(ends)
    assume(b - a > 1e-3)
    span = grid.k_max - grid.k_min
    k_range = (grid.k_min + a * span, grid.k_min + b * span)
    # n_fft*delta_k passes the grid's end, and r_range, in units of the r
    # spacing, holds at least one r-point.
    n_fft = 2 ** (max(7, math.ceil(math.log2(grid.k_max / delta_k + 2))) + extra_fft)
    r_step = math.pi / (n_fft * delta_k)
    ft = FTConfig(k_range=k_range, r_range=(r_min * r_step, (r_min + r_span) * r_step),
                  k_weight=k_weight, window_sill=sill * (k_range[1] - k_range[0]) / 2,
                  n_fft=n_fft)
    try:
        check_k_range(ft, grid)
        to_r = k_to_r_map(grid, ft)
    except TransformConfigError:
        # No grid sample in k_range.
        assume(False)
    # Every column the map reads holds a nonzero entry: the points the
    # transform reads are one run.
    cols = np.arange(grid.n_points)[to_r.columns]
    assert to_r.matrix.shape[1] == cols.size
    assert np.all(np.any(to_r.matrix != 0, axis=0))
    chi = np.random.default_rng(seed).normal(size=grid.n_points)
    expected = (to_r.matrix @ chi[cols]).view(np.complex128)
    assert np.array_equal(to_r(chi).view(np.float64), expected.view(np.float64))
