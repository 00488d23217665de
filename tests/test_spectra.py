import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exafsga.spectra import (
    MAX_GRID_POINTS,
    FTConfig,
    KGrid,
    KSpectrum,
    SpectrumError,
    TransformConfigError,
    check_k_range,
    check_r_range,
    k_to_r_map,
    load_data,
    read_chi_file,
    resample_onto,
    transform_k_to_r,
    window_weights,
    write_chi_file,
)


def direct_transform(spec, config):
    """Independent O(N^2) summation of the k->r transform definition."""
    grid = spec.grid
    n_fft = config.n_fft
    kk = grid.delta_k * np.arange(n_fft)
    chi = np.interp(kk, grid.ks, spec.chi, left=0.0, right=0.0)
    f = chi * window_weights(kk, config) * kk**config.k_weight
    f[(kk < config.k_range[0]) | (kk > config.k_range[1])] = 0.0
    pref = 1j * grid.delta_k / np.sqrt(np.pi * n_fft)
    out = np.empty(n_fft // 2, dtype=complex)
    for m in range(n_fft // 2):
        out[m] = pref * np.sum(f * np.exp(2j * np.pi * np.arange(n_fft) * m / n_fft))
    r = np.arange(n_fft // 2) * np.pi / (n_fft * grid.delta_k)
    keep = (r >= config.r_range[0]) & (r <= config.r_range[1])
    return r[keep], out[keep]


@pytest.fixture
def grid():
    return KGrid(k_min=0.5, k_max=12.5, delta_k=0.05)


class TestKGrid:
    def test_n_points(self):
        g = KGrid(0.0, 10.0, 0.05)
        assert g.n_points == 201
        assert np.allclose(np.diff(g.ks), 0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_min=-1, k_max=10, delta_k=0.05),
            dict(k_min=5, k_max=5, delta_k=0.05),
            dict(k_min=0, k_max=10, delta_k=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(SpectrumError):
            KGrid(**kwargs)

    @pytest.mark.parametrize("field", ["k_min", "k_max", "delta_k"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(k_min=0.5, k_max=12.5, delta_k=0.05) | {field: value}
        with pytest.raises(SpectrumError, match="must be finite"):
            KGrid(**kwargs)

    def test_point_count_overflow_rejected(self):
        with pytest.raises(SpectrumError, match="overflows"):
            KGrid(0.0, 1e300, 1e-300)

    def test_point_count_bound(self):
        assert MAX_GRID_POINTS == 4096
        assert KGrid(0.0, 4095.0, 1.0).n_points == MAX_GRID_POINTS
        for k_max in (4096.0, 1e12):
            with pytest.raises(SpectrumError, match="more than 4096"):
                KGrid(0.0, k_max, 1.0)

    @pytest.mark.parametrize("k_min, k_max, delta_k, n", [
        (0.5, 12.5, 0.05, 241), (0.5, 13.0, 0.05, 251), (0.0, 12.0, 0.5, 25),
        (0.5, 12.5, 0.0702, 171),
    ])
    def test_last_point_never_passes_k_max(self, k_min, k_max, delta_k, n):
        g = KGrid(k_min, k_max, delta_k)
        assert g.n_points == n
        assert g.ks[-1] <= k_max + 1e-9 * delta_k

    def test_data_ending_at_k_max_covers_the_grid(self, tmp_path):
        # A grid whose span is not a whole number of steps stops short of
        # k_max, so data that ends at k_max is interpolated, not clamped.
        k = np.linspace(0.5, 12.5, 12001)
        write_chi_file(tmp_path / "sin.dat", k, np.sin(k))
        grid = KGrid(0.5, 12.5, 0.0702)
        data = load_data(tmp_path / "sin.dat", grid)
        np.testing.assert_allclose(data.chi, np.sin(grid.ks), rtol=0, atol=1e-6)

    def test_chi_length_checked(self, grid):
        with pytest.raises(SpectrumError):
            KSpectrum(grid=grid, chi=np.zeros(grid.n_points - 1))
        with pytest.raises(SpectrumError):
            KSpectrum(grid=grid, chi=np.full(grid.n_points, np.nan))


class TestWindow:
    def test_plateau_weight_is_one(self, grid):
        cfg = FTConfig(k_range=(2.0, 12.0), window_sill=1.0)
        w = window_weights(grid.ks, cfg)
        center = np.argmin(np.abs(grid.ks - 7.0))
        assert w[center] == 1.0

    def test_outside_range_is_zero(self, grid):
        cfg = FTConfig(k_range=(2.0, 12.0), window_sill=1.0)
        w = window_weights(grid.ks, cfg)
        assert np.all(w[grid.ks < 2.0] == 0.0)
        assert np.all(w[grid.ks > 12.0] == 0.0)

    def test_sill_taper_values(self):
        # Hand evaluation of the cosine-squared taper at the sill edge and
        # midpoint: sin^2(0) = 0 and sin^2(pi/4) = 0.5.
        grid = KGrid(k_min=0.0, k_max=12.0, delta_k=0.5)
        cfg = FTConfig(k_range=(2.0, 12.0), window_sill=1.0)
        w = window_weights(grid.ks, cfg)
        assert w[np.argmin(np.abs(grid.ks - 2.0))] == pytest.approx(0.0, abs=1e-15)
        assert w[np.argmin(np.abs(grid.ks - 2.5))] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("window_sill, weight", [(0.0, 1.0), (1.0, 0.0)])
    def test_point_just_past_an_end_weighs_as_the_end(self, window_sill, weight):
        cfg = FTConfig(k_range=(2.0, 12.0), window_sill=window_sill)
        w = window_weights(np.array([2.0 - 5e-10, 12.0 + 5e-10, 2.0 - 2e-9, 12.0 + 2e-9]), cfg)
        assert w.tolist() == [weight, weight, 0.0, 0.0]

    def test_weights_in_unit_interval(self, grid):
        # A sill of half the range has the two tapers meet at its midpoint.
        for sill in (1.5, 4.5):
            cfg = FTConfig(k_range=(2.5, 11.5), window_sill=sill)
            w = window_weights(grid.ks, cfg)
            assert np.all((w >= 0.0) & (w <= 1.0))

    def test_symmetric_about_fit_midpoint(self):
        grid = KGrid(k_min=2.0, k_max=12.0, delta_k=0.05)
        for sill in (1.5, 5.0):
            cfg = FTConfig(k_range=(2.0, 12.0), window_sill=sill)
            w = window_weights(grid.ks, cfg)
            assert np.allclose(w, w[::-1], atol=1e-12)

    def test_sill_too_wide(self, grid):
        with pytest.raises(TransformConfigError):
            FTConfig(k_range=(2.0, 4.0), window_sill=1.5)

    def test_range_beyond_grid(self, grid):
        cfg = FTConfig(k_range=(0.1, 12.0))
        with pytest.raises(TransformConfigError, match="extends beyond the grid"):
            check_k_range(cfg, grid)


class TestCheckKRange:
    @pytest.mark.parametrize("k_range", [
        (0.5, 12.5), (2.5, 12.0), (2.501, 2.6), (2.5, 2.549), (2.51, 2.59), (12.45, 12.5 + 1e-10),
    ])
    def test_returns_the_slice_of_points_in_the_range(self, grid, k_range):
        held = check_k_range(FTConfig(k_range=k_range, window_sill=0.0), grid)
        k = grid.ks
        assert np.array_equal(np.arange(grid.n_points)[held],
                              np.flatnonzero((k >= k_range[0]) & (k <= k_range[1])))

    def test_range_between_grid_points_rejected(self, grid):
        cfg = FTConfig(k_range=(2.501, 2.509), window_sill=0.0)
        with pytest.raises(TransformConfigError,
                           match=r"^k_range \[2\.501, 2\.509\] contains no grid samples$"):
            check_k_range(cfg, grid)

    def test_more_points_than_n_fft_rejected(self, grid):
        with pytest.raises(TransformConfigError,
                           match=r"^n_fft=128 smaller than 191 in-range samples$"):
            check_k_range(FTConfig(k_range=(2.5, 12.0), n_fft=128), grid)
        assert check_k_range(FTConfig(k_range=(2.5, 8.85), n_fft=128), grid) == slice(40, 168)

    def test_an_end_at_a_grid_points_decimal_holds_that_point(self, grid):
        # grid.ks[41] is 2.5500000000000003, above the 2.55 a config writes.
        assert grid.ks[41] > 2.55
        cfg = FTConfig(k_range=(2.501, 2.55), window_sill=0.0)
        assert check_k_range(cfg, grid) == slice(41, 42)
        for i, k in enumerate(grid.ks[1:-1], start=1):
            end = round(float(k), 2)
            low = FTConfig(k_range=(grid.k_min, end), window_sill=0.0)
            high = FTConfig(k_range=(end, grid.k_max), window_sill=0.0)
            assert check_k_range(low, grid) == slice(0, i + 1)
            assert check_k_range(high, grid) == slice(i, grid.n_points)

    def test_the_transform_reads_the_points_the_fit_holds(self, grid):
        # Without a sill the window weighs ks[41] = 2.5500000000000003, which
        # the range's end 2.55 holds, as the fit does.
        cfg = FTConfig(k_range=(2.5, 2.55), window_sill=0.0)
        assert k_to_r_map(grid, cfg).columns == check_k_range(cfg, grid) == slice(40, 42)
        # The transformed point 247*0.05 = 12.350000000000001 lies just past
        # the grid's last point 12.35, and reads it.
        grid = KGrid(0.35, 12.35, 0.05)
        cfg = FTConfig(k_range=(2.35, 12.35), window_sill=0.0)
        assert k_to_r_map(grid, cfg).columns == check_k_range(cfg, grid) == slice(40, 241)
        unit = KSpectrum(grid=grid, chi=np.eye(grid.n_points)[240])
        assert np.any(transform_k_to_r(unit, cfg).chi_r != 0)

    def test_is_the_check_of_the_transform(self, grid):
        spec = KSpectrum(grid=grid, chi=np.ones(grid.n_points))
        for k_range in [(0.45, 12.0), (2.0, 12.6)]:
            with pytest.raises(TransformConfigError, match="extends beyond the grid"):
                transform_k_to_r(spec, FTConfig(k_range=k_range))


class TestCheckRRange:
    @pytest.mark.parametrize("n_fft", [8, 2048, 2**19])
    def test_returns_the_slice_of_r_points_in_the_range(self, grid, n_fft):
        # Ends on an r-point, one ulp to either side of one, and past the last.
        r = np.arange(n_fft // 2) * np.pi / (n_fft * grid.delta_k)
        a, b = r[r.size // 3], r[-1]
        down, up = (lambda x: np.nextafter(x, 0.0)), (lambda x: np.nextafter(x, np.inf))
        for lo, hi in [(0.0, b), (a, b), (up(a), down(b)), (down(a), up(a)), (up(a), up(up(a))),
                       (a, 2 * b), (up(b), 2 * b)]:
            cfg = FTConfig(k_range=(2.5, 12.0), r_range=(float(lo), float(hi)), n_fft=n_fft)
            held = np.flatnonzero((r >= lo) & (r <= hi))
            if held.size:
                assert np.array_equal(np.arange(r.size)[check_r_range(cfg, grid)], held)
            else:
                with pytest.raises(TransformConfigError, match="holds no r-point"):
                    check_r_range(cfg, grid)


class TestTransform:
    def test_zero_in_zero_out(self, grid):
        cfg = FTConfig(k_range=(2.0, 12.0), n_fft=512)
        spec = KSpectrum(grid=grid, chi=np.zeros(grid.n_points))
        out = transform_k_to_r(spec, cfg)
        assert np.all(out.chi_r == 0)

    def test_sinusoid_peak_position(self, grid):
        r_true = 2.5
        spec = KSpectrum(grid=grid, chi=np.sin(2 * grid.ks * r_true))
        cfg = FTConfig(k_range=(1.0, 12.0), k_weight=1, n_fft=2048, r_range=(0.5, 6.0))
        out = transform_k_to_r(spec, cfg)
        r_step = np.pi / (cfg.n_fft * grid.delta_k)
        r_peak = out.r[np.argmax(out.magnitude)]
        assert abs(r_peak - r_true) <= r_step

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(42)
        grid = KGrid(k_min=0.5, k_max=6.0, delta_k=0.1)
        cfg = FTConfig(k_range=(1.0, 5.5), n_fft=64, window_sill=0.5, r_range=(0, 20))
        spec = KSpectrum(grid=grid, chi=rng.normal(size=grid.n_points))
        out = transform_k_to_r(spec, cfg)
        r_ref, chi_ref = direct_transform(spec, cfg)
        assert np.allclose(out.r, r_ref)
        scale = np.max(np.abs(chi_ref))
        assert np.max(np.abs(out.chi_r - chi_ref)) <= 1e-10 * scale

    def test_invalid_sampling_raises(self):
        grid = KGrid(k_min=0.0, k_max=12.0, delta_k=0.5)
        spec = KSpectrum(grid=grid, chi=np.ones(grid.n_points))
        with pytest.raises(TransformConfigError, match="no grid samples"):
            transform_k_to_r(spec, FTConfig(k_range=(2.1, 2.4), window_sill=0.1))
        with pytest.raises(TransformConfigError, match="smaller than 17 in-range samples"):
            transform_k_to_r(spec, FTConfig(k_range=(2.0, 10.0), n_fft=16))

    def test_chi_outside_support_transforms_to_zero(self):
        grid = KGrid(k_min=0.5, k_max=6.0, delta_k=0.1)
        cfg = FTConfig(k_range=(1.0, 5.5), n_fft=64, window_sill=0.5, r_range=(0, 20))
        cols = k_to_r_map(grid, cfg).columns
        assert 0 < cols.stop - cols.start < grid.n_points
        chi = np.random.default_rng(5).normal(size=grid.n_points)
        chi[cols] = 0.0
        out = transform_k_to_r(KSpectrum(grid=grid, chi=chi), cfg)
        assert np.all(out.chi_r == 0)

    def test_support_is_the_columns_read(self):
        # Grid point j is in the map's columns iff the unit spectrum at j has
        # a nonzero transform, by the product and by the direct sum alike.
        grid = KGrid(k_min=0.5, k_max=6.0, delta_k=0.1)
        cfg = FTConfig(k_range=(1.0, 5.5), n_fft=64, window_sill=0.5, r_range=(0, 20))
        cols = range(grid.n_points)[k_to_r_map(grid, cfg).columns]
        for j in range(grid.n_points):
            unit = KSpectrum(grid=grid, chi=np.eye(grid.n_points)[j])
            assert np.any(transform_k_to_r(unit, cfg).chi_r != 0) == (j in cols)
            assert np.any(direct_transform(unit, cfg)[1] != 0) == (j in cols)

    def test_map_is_the_unchecked_transform(self, grid):
        cfg = FTConfig(k_range=(2.0, 12.0), n_fft=512)
        to_r = k_to_r_map(grid, cfg)
        chi = np.random.default_rng(4).normal(size=grid.n_points)
        out = transform_k_to_r(KSpectrum(grid=grid, chi=chi), cfg)
        assert np.array_equal(to_r.r, out.r) and np.array_equal(to_r(chi), out.chi_r)
        assert to_r is k_to_r_map(grid, cfg)
        chi[to_r.columns.start] = np.nan
        assert not np.all(np.isfinite(to_r(chi)))
        with pytest.raises(SpectrumError, match="non-finite"):
            transform_k_to_r(KSpectrum(grid=grid, chi=chi), cfg)

    def test_linearity(self, grid):
        rng = np.random.default_rng(3)
        cfg = FTConfig(k_range=(2.0, 12.0), n_fft=512)
        c1 = rng.normal(size=grid.n_points)
        c2 = rng.normal(size=grid.n_points)
        a, b = 2.7, -1.3
        lhs = transform_k_to_r(KSpectrum(grid=grid, chi=a * c1 + b * c2), cfg).chi_r
        rhs = (
            a * transform_k_to_r(KSpectrum(grid=grid, chi=c1), cfg).chi_r
            + b * transform_k_to_r(KSpectrum(grid=grid, chi=c2), cfg).chi_r
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_r_spacing_invariant(self, grid):
        cfg = FTConfig(k_range=(2.0, 12.0), n_fft=1024, r_range=(0, 8))
        spec = KSpectrum(grid=grid, chi=np.ones(grid.n_points))
        out = transform_k_to_r(spec, cfg)
        assert np.allclose(np.diff(out.r), np.pi / (cfg.n_fft * grid.delta_k))

    @pytest.mark.parametrize("field, value", [
        ("k_range", (np.nan, 12.0)), ("k_range", (2.0, np.inf)), ("r_range", (0.0, np.nan)),
        ("r_range", (-np.inf, 6.0)), ("window_sill", np.nan), ("window_sill", np.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(k_range=(2.0, 12.0)) | {field: value}
        with pytest.raises(TransformConfigError, match="must be finite"):
            FTConfig(**kwargs)

    @pytest.mark.parametrize("r_range", [(0.01, 0.02), (40.0, 50.0)])
    def test_r_range_without_an_r_point_rejected(self, grid, r_range):
        # r-points m*pi/(2048*0.05) for 0 <= m < 1024: (0.01, 0.02) falls
        # between the first two, (40, 50) past pi/(2*delta_k).
        spec = KSpectrum(grid=grid, chi=np.ones(grid.n_points))
        cfg = FTConfig(k_range=(2.5, 12.0), r_range=r_range)
        expected = (rf"^r_range \[{r_range[0]}, {r_range[1]}\] holds no r-point "
                    r"m\*pi/\(n_fft\*delta_k\) = m\*0\.0306796, 0 <= m < 1024$")
        with pytest.raises(TransformConfigError, match=expected):
            transform_k_to_r(spec, cfg)

    def test_nfft_too_small(self, grid):
        cfg = FTConfig(k_range=(2.0, 12.0), n_fft=128)
        spec = KSpectrum(grid=grid, chi=np.zeros(grid.n_points))
        with pytest.raises(TransformConfigError):
            transform_k_to_r(spec, cfg)

    def test_empty_fit_range(self):
        grid = KGrid(k_min=0.5, k_max=12.5, delta_k=0.05)
        cfg = FTConfig(k_range=(12.51, 13.0), window_sill=0.1)
        spec = KSpectrum(grid=grid, chi=np.zeros(grid.n_points))
        with pytest.raises(TransformConfigError):
            transform_k_to_r(spec, cfg)


class TestResample:
    def test_identity(self, grid):
        rng = np.random.default_rng(0)
        spec = KSpectrum(grid=grid, chi=rng.normal(size=grid.n_points))
        out = resample_onto(spec, grid)
        assert np.array_equal(out.chi, spec.chi)

    def test_linear_midpoint(self):
        src = KGrid(0.0, 1.0, 1.0)
        spec = KSpectrum(grid=src, chi=np.array([0.0, 1.0]))
        target = KGrid(0.0, 1.0, 0.5)
        out = resample_onto(spec, target)
        assert out.chi[1] == pytest.approx(0.5)

    def test_idempotent(self, grid):
        rng = np.random.default_rng(1)
        spec = KSpectrum(grid=grid, chi=rng.normal(size=grid.n_points))
        fine = KGrid(1.0, 12.0, 0.025)
        once = resample_onto(spec, fine)
        twice = resample_onto(once, fine)
        assert np.array_equal(once.chi, twice.chi)

    def test_extrapolation_rejected(self, grid):
        spec = KSpectrum(grid=grid, chi=np.zeros(grid.n_points))
        with pytest.raises(SpectrumError):
            resample_onto(spec, KGrid(0.1, 12.0, 0.05))


@settings(max_examples=25, deadline=None)
@given(
    amp=st.floats(min_value=0.1, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_transform_scaling_property(amp, seed):
    grid = KGrid(0.5, 8.0, 0.1)
    rng = np.random.default_rng(seed)
    chi = rng.normal(size=grid.n_points)
    cfg = FTConfig(k_range=(1.0, 7.5), n_fft=256, window_sill=0.5)
    base = transform_k_to_r(KSpectrum(grid=grid, chi=chi), cfg).chi_r
    scaled = transform_k_to_r(KSpectrum(grid=grid, chi=amp * chi), cfg).chi_r
    assert np.allclose(scaled, amp * base, rtol=1e-12, atol=1e-14)


class TestFileIO:
    def test_roundtrip(self, tmp_path, grid):
        rng = np.random.default_rng(5)
        chi = rng.normal(size=grid.n_points)
        p = tmp_path / "chi.dat"
        write_chi_file(p, grid.ks, chi, header="test spectrum")
        k2, chi2 = read_chi_file(p)
        assert np.allclose(k2, grid.ks)
        assert np.allclose(chi2, chi)

    def test_comma_delimited(self, tmp_path):
        p = tmp_path / "chi.csv"
        p.write_text("# comment\n1.0, 0.5\n2.0, -0.5\n3.0, 0.25\n")
        k, chi = read_chi_file(p)
        assert list(k) == [1.0, 2.0, 3.0]
        assert list(chi) == [0.5, -0.5, 0.25]

    def test_descending_k_rejected(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text("3.0 0.1\n2.0 0.2\n1.0 0.3\n")
        with pytest.raises(SpectrumError):
            read_chi_file(p)

    def test_order_failure_names_its_file_line(self, tmp_path):
        # Comment and blank lines count: the failing row is line 6, data row 3.
        p = tmp_path / "bad.dat"
        p.write_text("# c\n0.5 1\n# c\n\n0.6 1\n0.55 2\n")
        with pytest.raises(SpectrumError) as info:
            read_chi_file(p)
        assert str(info.value) == f"{p}:6: k not strictly increasing"

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text("1.0 0.1\nabc 0.2\n")
        with pytest.raises(SpectrumError, match="2"):
            read_chi_file(p)
