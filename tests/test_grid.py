"""Grid containers, generators and I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarlab import (
    Exponent,
    Grid1,
    Grid2,
    gen_cumulative,
    gen_gn,
    gen_product,
    gen_series_f,
    gen_sine,
    gen_staircase,
    gen_tent_scaled,
    gen_trigpoly,
    load_csv,
    save_csv,
)
from pvarlab.grid import dist_to_integer


class TestExponent:
    def test_conjugate(self):
        assert Exponent(2.0).conj == 2.0
        assert Exponent(1.0).conj == math.inf
        assert Exponent(4.0).conj == pytest.approx(4.0 / 3.0)

    def test_inv_conj_convention_at_one(self):
        assert Exponent(1.0).inv_conj == 0.0

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_p(self, bad):
        with pytest.raises(ValueError):
            Exponent(bad)

    def test_numpy_reals_accepted_bools_refused(self):
        for p in (np.int64(2), np.float32(1.5), np.float64(3.0)):
            e = Exponent(p)
            assert type(e.p) is float and e.p == float(p)
        for bad in (True, False, np.bool_(True), "2", None):
            with pytest.raises(ValueError):
                Exponent(bad)


class TestContainers:
    def test_grid1_frozen_and_validated(self):
        g = Grid1(np.arange(4.0))
        with pytest.raises(ValueError):
            g.samples[0] = 5.0
        with pytest.raises(ValueError):
            Grid1(np.array([1.0]))
        with pytest.raises(ValueError):
            Grid1(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("bad", (1.7e308, -1e308, np.nextafter(2.0**1021, np.inf)))
    def test_samples_bounded_by_2_pow_1021(self, bad):
        """Above 2^1021 a sample difference or a mixed cell can overflow, so
        the grids refuse such samples; 2^1021 itself is accepted."""
        with pytest.raises(ValueError, match="2\\^1021"):
            Grid1(np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="2\\^1021"):
            Grid2(np.array([[bad, 0.0], [0.0, 0.0]]))
        Grid1(np.array([2.0**1021, -(2.0**1021)]))
        Grid2(np.array([[2.0**1021, 0.0], [0.0, -(2.0**1021)]]))

    def test_grid2_sections(self):
        f = Grid2([[1.0, 2.0], [3.0, 4.0]])
        assert f.row(1).samples.tolist() == [3.0, 4.0]
        assert f.col(0).samples.tolist() == [1.0, 3.0]
        assert f.steps == (0.5, 0.5)

    def test_grid2_rejects_thin(self):
        with pytest.raises(ValueError):
            Grid2([[1.0, 2.0]])


class TestGenerators:
    def test_dist_to_integer(self):
        assert dist_to_integer(0.25) == 0.25
        assert dist_to_integer(0.75) == 0.25
        assert dist_to_integer(3.5) == 0.5
        assert dist_to_integer(-0.25) == 0.25

    def test_tent_alignment_required(self):
        with pytest.raises(ValueError):
            gen_tent_scaled(3, 8)

    def test_sine_extrema_on_grid(self):
        g = gen_sine(2, 16)
        assert g.samples[2] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            gen_sine(2, 10)

    def test_bump_support(self):
        g = gen_gn(2, 16)
        x = np.arange(16) / 16
        inside = (x >= 0.25) & (x <= 0.5)
        assert np.all(g.samples[~inside] == 0.0)
        assert g.samples[6] == pytest.approx(0.5)  # midpoint 3/8 of [1/4, 1/2]

    def test_staircase_matches_half_open_indicator(self):
        f = gen_staircase(2)
        # f(1,1)=1, f(1,1/2)=0, f(1/2,1)=1, f(1/2,1/2)=1
        assert f.samples.tolist() == [[1.0, 0.0], [1.0, 1.0]]

    def test_staircase_column_below_diagonal(self):
        f = gen_staircase(8)
        assert f.samples[3, 2] == 0.0  # x=3/8 > y=2/8
        assert f.samples[2, 3] == 1.0

    def test_series_tail_bound_and_alignment(self):
        """Longer truncations differ from the M = 2 one by at most the tail
        bound 2^(-M/p)/4 of the docstring; the disjoint bump supports make
        the difference the peak of the next term, 2^(-(M+1)/p)/4."""
        p = Exponent(2.0)
        f2 = gen_series_f(2, p, 64).samples
        for M in (3, 5):
            tail = float(np.max(np.abs(gen_series_f(M, p, 64).samples - f2)))
            assert tail <= 2.0 ** (-2 / 2.0) / 4.0
            assert tail == pytest.approx(2.0 ** (-3 / 2.0) / 4.0)
        with pytest.raises(ValueError):
            gen_series_f(3, Exponent(2.0), 8)

    def test_product_is_outer(self):
        g = gen_sine(1, 8)
        f = gen_product(g, g)
        assert np.allclose(f.samples, np.outer(g.samples, g.samples))

    def test_trigpoly_single_mode_derivative(self):
        shape = (2, 2)
        a = np.zeros(shape)
        a[1, 1] = 1.0
        z = np.zeros(shape)
        T, D = gen_trigpoly(a, z, z, z, 8, 8)
        x = np.arange(8) / 8
        assert np.allclose(T.samples, np.outer(np.cos(2 * np.pi * x), np.cos(2 * np.pi * x)))
        expect = 4 * np.pi**2 * np.outer(np.sin(2 * np.pi * x), np.sin(2 * np.pi * x))
        assert np.allclose(D.samples, expect)

    def test_trigpoly_mixed_derivative_norm_bound(self):
        # ||D1D2 T||_p <= 4 pi^2 n m ||T||_p, with equality for pure products
        from pvarlab import lp_norm

        n = 2
        z = np.zeros((n + 1, 2))
        d = z.copy()
        d[n, 1] = 1.0
        T, D = gen_trigpoly(z, z, z, d, 32, 32)
        for p in (1.0, 2.0, 8.0):
            assert lp_norm(D, p) == pytest.approx(4 * np.pi**2 * n * lp_norm(T, p))
        rng = np.random.default_rng(2)
        coef = [rng.normal(size=(4, 3)) for _ in range(4)]
        T, D = gen_trigpoly(*coef, 32, 32)
        for p in (1.0, 2.0, 8.0):
            assert lp_norm(D, p) <= 4 * np.pi**2 * 3 * 2 * lp_norm(T, p) + 1e-12

    def test_trigpoly_rejects_unresolved_degree(self):
        c = np.zeros((3, 3))
        with pytest.raises(ValueError):
            gen_trigpoly(c, c, c, c, 4, 16)

    def test_cumulative_needs_zero_means(self):
        with pytest.raises(ValueError):
            gen_cumulative(Grid2([[1.0, 1.0], [1.0, 1.0]]))

    def test_cumulative_of_mean_free_field(self):
        f = Grid2([[1.0, -1.0], [-1.0, 1.0]])
        F = gen_cumulative(f)
        assert F.samples[0, 0] == 0.0
        assert F.samples[1, 1] == pytest.approx(0.25)


class TestIO:
    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(2, 6),
        n=st.integers(2, 6),
        seed=st.integers(0, 10**6),
    )
    def test_csv_roundtrip_grid2_exact(self, tmp_path_factory, m, n, seed):
        rng = np.random.default_rng(seed)
        f = Grid2(rng.normal(size=(m, n)))
        path = tmp_path_factory.mktemp("io") / "g.csv"
        save_csv(f, path)
        back = load_csv(path)
        assert isinstance(back, Grid2)
        assert np.array_equal(back.samples, f.samples)

    def test_csv_roundtrip_grid1(self, tmp_path):
        g = gen_sine(1, 8)
        path = tmp_path / "g.csv"
        save_csv(g, path)
        back = load_csv(path)
        assert isinstance(back, Grid1)
        assert np.array_equal(back.samples, g.samples)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("no header\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_load_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# pvarlab grid 2 2\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_load_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# pvarlab grid 1 2\n1.0,zap\n")
        with pytest.raises(ValueError):
            load_csv(path)
