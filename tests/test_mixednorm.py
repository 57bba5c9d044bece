"""Section-variation profiles and the mixed-norm functional."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarlab import (
    Exponent,
    Grid1,
    Grid2,
    hardy_section_check,
    gen_product,
    gen_series_f,
    gen_sine,
    gen_staircase,
    gen_tent_scaled,
    phi_profile,
    psi_profile,
    pvar_cyclic,
    section_lipschitz_check,
    vitali_finest,
    w_p,
    w_p_estimate_check,
)
from pvarlab import smoothness
from pvarlab.smoothness import FieldContext

P_VALUES = (1.0, 1.5, 2.0, 3.0)


def _random_field(seed: int, side: int = 8) -> Grid2:
    return Grid2(np.random.default_rng(seed).normal(size=(side, side)))


class TestProfiles:
    @pytest.mark.parametrize("p", (1.0, 2.0))
    def test_separable_profiles_scale_with_factor(self, p):
        g = gen_sine(1, 8)
        h = gen_tent_scaled(1, 8)
        f = gen_product(g, h)
        pe = Exponent(p)
        vh = pvar_cyclic(h, pe)[0]
        vg = pvar_cyclic(g, pe)[0]
        phi = phi_profile(f, pe).samples
        psi = psi_profile(f, pe).samples
        assert np.allclose(phi, np.abs(g.samples) * vh, atol=1e-12)
        assert np.allclose(psi, np.abs(h.samples) * vg, atol=1e-12)

    def test_profile_axes(self):
        f = Grid2(np.random.default_rng(0).normal(size=(5, 8)))
        pe = Exponent(2.0)
        assert phi_profile(f, pe).n == f.m
        assert psi_profile(f, pe).n == f.n


class TestWp:
    def test_constant_rows_and_columns_vanish(self):
        f = gen_product(gen_sine(1, 8), gen_sine(1, 8))
        # |g| * v_p(h) has the same profile shape in both coordinates
        assert w_p(f, Exponent(2.0)) > 0.0
        flat = Grid2(np.full((6, 6), 2.0))
        assert w_p(flat, Exponent(2.0)) == 0.0

    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
    def test_staircase_profiles_dip_at_degenerate_sections(self, p):
        """One grid section per axis of the staircase is constant (the x = 1/N
        row samples no point of its zero region; the y = 1 column is the
        constant section of the underlying function), so each profile has a
        single dip to zero and W_p is resolution-independent but nonzero."""
        pe = Exponent(p)
        for n in (8, 16):
            f = gen_staircase(n)
            phi = phi_profile(f, pe).samples
            psi = psi_profile(f, pe).samples
            section_var = 2.0 ** (1.0 / p)
            assert phi[1] == 0.0 and psi[0] == 0.0
            assert np.allclose(np.delete(phi, 1), section_var, atol=1e-12)
            assert np.allclose(np.delete(psi, 0), section_var, atol=1e-12)
            assert w_p(f, pe) == pytest.approx(2.0 * 4.0 ** (1.0 / p), abs=1e-12)

    def test_series_profile_growth(self):
        pe = Exponent(2.0)
        amps = []
        for M in (2, 4):
            f = gen_series_f(M, pe, 128)
            phi = phi_profile(f, pe).samples
            amp = float(np.max(phi))
            amps.append(amp)
            vprofile = pvar_cyclic(phi_profile(f, pe), pe)[0]
            assert vprofile >= 0.9 * amp * (2 * M) ** 0.5
        # the bump amplitude is independent of the truncation order
        assert amps[0] == pytest.approx(amps[1], abs=1e-12)

    def test_series_vitali_stays_bounded(self):
        pe = Exponent(2.0)
        v4 = vitali_finest(gen_series_f(4, pe, 64), pe)
        v5 = vitali_finest(gen_series_f(5, pe, 128), pe)
        assert v5 <= 1.05 * v4


def _row_pair_lipschitz(f: Grid2, p: Exponent) -> dict:
    """Reference: one pvar_cyclic call per row and per row pair, scanned in
    row-major order; section_lipschitz_check must return exactly its result."""
    rows_var = [pvar_cyclic(f.row(i), p)[0] for i in range(f.m)]
    worst = None
    for i in range(f.m):
        for j in range(i + 1, f.m):
            bound = 2.0 * pvar_cyclic(Grid1(f.samples[j] - f.samples[i]), p)[0]
            margin = bound - abs(rows_var[j] - rows_var[i])
            if worst is None or margin < worst["margin"]:
                worst = {"pair": (i, j), "margin": margin, "bound": bound}
    return worst


class TestSectionsBitwise:
    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("shape", [(2, 5), (7, 4), (9, 9), (48, 40)])
    def test_matches_per_section_calls(self, shape, p):
        """(48, 40) has 1128 difference sections of 40 samples: two lane
        blocks of the chain DP, the second one partial."""
        pe = Exponent(p)
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        for f in (Grid2(rng.normal(size=shape)), Grid2(rng.integers(0, 3, size=shape))):
            assert section_lipschitz_check(f, pe) == _row_pair_lipschitz(f, pe)
            phi = [pvar_cyclic(f.row(i), pe)[0] for i in range(f.m)]
            psi = [pvar_cyclic(f.col(j), pe)[0] for j in range(f.n)]
            assert phi_profile(f, pe).samples.tolist() == phi
            assert psi_profile(f, pe).samples.tolist() == psi
            # every section reader gives the same result on a context,
            # whose first reader computes the row sections the others reuse
            ctx = FieldContext(f)
            assert section_lipschitz_check(ctx, pe) == section_lipschitz_check(f, pe)
            assert phi_profile(ctx, pe).samples.tolist() == phi
            assert psi_profile(ctx, pe).samples.tolist() == psi
            assert w_p(ctx, pe) == w_p(f, pe)
            assert hardy_section_check(ctx, pe) == hardy_section_check(f, pe)


class TestContextSections:
    def test_one_dp_per_axis_across_readers(self, monkeypatch):
        """Every section reader of one context shares its two section DPs."""
        shapes = []

        def counted(a, p):
            shapes.append(a.shape)
            return pvar_rows(a, p)

        pvar_rows = smoothness._pvar_rows
        monkeypatch.setattr(smoothness, "_pvar_rows", counted)
        ctx = FieldContext(Grid2(np.random.default_rng(5).normal(size=(5, 7))))
        pe = Exponent(2.0)
        for _ in range(2):
            phi_profile(ctx, pe)
            psi_profile(ctx, pe)
            w_p(ctx, pe)
            section_lipschitz_check(ctx, pe)
            hardy_section_check(ctx, pe)
        assert shapes == [(5, 7), (7, 5)]

    def test_sections_read_only_and_axis_checked(self):
        ctx = FieldContext(_random_field(0))
        pe = Exponent(1.5)
        assert not ctx.sections(pe, 0).flags.writeable
        assert ctx.sections(pe, 1) is ctx.sections(pe, 1)
        with pytest.raises(ValueError, match="axis"):
            ctx.sections(pe, 2)


class TestMemory:
    def test_section_lipschitz_peak_at_128(self):
        """The 8128 difference sections of a 128^2 field take 8 MiB, and
        forming them briefly takes twice that; the chain DP adds only its
        lane blocks on top (one block of all sections peaks near 56 MiB)."""
        f = Grid2(np.random.default_rng(128).normal(size=(128, 128)))
        tracemalloc.start()
        try:
            section_lipschitz_check(f, Exponent(1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * 2**20


class TestChecks:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_section_lipschitz(self, seed, p):
        r = section_lipschitz_check(_random_field(seed), Exponent(p))
        assert r["margin"] >= -1e-12

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from((1.5, 2.0, 8.0)))
    def test_estimate_ratio_finite(self, seed, p):
        r = w_p_estimate_check(_random_field(seed, side=12), Exponent(p))
        assert not r["skip"]
        assert 0.0 <= r["a_obs"] < 50.0

    def test_estimate_rejects_p1(self):
        with pytest.raises(ValueError):
            w_p_estimate_check(_random_field(0), Exponent(1.0))

    def test_estimate_flags_degenerate_bracket(self):
        flat = Grid2(np.zeros((4, 4)))
        assert w_p_estimate_check(flat, Exponent(2.0))["skip"]
