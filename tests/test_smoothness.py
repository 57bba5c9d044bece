"""Marginal decomposition and certified enclosures of the weighted integrals."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarlab import (
    Enclosure,
    Exponent,
    Grid2,
    chain_check,
    decompose_lp0,
    gen_product,
    gen_sine,
    gen_tent_scaled,
    integral_I,
    integral_J,
    integral_K,
    modulus_1d,
    modulus_iso_2d,
    modulus_mixed,
)
from pvarlab.modulus import ModulusTable1D, ModulusTable2D
from pvarlab.smoothness import FieldContext

P_SMALL = (1.1, 1.5, 2.0, 3.0, 8.0)


def _random_grid2(seed: int, side: int = 12) -> Grid2:
    return Grid2(np.random.default_rng(seed).normal(size=(side, side)))


class TestEnclosure:
    def test_width_and_ordering(self):
        e = Enclosure(1.0, 2.5)
        assert e.width == 1.5
        with pytest.raises(ValueError):
            Enclosure(2.0, 1.0)
        with pytest.raises(ValueError):
            Enclosure(0.0, float("inf"))

    def test_to_dict_carries_meta(self):
        e = Enclosure(0.0, 1.0, {"p": 2.0})
        assert e.to_dict() == {"lo": 0.0, "hi": 1.0, "p": 2.0}


class TestDecomposition:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_reconstruction_and_mean_freeness(self, seed):
        """f = core + phi(x) + psi(y): every cyclic mixed difference of
        f - core vanishes."""
        f = _random_grid2(seed, side=8)
        core = decompose_lp0(f).samples
        rest = f.samples - core
        mixed = rest - np.roll(rest, -1, 0) - np.roll(rest, -1, 1) + np.roll(rest, (-1, -1), (0, 1))
        assert np.allclose(mixed, 0.0, atol=1e-12)
        assert np.max(np.abs(core.mean(axis=0))) < 1e-12
        assert np.max(np.abs(core.mean(axis=1))) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_idempotent(self, seed):
        core = decompose_lp0(_random_grid2(seed, side=8))
        assert np.allclose(decompose_lp0(core).samples, core.samples, atol=1e-12)


class TestFieldContext:
    @staticmethod
    def _field() -> Grid2:
        """A 9x12 field with large marginals, so its core differs from it."""
        rng = np.random.default_rng(17)
        a = rng.normal(size=(9, 12)) + 5.0 * rng.normal(size=(9, 1)) + rng.normal(size=(1, 12))
        return Grid2(a)

    @pytest.mark.parametrize("core_first", (True, False))
    @pytest.mark.parametrize("p", (1.5, 2.0))
    def test_core_reads_the_parents_mixed_table(self, p, core_first):
        """core.mixed(p) is the parent's table, bit for bit modulus_mixed(f, p),
        whichever context asks first; the core's isotropic table is its own."""
        f, pe = self._field(), Exponent(p)
        ctx = FieldContext(f)
        first, second = (ctx.core, ctx) if core_first else (ctx, ctx.core)
        table = first.mixed(pe)
        assert second.mixed(pe) is table and ctx.core.core.mixed(pe) is table
        assert table.values.tobytes() == modulus_mixed(f, pe).values.tobytes()
        core = ctx.core.field
        assert not np.array_equal(core.samples, f.samples)
        assert ctx.core.iso(pe).values.tobytes() == modulus_iso_2d(core, pe).values.tobytes()

    def test_a_core_keeps_no_reference_to_its_parent(self):
        """Without the cycle collector, a context that has read its core's
        mixed table dies on del: the core holds no reference back to it."""
        ctx = FieldContext(self._field())
        ctx.core.mixed(Exponent(2.0))
        ref = weakref.ref(ctx)
        gc.disable()
        try:
            del ctx
            assert ref() is None
        finally:
            gc.enable()


class TestIntegralJ:
    @pytest.mark.parametrize("p", P_SMALL)
    def test_linear_modulus_closed_form(self, p):
        # omega(t) = t gives p'(1 - step^(1/p')) on [step, 1]
        n = 64
        values = np.arange(n + 1) / n
        table = ModulusTable1D(values, Exponent(p), 1.0 / n)
        enc = integral_J(table)
        pc = Exponent(p).conj
        exact = pc * (1.0 - (1.0 / n) ** (1.0 / pc))
        assert enc.lo <= exact + 1e-12
        assert enc.hi >= exact - 1e-12
        assert enc.width <= 0.3 * exact  # widest near p = 1 where the weight peaks

    def test_rejects_p_equal_one(self):
        table = modulus_1d(gen_sine(1, 8), Exponent(1.0))
        with pytest.raises(ValueError):
            integral_J(table)

    def test_monotone_in_the_table(self):
        g = gen_tent_scaled(1, 32)
        pe = Exponent(2.0)
        t = modulus_1d(g, pe)
        bigger = ModulusTable1D(2.0 * t.values, pe, t.step)
        assert integral_J(bigger).lo >= integral_J(t).lo
        assert integral_J(bigger).hi >= integral_J(t).hi


class TestIntegralsKI:
    @pytest.mark.parametrize("p", (1.5, 2.0))
    def test_product_i_factorizes(self, p):
        # separable modulus tables make the double integral a product of 1D ones
        g = gen_sine(1, 16)
        pe = Exponent(p)
        tg = modulus_1d(g, pe)
        table = ModulusTable2D(np.outer(tg.values, tg.values), pe, (tg.step, tg.step))
        enc = integral_I(table)
        j = integral_J(tg)
        assert enc.lo <= j.hi * j.hi + 1e-9
        assert enc.hi >= j.lo * j.lo - 1e-9

    def test_k_is_sum_of_boundary_js(self):
        f = _random_grid2(3, side=8)
        pe = Exponent(2.0)
        t = modulus_mixed(f, pe)
        enc = integral_K(t)
        ju = integral_J(ModulusTable1D(t.values[:, -1], pe, t.steps[0]))
        jv = integral_J(ModulusTable1D(t.values[-1, :], pe, t.steps[1]))
        assert enc.lo == pytest.approx(ju.lo + jv.lo)
        assert enc.hi == pytest.approx(ju.hi + jv.hi)

    def test_domain_recorded(self):
        f = _random_grid2(4, side=8)
        enc = integral_I(modulus_mixed(f, Exponent(2.0)))
        assert enc.meta["domain"]["u_min"] == pytest.approx(1.0 / 8.0)


class TestRefinement:
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_enclosures_nest_under_quadrature_refinement(self, p):
        pe = Exponent(p)
        fine = modulus_1d(gen_sine(1, 128), pe)
        coarse = ModulusTable1D(fine.values[::2], pe, 2.0 * fine.step)
        ec = integral_J(coarse)
        ef = integral_J(fine, t_min=coarse.step)
        assert ef.lo >= ec.lo - 1e-12
        assert ef.hi <= ec.hi + 1e-12
        assert ef.width <= 0.6 * ec.width


class TestChain:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_SMALL))
    def test_chain_on_random_fields(self, seed, p):
        rows = chain_check(_random_grid2(seed), Exponent(p))
        assert {r["id"] for r in rows} == {
            "K_le_4I_over_pconj",
            "omega11_le_4I_over_pconj_sq",
            "J_core_le_3K_core",
        }
        for r in rows:
            assert r["pass"], r

    def test_chain_rejects_p1(self):
        with pytest.raises(ValueError):
            chain_check(_random_grid2(0), Exponent(1.0))

    @pytest.mark.parametrize("p", (1.5, 3.0))
    def test_chain_on_products(self, p):
        f = gen_product(gen_sine(1, 16), gen_tent_scaled(2, 16))
        for r in chain_check(f, Exponent(p)):
            assert r["pass"], r
