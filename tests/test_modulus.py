"""L^p moduli of continuity: tables, invariants and the difference lemmas."""

import contextlib
import functools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import needs_avx512, other_dispatch_env
from pvarlab import (
    Exponent,
    Grid1,
    Grid2,
    ModulusTable1D,
    gen_product,
    gen_sine,
    gen_staircase,
    gen_tent_scaled,
    hardy_littlewood_check,
    integral_J,
    lp_norm,
    modulus_1d,
    modulus_iso_2d,
    modulus_mixed,
)
from pvarlab import modulus
from pvarlab.modulus import (
    _BLOCK,
    _POW32,
    _TAU,
    _V,
    _abs_pow,
    _f32_bounds,
    _l2_bounds,
    _l2_estimate,
    _norm,
    _prefix_max,
    _prefix_max_table,
    _shift_norm_table,
    averaged_modulus_check,
    diff_modulus_bound_check,
    omega_sandwich_check,
)
from pvarlab.pvar1d import _U, _pow32_roundings
from pvarlab.vitali2d import vitali_finest

P_VALUES = (1.0, 1.5, 2.0, 3.0)


# The per-shift reference norms; _shift_norm_table matches them bit for bit.
def shift_norm_1d(g: Grid1, s: int, p: Exponent) -> float:
    """||f(. + s/N) - f||_p, exact on the grid."""
    a = g.samples
    return _norm(np.roll(a, -s) - a, p.p)


def mixed_diff_norm(f: Grid2, s_idx: int, t_idx: int, p: Exponent) -> float:
    """L^p norm of the doubly-circular mixed difference at shift (s/M, t/N)."""
    a = f.samples
    ds = np.roll(a, -s_idx, axis=0) - a
    return _norm(np.roll(ds, -t_idx, axis=1) - ds, p.p)


def _random_grid1(seed: int, n: int = 16) -> Grid1:
    return Grid1(np.random.default_rng(seed).normal(size=n))


def _random_grid2(seed: int, side: int = 10) -> Grid2:
    return Grid2(np.random.default_rng(seed).normal(size=(side, side)))


class TestNorms:
    def test_lp_norm_values(self):
        g = Grid1(np.array([3.0, -4.0]))
        assert lp_norm(g, 1.0) == pytest.approx(3.5)
        assert lp_norm(g, 2.0) == pytest.approx(math.sqrt(12.5))
        assert lp_norm(g, math.inf) == 4.0

    def test_shift_norm_periodic_wrap(self):
        g = Grid1(np.array([1.0, 0.0, 0.0, 0.0]))
        assert shift_norm_1d(g, 1, Exponent(1.0)) == pytest.approx(0.5)
        assert shift_norm_1d(g, 0, Exponent(1.0)) == 0.0

    def test_mixed_diff_norm_checkerboard(self):
        f = Grid2(np.array([[1.0, 0.0], [0.0, 1.0]]))
        # all four mixed differences have magnitude 2
        assert mixed_diff_norm(f, 1, 1, Exponent(1.0)) == pytest.approx(2.0)

    def test_mixed_diff_norm_separable(self):
        # for g(x)h(y) the mixed difference factors into two first differences
        g = gen_sine(1, 8)
        h = gen_tent_scaled(1, 8)
        f = gen_product(g, h)
        for p in (1.0, 2.0):
            pe = Exponent(p)
            lhs = mixed_diff_norm(f, 2, 3, pe)
            rhs = shift_norm_1d(g, 2, pe) * shift_norm_1d(h, 3, pe)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTables:
    def test_square_wave_modulus_is_linear(self):
        n = 16
        g = Grid1(np.r_[np.ones(n // 2), -np.ones(n // 2)])
        t = modulus_1d(g, Exponent(1.0))
        for k in range(n // 2 + 1):
            assert t.values[k] == pytest.approx(min(4.0 * k / n, 2.0))

    def test_sine_modulus_bound(self):
        g = gen_sine(2, 32)
        t = modulus_1d(g, Exponent(2.0))
        for k, v in enumerate(t.values):
            assert v <= 2.0 * math.pi * min(1.0, 2.0 * k / 32) + 1e-9

    def test_mixed_table_factorizes_for_products(self):
        g = gen_sine(1, 8)
        h = gen_tent_scaled(2, 8)
        pe = Exponent(2.0)
        tf = modulus_mixed(gen_product(g, h), pe)
        tg = modulus_1d(g, pe)
        th = modulus_1d(h, pe)
        assert np.allclose(tf.values, np.outer(tg.values, th.values), atol=1e-12)

    def test_cap_refused_without_override(self):
        f = Grid2(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            modulus_mixed(f, Exponent(2.0), cap=3)
        modulus_mixed(f, Exponent(2.0), cap=4)

    def test_iso_table_arguments(self):
        f = _random_grid2(0, side=6)
        t = modulus_iso_2d(f, Exponent(2.0))
        assert t.values.size - 1 == 6
        assert t.values[0] == 0.0

    @staticmethod
    def _iso_index_loop(m: int, K: int) -> list[int]:
        """Reference shift indices of delta = k/K on a side of m: a float
        floor nudged by 1e-9 and clamped to m."""
        return [min(m, int(math.floor(k / K * m + 1e-9))) for k in range(K + 1)]

    def test_iso_indices_are_integer_quotients(self):
        # a side's index depends on that side and K = max(M, N) only, so
        # every side m <= K <= 128 covers all M, N <= 128
        for K in range(1, 129):
            ks = np.arange(K + 1)
            for m in range(1, K + 1):
                assert (ks * m // K).tolist() == self._iso_index_loop(m, K), (m, K)

    @pytest.mark.parametrize("shape", [(8, 12), (31, 17), (64, 64)])
    def test_iso_table_equals_indexing_loop(self, shape):
        m, n = shape
        f = Grid2(np.random.default_rng(m * n).normal(size=shape))
        pe = Exponent(1.5)
        raw = _shift_norm_table(f.samples, pe.p)
        pmax = np.maximum.accumulate(np.maximum.accumulate(raw, axis=0), axis=1)
        K = max(m, n)
        expected = pmax[self._iso_index_loop(m, K), self._iso_index_loop(n, K)]
        assert (modulus_iso_2d(f, pe).values == expected).all()

    @pytest.mark.xfail(
        strict=True,
        reason="the isotropic table maxes over the quadrant [0, delta]^2 of "
        "shifts and its central mirror, not the whole ball",
    )
    def test_iso_table_is_the_sup_over_the_ball(self):
        """omega_iso(k/32) against the largest shift norm over every h with
        |h| <= k/32 in the cyclic sup norm, on f = sin 2 pi (x - y), 32^2,
        p = 2.  The table gives 0.1386 at k = 1 (the ball: 0.2759) and 1.0
        at k = 8 (the ball: 1.414): it misses the shifts (s, -t), (-s, t)."""
        n = 32
        x = np.arange(n) / n
        a = np.sin(2 * np.pi * (x[:, None] - x[None, :]))
        norms = np.array(
            [[_norm(np.roll(a, (-s, -t), (0, 1)) - a, 2.0) for t in range(n)] for s in range(n)]
        )
        dist = np.minimum(np.arange(n), n - np.arange(n))  # cyclic shift length in samples
        reach = np.maximum.outer(dist, dist)
        ball = [float(norms[reach <= k].max()) for k in range(n + 1)]
        table = modulus_iso_2d(Grid2(a), Exponent(2.0)).values.tolist()
        assert table == pytest.approx(ball, rel=1e-12)


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_monotone_and_doubling(self, seed, p):
        t = modulus_1d(_random_grid1(seed), Exponent(p)).values
        assert np.all(np.diff(t) >= -1e-15)
        for k in range(1, (t.size - 1) // 2 + 1):
            assert t[2 * k] <= 2.0 * t[k] + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_subadditive_in_delta(self, seed, p):
        t = modulus_1d(_random_grid1(seed), Exponent(p)).values
        n = t.size - 1
        for a in range(1, n):
            for b in range(1, n - a):
                assert t[a + b] <= t[a] + t[b] + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_bounded_by_twice_norm(self, seed, p):
        g = _random_grid1(seed)
        t = modulus_1d(g, Exponent(p)).values
        assert t[-1] <= 2.0 * lp_norm(g, p) + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_mixed_table_coordinatewise_monotone(self, seed, p):
        f = _random_grid2(seed, side=6)
        t = modulus_mixed(f, Exponent(p)).values
        assert np.all(np.diff(t, axis=0) >= -1e-15)
        assert np.all(np.diff(t, axis=1) >= -1e-15)
        assert np.all(t[0, :] == 0.0) and np.all(t[:, 0] == 0.0)


class TestLemmas:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_averaged_modulus(self, seed, p):
        r = averaged_modulus_check(_random_grid1(seed), Exponent(p))
        assert r["min_margin"] >= -1e-12

    @pytest.mark.parametrize("n", (2, 9, 64))
    def test_averaged_modulus_integrals_are_trapezoid_bits(self, n):
        g = _random_grid1(n, n)
        for p in (1.0, 1.5, 2.0):
            norms = _shift_norm_table(g.samples[None, :], p)[0]
            rows = averaged_modulus_check(g, Exponent(p))["rows"]
            for k, row in enumerate(rows, 1):
                integral = float(np.trapezoid(norms[: k + 1], dx=1.0 / n))
                assert row["rhs"] == 3.0 / (k / n) * integral

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from((1.5, 2.0)),
        st.integers(1, 5),
        st.sampled_from(((6, 6), (6, 9), (10, 16))),
    )
    @example(seed=11, p=2.0, h_idx=3, shape=(6, 9))
    def test_first_difference_bounds(self, seed, p, h_idx, shape):
        """Square and non-square grids.  On the 6 x 9 example the row shift
        h = 3/6 is first reached by the isotropic ball of radius 5/9
        (k = ceil(h K / M)); the ball of radius 4/9 reaches only the row
        shift 2/6, and a bound read there is too small."""
        f = Grid2(np.random.default_rng(seed).normal(size=shape))
        r = diff_modulus_bound_check(f, h_idx, Exponent(p))
        assert r["mixed_min_margin"] >= -1e-12
        assert r["iso_min_margin"] >= -1e-12

    @pytest.mark.parametrize("h_idx", [9, -1])
    def test_first_difference_rejects_shift_outside_grid(self, h_idx):
        with pytest.raises(ValueError, match="h_idx"):
            diff_modulus_bound_check(_random_grid2(0, side=8), h_idx, Exponent(2.0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_omega_sandwich(self, seed, p):
        r = omega_sandwich_check(_random_grid1(seed), Exponent(p))
        assert r["lower_margin"] >= -1e-12
        assert r["upper_margin"] >= -1e-12


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


class _CountedTable(np.ndarray):
    """A float table that counts the assignments made to each of its entries."""

    def __setitem__(self, key, value):
        np.add.at(self.writes, key, 1)
        super().__setitem__(key, value)


class _NumpyCountingTables:
    """numpy, except that zeros() hands out counted tables and keeps them."""

    def __init__(self):
        self.tables = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        table = np.zeros(shape, dtype).view(_CountedTable)
        table.writes = np.zeros(shape, dtype=int)
        self.tables.append(table)
        return table


def _per_shift_table(a: np.ndarray, p: float, mixed: bool, rows=None) -> np.ndarray:
    """The rows of the kernel's table from one np.roll difference per shift.

    The mixed entries repeat the operations of mixed_diff_norm, which needs a
    Grid2 and so no length-1 axis.
    """
    m, n = a.shape
    rows = range(m + 1) if rows is None else rows
    want = []
    for s in rows:
        if mixed:
            ds = np.roll(a, -s, axis=0) - a
            want.append([_norm(np.roll(ds, -t, axis=1) - ds, p) for t in range(n + 1)])
        else:
            want.append([_norm(np.roll(a, (-s, -t), axis=(0, 1)) - a, p) for t in range(n + 1)])
    return np.array(want)


KERNEL_SHAPES = (
    (1, 1), (1, 9), (9, 1), (5, 7), (7, 5), (40, 48),
    (2, 2), (1, 8), (8, 1), (6, 8), (7, 6), (6, 9), (8, 6),
)
TABLE_SHAPES = tuple((m, n) for m, n in KERNEL_SHAPES if m >= 2 and n >= 2) + (
    (5, 12), (12, 5), (33, 8), (5, 9),
)
TABLE_FIELD_KINDS = ("normal", "012", "01", "rounded")


def _table_fields(m: int, n: int):
    """The TABLE_FIELD_KINDS fields: a Gaussian one and three that tie often,
    {0, 1, 2}-valued, 30 % {0, 1} and 0.1-rounded."""
    rng = np.random.default_rng(m * 1000 + n + 7)
    yield rng.normal(size=(m, n))
    yield rng.integers(0, 3, size=(m, n)).astype(float)
    yield (rng.random((m, n)) < 0.3).astype(float)
    yield np.round(rng.normal(size=(m, n)), 1)


def _range_end_fields() -> dict:
    """Sums that overflow (big), means below 2^-1022 (tiny and the subnormal
    steps) and a constant field.  On the 4x2 big field at p = 1 the plain sum
    of shift (3, 0) overflows while that of its partner (1, 0), over the
    same terms, does not."""
    rng = np.random.default_rng(3)
    big = np.array([
        [2.2471164185778944e307, 2.2471164185778911e307],
        [2.2471164185760063e307, -2.247114263003939e307],
        [-2.247116418577895e307, -2.247116418577895e307],
        [2.2471164104519827e307, 2.2471164185778944e307],
    ])
    tiny = rng.normal(size=(6, 7)) * 1e-300
    steps = rng.integers(0, 3, size=(5, 8)) * 5e-324
    return {"big": big, "tiny": tiny, "steps": steps, "constant": np.full((6, 6), 0.5)}


class TestKernelBitwise:
    """The batched kernel against the per-shift np.roll norms, compared with ==.

    Every KERNEL_SHAPES shape is checked on a Gaussian and on a {0, 1, 2}-valued field; the
    latter has many exactly tied differences.  Even and odd M and N hit the
    self-mirrored shifts s = M/2 and t = N/2 or miss them; 1 x N and M x 1 leave
    one axis without shifts; 40x48 spans many windows per block.
    """

    P_KERNEL = (1.0, 1.1, 1.5, 2.0, 3.0, 8.0)

    @staticmethod
    def _fields(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(m * 1000 + n)
        return rng.normal(size=(m, n)), rng.integers(0, 3, size=(m, n)).astype(float)

    @staticmethod
    def _samples(m: int, n: int) -> np.ndarray:
        return TestKernelBitwise._fields(m, n)[0]

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("p", P_KERNEL)
    def test_plain_table(self, shape, p):
        for a in self._fields(*shape):
            want = _per_shift_table(a, p, mixed=False)
            assert np.array_equal(_bits(_shift_norm_table(a, p)), _bits(want))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("p", P_KERNEL)
    def test_mixed_table(self, shape, p):
        m, n = shape
        for a in self._fields(*shape):
            raw = _shift_norm_table(a, p, mixed=True)
            if m >= 2 and n >= 2:
                f, pe = Grid2(a), Exponent(p)
                want = [[mixed_diff_norm(f, s, t, pe) for t in range(n + 1)] for s in range(m + 1)]
                table = np.maximum.accumulate(np.maximum.accumulate(raw, axis=0), axis=1)
                assert np.array_equal(_bits(modulus_mixed(f, pe).values), _bits(table))
            else:
                # a length-1 axis makes every mixed difference vanish
                want = np.zeros((m + 1, n + 1))
            assert np.array_equal(_bits(raw), _bits(want))

    @pytest.mark.parametrize(
        "shape, p, mixed",
        [((90, 182), 2.0, False), ((92, 178), 1.0, True)],
        ids=["plain", "mixed"],
    )
    def test_full_size_blocks_of_two_windows(self, shape, p, mixed):
        """M*N just under _BLOCK/2, so every block holds two row shifts.

        Blocks start at s = 0 (plain) or s = 1 (mixed), so with these M one
        block holds both M/2 - 1 and the self-mirrored M/2.  Those rows, the
        mirror M/2 + 1 of M/2 - 1 and the mirror M - 1 of row 1 are compared
        in full.
        """
        m, n = shape
        a = self._samples(m, n)
        assert _BLOCK // a.size == 2
        rows = (m // 2 - 1, m // 2, m // 2 + 1, m - 1)
        raw = _shift_norm_table(a, p, mixed)
        want = _per_shift_table(a, p, mixed, rows)
        assert np.array_equal(_bits(raw[list(rows)]), _bits(want))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from(P_KERNEL),
        st.booleans(),
        st.booleans(),
        st.sampled_from((1, 2, 3, None)),
        st.integers(0, 2**32 - 1),
    )
    # blocks whose edges fall on both sides of M/2: plain self-mirrored
    # columns take s = 0..3 in blocks {0, 1}, {2, 3}; mixed rows s = 1..4 in
    # blocks {1, 2}, {3, 4}
    @example(6, 8, 1.5, False, False, 2, 0)
    @example(8, 6, 1.5, True, False, 2, 0)
    @example(7, 6, 2.0, True, True, 1, 0)
    @example(9, 1, 1.0, False, False, 2, 0)
    @example(1, 9, 2.0, False, True, 3, 0)
    @example(2, 2, 1.0, True, False, 1, 0)
    def test_every_entry_written_once(self, m, n, p, mixed, ties, windows, seed):
        """Each entry is assigned exactly once and equals its per-shift norm.

        windows shrinks _BLOCK so that a block holds one, two or three row
        shifts, as at 256^2 and 128^2.  Only the mixed row 0 and column 0
        are never assigned; they keep the zeros the table starts with.  Row
        M and column N are assigned once, by the wrap from row 0 and column 0.
        """
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=(m, n)).astype(float) if ties else rng.normal(size=(m, n))
        counting = _NumpyCountingTables()
        block = _BLOCK if windows is None else windows * m * n
        with mock.patch.object(modulus, "np", counting), mock.patch.object(modulus, "_BLOCK", block):
            raw = _shift_norm_table(a, p, mixed)
        (table,) = counting.tables
        want_writes = np.ones(table.shape, dtype=int)
        if mixed:
            rows, cols = table.shape
            want_writes[0, : cols - 1] = 0
            want_writes[: rows - 1, 0] = 0
        assert np.array_equal(table.writes, want_writes)
        assert np.array_equal(_bits(raw), _bits(_per_shift_table(a, p, mixed)))

    @pytest.mark.parametrize("n", (2, 9, 48))
    @pytest.mark.parametrize("p", P_VALUES)
    def test_modulus_1d(self, n, p):
        """The (N, 1) column the 1-D callers pass and the (1, N) row both give
        the per-shift norms, and modulus_1d, which evaluates only the shifts
        whose bound reaches the running max, gives their prefix max, also
        with every partner through the float32 pass (_built).  On a
        Gaussian, a {0, 1, 2}-valued, a 0.1-rounded and a constant input."""
        normal, ties = (x[0] for x in self._fields(1, n))
        pe = Exponent(p)
        for samples in (normal, ties, np.round(normal, 1), np.full(n, 0.5)):
            g = Grid1(samples)
            norms = [shift_norm_1d(g, s % n, pe) for s in range(n + 1)]
            assert np.array_equal(_bits(_shift_norm_table(samples[None, :], p)[0]), _bits(norms))
            assert np.array_equal(_bits(_shift_norm_table(samples[:, None], p)[:, 0]), _bits(norms))
            want = np.maximum.accumulate(norms)
            for path, patch in _built(p):
                with patch:
                    table = modulus_1d(g, pe)
                assert np.array_equal(_bits(table.values), _bits(want)), path
            if p > 1.0:  # np.dot in the enclosure sums a strided table in another order
                assert integral_J(table) == integral_J(ModulusTable1D(want, pe, 1.0 / n))

    @pytest.mark.parametrize(
        "a",
        [
            pytest.param(a, id=f"{m}x{n}-{kind}")
            for m, n in TABLE_SHAPES
            for kind, a in zip(TABLE_FIELD_KINDS, _table_fields(m, n))
        ]
        + [pytest.param(a, id=k) for k, a in _range_end_fields().items() if k != "big"],
    )
    def test_hardy_littlewood_matches_per_shift_loop(self, a):
        """sup_ratio, read from the p = 1 mixed table, against the largest
        ratio over every shift, on the table fields and the tiny, subnormal-
        step and constant fields.  No mirror can set the largest ratio: its
        norm lies within a factor 1 + w of its partner's, and its u v is
        larger by a factor of at least 1 + 2/max(M, N)."""
        f = Grid2(a)
        m, n = a.shape
        s_best = 0.0
        for s in range(1, m):
            ds = np.roll(a, -s, axis=0) - a
            u = s / m
            for t in range(1, n):
                d = np.roll(ds, -t, axis=1) - ds
                val = float(np.mean(np.abs(d))) / (u * (t / n))
                if val > s_best:
                    s_best = val
        r = hardy_littlewood_check(f)
        assert r["sup_ratio"] == s_best
        assert r["v1_finest"] == vitali_finest(f, Exponent(1.0))


def _l2_fields() -> dict:
    """Fields on which the p = 2 bounds of _l2_bounds work hard: transform
    lengths that are not powers of two (33 x 40; 127, a prime), (N, 1)
    columns as modulus_1d passes them, a mean offset that cancels in every
    difference, a separable field whose mixed differences cancel down to
    1e-9, rare spikes over tiny noise, fields that tie often and the 32^2
    staircase."""
    rng = np.random.default_rng(28)
    x = np.arange(24) / 24
    y = np.arange(18) / 18
    spikes = 1e-3 * rng.normal(size=(24, 20))
    spikes[rng.random((24, 20)) < 0.01] = 1e6
    spikes[3, 7] = 1e6
    return {
        "normal-33x40": rng.normal(size=(33, 40)),
        "normal-127x5": rng.normal(size=(127, 5)),
        "column-97": rng.normal(size=(97, 1)),
        "column-256-rounded": np.round(rng.normal(size=(256, 1)), 1),
        "offset": 1e8 + rng.normal(size=(16, 18)),
        "separable": np.sin(2 * np.pi * x)[:, None]
        + np.cos(4 * np.pi * y)[None, :] ** 3
        + 1e-9 * rng.normal(size=(24, 18)),
        "spikes": spikes,
        "rounded": np.round(rng.normal(size=(20, 21)), 1),
        "012": rng.integers(0, 3, size=(19, 16)).astype(float),
        "staircase": gen_staircase(32).samples,
    }


L2_FIELDS = _l2_fields()
RANGE_END_FIELDS = _range_end_fields()  # with the constant field
# The p at which the tables bound the partners that the p = 2 bounds leave
# out with the float32 pass.
P_F32 = tuple(p for p in TestKernelBitwise.P_KERNEL if p != 2.0)
# Non-square fields, on which a float32 mixed window that swapped M and N
# would read the wrong differences.  57x59, M*N = 3363, has a tail of 3
# terms past the stacks of modulus._row_norms, as 5x7 and 7x5 have.
NON_SQUARE_FIELDS = {
    f"normal-{m}x{n}": np.random.default_rng(m * 100 + n).normal(size=(m, n))
    for m, n in ((5, 7), (7, 5), (40, 56), (56, 40), (57, 59))
}


def _keeping(hi: float):
    """A stand-in for _l2_bounds that gives every shift the upper bound hi."""
    return lambda a, mixed: (np.zeros(a.shape), np.full(a.shape, hi))


# The ways a table is built, each by the stand-in for _l2_bounds that it
# patches in: as built (None); every partner through the float32 pass, the
# first filter keeping no shift, which at p = 2 would leave the table empty;
# and every shift kept by the first filter.
TABLE_PATHS = {
    "as-built": None,
    "f32-every-partner": _keeping(-math.inf),
    "keep-every-shift": _keeping(math.inf),
}
DEFAULT_PATHS = ("as-built", "f32-every-partner")


def _built(p: float, paths=DEFAULT_PATHS):
    """(name, context) of each of the named TABLE_PATHS that applies at p:
    the tables built in that context take that path."""
    for path in paths:
        stand_in = TABLE_PATHS[path]
        if stand_in is None:
            yield path, contextlib.nullcontext()
        elif p != 2.0 or path != "f32-every-partner":
            yield path, mock.patch.object(modulus, "_l2_bounds", stand_in)


# The (shape, bytes, p, path) of each table that _check has compared in this
# process.  The staircase and the range-end fields at p = 2 each belong to two
# tests; whichever runs second builds nothing again.
_COMPARED: set = set()


@functools.cache
def _listed_at_64(p: float) -> tuple[dict, dict]:
    """Per table built at p on three Gaussian 64^2 fields, plain (False) and
    mixed (True): the mirrored shifts among those it lists to _shift_norms,
    and the number of shifts it lists, one entry per call."""
    counts = {True: [], False: []}
    listed = {True: [], False: []}

    def counted(a, p, mixed, rows, cols):
        mirror = modulus._mirrors(*a.shape, mixed)[3]
        counts[mixed].append(int(mirror[rows, cols].sum()))
        listed[mixed].append(len(rows))
        return shift_norms(a, p, mixed, rows, cols)

    shift_norms = modulus._shift_norms
    with mock.patch.object(modulus, "_shift_norms", counted):
        for seed in range(3):
            f = Grid2(np.random.default_rng(seed).normal(size=(64, 64)))
            modulus_mixed(f, Exponent(p))
            modulus_iso_2d(f, Exponent(p))
    return counts, listed


@pytest.fixture(scope="module")
def other_dispatch_run():
    """The nodes below run once more, in one fresh process with numpy's AVX-512
    power loops disabled (ROADMAP item 12), without the 128^2 field: float64
    power runs about 5x slower there.  Every node is named, so a missing one
    ends the child with code 4, and -rfE lists each node that fails."""
    nodes = [f"tests/{Path(__file__).name}::{node}" for node in (
        "TestTwoPassTables::test_matches_per_shift_prefix_max_at_p2",
        "TestTwoPassTables::test_matches_at_the_ends_of_the_float_range[2.0]",
        "TestF32Bounds::test_bounds_hold",
        "TestF32Bounds::test_float32_power_is_within_the_assumed_error",
        "TestF32Bounds::test_sqrt_and_multiply_power_is_within_the_derived_error",
        "TestF32Bounds::test_float64_power_is_within_one_ulp",
    )]
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "-k", "not normal-128"]
    return subprocess.run([*cmd, *nodes], cwd=Path(__file__).resolve().parents[1],
                          env=other_dispatch_env(), capture_output=True, text=True)


def _passed_under_the_other_dispatch(run, cls: str) -> None:
    """The child process of other_dispatch_run finished (code 1: some node
    failed), and no node of cls failed in it."""
    failed = [line for line in run.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR")) and f"::{cls}::" in line]
    assert run.returncode in (0, 1) and not failed, run.stdout[-3000:] + run.stderr[-3000:]


class TestTwoPassTables:
    """modulus_mixed and modulus_iso_2d against the prefix max of the per-shift
    norms, compared with == on bits.

    The tables are built from the evaluated shifts: at p = 2 only the
    shifts that the autocorrelation bounds keep; at other p the partners
    that those bounds keep and then only the shifts whose float32 or
    mirror bounds can set a maximum.  _check computes the references once and
    builds each table once by each of the paths it is given (_built), skipping
    the paths that it has compared on the same field and p (_COMPARED).  Ties
    between a mirror and its partner need the exact mirror: the {0, 1, 2}-valued,
    {0, 1}-valued and 0.1-rounded fields tie often, and a 0.1-rounded 5x9 mixed
    table at p = 1 needs the bound's width (see _partner_bounds) to keep its bits.
    """

    @staticmethod
    def _check(a: np.ndarray, p: float, paths=DEFAULT_PATHS) -> None:
        key = (a.shape, a.tobytes(), p)
        todo = [(path, patch) for path, patch in _built(p, paths) if (*key, path) not in _COMPARED]
        if not todo:
            return
        f, pe = Grid2(a), Exponent(p)
        mixed = _prefix_max(_per_shift_table(a, p, mixed=True))
        plain = _prefix_max(_per_shift_table(a, p, mixed=False))
        K = max(f.m, f.n)
        ks = np.arange(K + 1)
        iso = plain[ks * f.m // K, ks * f.n // K]
        for path, patch in todo:
            with patch:
                assert np.array_equal(_bits(modulus_mixed(f, pe).values), _bits(mixed)), path
                full = _prefix_max_table(a, p, mixed=False)
                assert np.array_equal(_bits(full), _bits(plain)), path
                assert np.array_equal(_bits(modulus_iso_2d(f, pe).values), _bits(iso)), path
            _COMPARED.add((*key, path))

    @pytest.mark.parametrize("shape", TABLE_SHAPES)
    @pytest.mark.parametrize("p", TestKernelBitwise.P_KERNEL)
    def test_matches_per_shift_prefix_max(self, shape, p):
        for a in _table_fields(*shape):
            self._check(a, p)

    @pytest.mark.parametrize("p", TestKernelBitwise.P_KERNEL)
    def test_matches_per_shift_prefix_max_on_the_staircase(self, p):
        """32^2 staircase: 225 of the 256 evaluated mixed windows tie the
        running maximum.  At p = 2 it is also one of the L2_FIELDS."""
        self._check(gen_staircase(32).samples, p)

    @pytest.mark.parametrize("shape, seed", [((5, 9), 26), ((10, 6), 10), ((7, 6), 31)])
    @pytest.mark.parametrize("p", TestKernelBitwise.P_KERNEL)
    def test_matches_where_a_mirror_rounds_above_its_partner(self, shape, seed, p):
        """0.1-rounded fields (mixed, plain, mixed table) on which, at p = 1,
        a bound without its width, w = 0, leaves out a mirror that sets a
        maximum when its partner is evaluated in float64: 11 of about
        87,000 tables of sides 2-12 were such.  The p = 2 bounds keep too
        few partners here, so the tables are also built keeping them all."""
        m, n = shape
        rng = np.random.default_rng(seed * 10007 + m * 1000 + n)
        self._check(np.round(rng.normal(size=shape), 1), p, TABLE_PATHS)

    @pytest.mark.parametrize("name", NON_SQUARE_FIELDS)
    @pytest.mark.parametrize("p", P_F32)
    def test_matches_on_non_square_fields_through_the_f32_pass(self, name, p):
        """The NON_SQUARE_FIELDS at the p of P_F32, through each of
        DEFAULT_PATHS.  With every partner through the float32 pass, each mixed
        partner is bounded from the transposed float32 windows of
        modulus._shift_norms, so windows that swapped M and N fail here."""
        self._check(NON_SQUARE_FIELDS[name], p)

    @pytest.mark.parametrize("shape", [(5, 7), (6, 8), (33, 8)])
    @pytest.mark.parametrize("windows", [1, 3, None])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_re_evaluation_matches_per_shift_norms(self, shape, windows, mixed):
        """_shift_norms in buffers of one, three or _BLOCK // (M N) shifts,
        against the per-shift norms, on lists of shifts of any shape: every
        shift of the table, the partners, the mirrors, and seeded sparse
        subsets in shuffled order, whose runs of consecutive windows split
        at group and buffer boundaries."""
        m, n = shape
        _, _, partner, mirror = modulus._mirrors(m, n, mixed)
        rng = np.random.default_rng(m * 100 + n)
        everything = np.arange(m * n)
        flats = [everything, np.flatnonzero(partner), np.flatnonzero(mirror)]
        for size in (1, 2, m * n // 7 + 1, m * n // 2):
            flats.append(rng.permutation(rng.choice(everything, size, replace=False)))
        block = _BLOCK if windows is None else windows * m * n
        for a in TestKernelBitwise._fields(m, n):
            for p in TestKernelBitwise.P_KERNEL:
                want = _per_shift_table(a, p, mixed)[:m, :n].ravel()
                for flat in flats:
                    rows, cols = np.divmod(flat, n)
                    with mock.patch.object(modulus, "_BLOCK", block):
                        got = modulus._shift_norms(a, p, mixed, rows, cols)
                    assert np.array_equal(_bits(got), _bits(want[flat]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", TestKernelBitwise.P_KERNEL)
    def test_matches_at_the_ends_of_the_float_range(self, p):
        """The _range_end_fields: sums that overflow, means below 2^-1022,
        subnormal steps and a constant field.  Their p = 2 bounds keep
        every partner, so at p != 2 only the path with every partner
        through the float32 pass bounds any."""
        for a in _range_end_fields().values():
            self._check(a, p)

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_few_mirrors_are_re_evaluated(self, p):
        """Fewer than 1 % of the mirrored entries are re-evaluated on Gaussian
        64^2 fields, so a width that is too loose fails here.

        Tie-heavy fields cost more: on the 32^2 staircase 240 of the 705
        mirrored mixed entries are re-evaluated.

        A table lists its partners too, in calls of their own at p != 2 and
        with the mirrors that its bounds keep at p = 2; only the mirrors
        among the listed shifts are counted.  At p != 2 a table bounds the
        partners that the p = 2 bounds leave out, most of them on these
        fields, with the float32 pass, whose call lists partners only.
        """
        counts = _listed_at_64(p)[0]
        mirrored = {True: 63 * 63 - 32 * 32, False: 31 * 64 + 2 * 31}  # at 64^2
        for mixed, total in mirrored.items():
            assert max(counts[mixed]) < 0.01 * total, counts

    def test_few_shifts_are_evaluated_at_p2(self):
        """At p = 2 a table makes one call to _shift_norms on Gaussian 64^2
        fields, which lists fewer than 2 % of its shifts: the bounds leave out
        the partners as well as the mirrors.  The tables are those of
        test_few_mirrors_are_re_evaluated[2.0] (_listed_at_64)."""
        listed = _listed_at_64(2.0)[1]
        assert len(listed[True]) == len(listed[False]) == 3, listed
        assert max(listed[True]) < 0.02 * 63 * 63, listed
        assert max(listed[False]) < 0.02 * 64 * 64, listed

    def test_peak_memory_at_the_cap(self):
        """The tracemalloc peaks of the 128^2 tables at p = 1.5 and p = 2 stay
        within 5 % of 1.88 and 1.51 MiB, the peaks at p = 1.5 of a kernel
        that evaluated every mirror: evaluating the partners and a few
        mirrors, or at p = 2 the autocorrelation and the few shifts its
        bounds keep, must not add to them."""
        f = Grid2(np.random.default_rng(5).normal(size=(128, 128)))
        for p in (1.5, 2.0):
            for table, limit in ((modulus_mixed, 1.88), (modulus_iso_2d, 1.51)):
                tracemalloc.start()
                try:
                    table(f, Exponent(p))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1.05 * limit * 2**20, (table.__name__, p, peak)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", list(L2_FIELDS) + list(RANGE_END_FIELDS))
    def test_matches_per_shift_prefix_max_at_p2(self, name):
        """The L2_FIELDS and the range-end fields at p = 2, where the tables
        evaluate only the shifts that the bounds of _l2_bounds keep.  _check
        takes no (N, 1) column, as modulus_1d passes them: those are compared
        here."""
        a = {**L2_FIELDS, **RANGE_END_FIELDS}[name]
        if a.shape[1] > 1:
            self._check(a, 2.0)
            return
        for mixed in (False, True):
            want = _prefix_max(_per_shift_table(a, 2.0, mixed))
            assert np.array_equal(_bits(_prefix_max_table(a, 2.0, mixed)), _bits(want))
        g, pe = Grid1(a[:, 0]), Exponent(2.0)
        norms = [shift_norm_1d(g, s % g.n, pe) for s in range(g.n + 1)]
        assert np.array_equal(_bits(modulus_1d(g, pe).values), _bits(np.maximum.accumulate(norms)))

    @needs_avx512
    def test_matches_at_p2_under_the_other_simd_dispatch(self, other_dispatch_run):
        """The p = 2 bit comparisons above, once more under the other dispatch
        (other_dispatch_run)."""
        _passed_under_the_other_dispatch(other_dispatch_run, "TestTwoPassTables")

    def test_a_large_mean_does_not_stop_the_pruning_at_p2(self):
        """The "offset" field, 1e8 plus unit noise, lists fewer than 10 % of
        its shifts to _shift_norms at p = 2: _l2_estimate centres the field,
        so its width scales with the noise, not with the mean.  Without
        the centring it lists every live shift, 288 plain and 255 mixed."""
        counts = {}

        def counted(a, p, mixed, rows, cols):
            counts[mixed] = len(rows)
            return shift_norms(a, p, mixed, rows, cols)

        shift_norms = modulus._shift_norms
        a = L2_FIELDS["offset"]
        m, n = a.shape
        with mock.patch.object(modulus, "_shift_norms", counted):
            for mixed in (False, True):
                _prefix_max_table(a, 2.0, mixed)
        assert counts[False] < 0.1 * m * n and counts[True] < 0.1 * (m - 1) * (n - 1), counts


class TestL2Bounds:
    """The p = 2 bounds of modulus._l2_bounds against every computed norm."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", list(L2_FIELDS) + list(RANGE_END_FIELDS))
    def test_bounds_hold_and_are_loose(self, name):
        """lo <= the computed norm <= hi at every live shift, on these fields
        and at the ends of the float range; and, away from those ends, the
        estimate misses the computed square by less than 1/1000 of the
        derived width, so a width that holds only by a narrow margin fails.
        With the width set to 0, every field away from those ends fails."""
        ends = name not in L2_FIELDS
        a = RANGE_END_FIELDS[name] if ends else L2_FIELDS[name]
        m, n = a.shape
        for mixed in (False, True):
            norms = _shift_norm_table(a, 2.0, mixed)[:m, :n]
            live = np.ones((m, n), bool)
            if mixed:
                live[0] = live[:, 0] = False
            lo, hi = _l2_bounds(a, mixed)
            assert (lo[live] <= norms[live]).all() and (norms[live] <= hi[live]).all()
            assert (hi[~live] == -math.inf).all()
            if live.any() and not ends:
                est, width, e = _l2_estimate(a, mixed)
                miss = np.abs(est - np.ldexp(norms, -e) ** 2)[live]
                assert miss.max() < width / 1000, (mixed, miss.max() / width)


def _gaussian_128() -> np.ndarray:
    return np.random.default_rng(128).normal(size=(128, 128))


class TestF32Bounds:
    """The float32 bounds of modulus._f32_bounds against every computed norm."""

    @staticmethod
    def _norms_and_bounds(a: np.ndarray, p: float, mixed: bool):
        """The computed norm and the (lo, hi) of _f32_bounds of every live shift."""
        m, n = a.shape
        live = np.ones((m, n), bool)
        if mixed:
            live[0] = live[:, 0] = False
        norms = _shift_norm_table(a, p, mixed)[:m, :n][live]
        return norms, *_f32_bounds(a, p, mixed, *np.nonzero(live))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "name",
        list(L2_FIELDS) + list(RANGE_END_FIELDS) + list(NON_SQUARE_FIELDS) + ["normal-128"],
    )
    @pytest.mark.parametrize("p", P_F32)
    def test_bounds_hold(self, name, p):
        """lo <= the computed norm <= hi at every live shift, on the L2_FIELDS,
        at the ends of the float range, on the NON_SQUARE_FIELDS and on a
        128^2 Gaussian field, where the bounds are also tight: hi - lo is
        below 1e-5 of the norm (there it is 7.7e-6 to 9.1e-6 at p = 1.1,
        where the rounding of p dominates, and 1.1e-6 to 5.9e-6 at p = 1,
        1.5, 3 and 8; about 2e-6/p of it is the float32 partials' term
        gamma32)."""
        if name == "normal-128":
            a = _gaussian_128()
        else:
            a = {**L2_FIELDS, **RANGE_END_FIELDS, **NON_SQUARE_FIELDS}[name]
        for mixed in (False, True):
            norms, lo, hi = self._norms_and_bounds(a, p, mixed)
            assert (lo <= norms).all() and (norms <= hi).all(), mixed
            if name == "normal-128":
                pos = norms > 0.0  # all but the plain shift 0
                assert ((hi - lo)[pos] / norms[pos]).max() < 1e-5, mixed

    def test_stack_term_is_needed_and_sufficient(self):
        """Float32 rows whose every stack column holds 1.0 and then 15 terms
        of v = 2^-24, with a tail of 7 more v: in float32 1 + v rounds to 1,
        so each partial of modulus._row_norms loses 15v, about 15v of the
        mean.  At p = 1 that mean lies within the eps of _f32_bounds of the
        exact mean (math.fsum of the float32 terms, exact in float64), and
        outside the eps without its gamma32 = 15v/(1 - 15v) term."""
        q, k = 1024, modulus._STACK * 1024 + 7
        d = np.full((2, k), _V, np.float32)
        d[:, :q] = 1.0
        exact = math.fsum(d[0].tolist()) / k
        miss = float(np.abs(modulus._row_norms(d, 1.0) - exact).max()) / exact
        j = modulus._STACK - 1
        without = 1.1 * (modulus._term_error(1.0) + (k + 2.0 + 16.0) * _U)
        eps = without + 1.1 * j * _V / (1.0 - j * _V)
        assert without < miss <= eps, (miss / _V, without / _V, eps / _V)

    # The p of the power tests: those of the table tests and five more, two
    # of them (2.5, 5) with a sqrt-and-multiply power.
    P_POWER = (1.1, 1.5, 3.0, 8.0, 1.01, 1.25, 2.5, 5.0, 13.7)

    @staticmethod
    def _power_errors(p: float) -> tuple[float, float]:
        """The largest relative errors of the float32 power of pvar1d._abs_pow,
        as the float32 pass calls it, against x^p32, p32 the float32 p, at
        every normal result, and against x^p at every result of at least
        _TAU: on 2^16 values log-uniform over the x whose power is normal
        and 2^16 uniform ones below 1/2.  The references are float64 powers
        of the same x, whose errors are far below a float32 ulp."""
        rng = np.random.default_rng(int(p * 1000))
        p32 = float(np.float32(p))
        low = np.log(2.0 ** (-126.0 / p32))
        x = np.concatenate([np.exp(rng.uniform(low, 0.0, 2**16)), rng.uniform(0.0, 0.5, 2**16)])
        x = x.astype(np.float32)
        got = _abs_pow(x.copy(), p).astype(float)
        errors = []
        for q, smallest in ((p32, 2.0**-126), (p, _TAU)):
            want = x.astype(float) ** q
            kept = want >= smallest
            assert kept.mean() > 0.9
            errors.append(float((np.abs(got - want)[kept] / want[kept]).max()))
        return errors[0], errors[1]

    @pytest.mark.parametrize("p", P_POWER)
    def test_float32_power_is_within_the_assumed_error(self, p):
        """The float32 power lies within modulus._POW32 (4 ulps) of x^p32 at
        every normal result, and within _term_error(p) of x^p at every
        result of at least _TAU, the errors that _f32_bounds' width takes.
        Where numpy's float32 power computes it this is an assumption; at
        the p of _pow32_roundings the test below derives a tighter bound.
        At p = 1.1 the second needs the rounding of p: with _POW32 alone it
        fails."""
        to_p32, to_p = self._power_errors(p)
        assert to_p32 <= _POW32, to_p32 / 2.0**-23
        assert to_p <= modulus._term_error(p), to_p / 2.0**-23

    @pytest.mark.parametrize("p", [p for p in (1.0,) + P_POWER if _pow32_roundings(p) is not None])
    def test_sqrt_and_multiply_power_is_within_the_derived_error(self, p):
        """At the p of pvar1d._pow32_roundings, where p32 = p, the float32
        power lies within (1 + v)^n - 1 of x^p at every normal result, n
        its correctly rounded square root and products: 2v at p = 1.5 and 3,
        where it measured about 1.97v, and 7v at p = 8 (about 6.7v); 0 at
        p = 1, where it is |x|.  A kernel without the square root, or with a
        product too few, fails."""
        assert float(np.float32(p)) == p
        to_p32, to_p = self._power_errors(p)
        bound = math.expm1(_pow32_roundings(p) * math.log1p(2.0**-24))
        assert max(to_p32, to_p) <= bound, (to_p32 / 2.0**-24, bound / 2.0**-24)

    def test_float64_power_is_within_one_ulp(self):
        """numpy's float64 power (pvar1d._abs_pow) and CPython's pow lie within
        one ulp of x^p, against 120-bit mpmath, on 2,000 x log-uniform in
        [1e-8, 10]: assumed by the grow of _partner_bounds, the widths of
        _f32_bounds and pvar1d._near_max, and measured at most 0.65 ulp
        with numpy's AVX-512 loops, 0.50 ulp without them and for pow."""
        mpmath = pytest.importorskip("mpmath")
        x = np.exp(np.random.default_rng(53).uniform(math.log(1e-8), math.log(10.0), 2000))
        worst = {}
        with mpmath.workprec(120):
            for p in (1.1, 1.5, 3.0, 8.0, 1 / 1.1, 1 / 1.5, -1 / 1.1):
                exact = [mpmath.mpf(v) ** p for v in x.tolist()]
                ulps = [mpmath.ldexp(1, mpmath.frexp(e)[1] - 53) for e in exact]
                for name, got in (("numpy", _abs_pow(x.copy(), p).tolist()),
                                  ("pow", [v**p for v in x.tolist()])):
                    worst[name, p] = max(abs(g - e) / u for g, e, u in zip(got, exact, ulps))
        assert max(worst.values()) < 1.0, {k: float(v) for k, v in worst.items()}

    def test_few_shifts_reach_float64(self):
        """At p = 1.5 and p = 1 the 128^2 Gaussian tables list fewer than 1 %
        of their live shifts to the float64 evaluation: the partners that
        the p = 2 bounds keep and the shifts whose float32 bounds reach the
        prefix max.  The float32 pass bounds all the other partners."""
        f = Grid2(_gaussian_128())
        live = {True: 127 * 127, False: 128 * 128}
        partners = {True: 64 * 64, False: 64 * 128 + 2}
        shift_norms = modulus._shift_norms
        for p, table, mixed in ((1.5, modulus_mixed, True), (1.5, modulus_iso_2d, False),
                                (1.0, modulus_mixed, True), (1.0, modulus_iso_2d, False)):
            listed = [0, 0]  # float64, float32

            def counted(a, p, mixed, rows, cols):
                listed[a.dtype == np.float32] += len(rows)
                return shift_norms(a, p, mixed, rows, cols)

            with mock.patch.object(modulus, "_shift_norms", counted):
                table(f, Exponent(p))
            f64, f32 = listed
            assert f64 < 0.01 * live[mixed], (p, mixed, listed)
            assert f64 + f32 >= partners[mixed], (p, mixed, listed)


    @needs_avx512
    def test_hold_under_the_other_simd_dispatch(self, other_dispatch_run):
        """test_bounds_hold and the power tests, once more under the other
        dispatch (other_dispatch_run), where float32 power takes another loop
        (measured within 0.5 ulp there, against 1 ulp with AVX-512)."""
        _passed_under_the_other_dispatch(other_dispatch_run, "TestF32Bounds")
