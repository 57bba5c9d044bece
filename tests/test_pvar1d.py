"""Cyclic p-variation in one dimension: exact DP against brute force."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarlab import (
    CyclicPartition,
    Exponent,
    Grid1,
    gen_sine,
    gen_tent_scaled,
    omega_p_functional,
    pvar_cyclic,
    pvar_oracle,
    pvar_sum,
)
from pvarlab import pvar1d
from pvarlab.pvar1d import ORACLE_MAX_N, _pvar_lanes, _pvar_rows, _sum_value

P_VALUES = (1.0, 1.5, 2.0, 3.0)


def _fewest_points_dp(g: Grid1, p: Exponent) -> tuple[float, CyclicPartition]:
    """Reference chain DP: one anchor, an N x N cost matrix, ties broken
    toward fewer points.  pvar_cyclic must return exactly its results."""
    vals = g.samples
    n = g.n
    anchor = int(np.argmax(vals))
    rot = np.roll(vals, -anchor)
    cost = np.abs(rot[None, :] - rot[:, None]) ** p.p
    best = np.zeros(n)
    npts = np.ones(n, dtype=int)
    pred = np.full(n, -1, dtype=int)
    for j in range(1, n):
        cand = best[:j] + cost[:j, j]
        m = cand.max()
        ties = np.flatnonzero(cand == m)
        i = int(ties[np.argmin(npts[ties])])
        best[j] = m
        npts[j] = npts[i] + 1
        pred[j] = i
    closing = best + cost[:, 0]
    ties = np.flatnonzero(closing == closing.max())
    j = int(ties[np.argmin(npts[ties])])
    chain = []
    while j >= 0:
        chain.append(j)
        j = int(pred[j])
    part = CyclicPartition(tuple(sorted((c + anchor) % n for c in chain)))
    return pvar_sum(g, part, p), part


def _loop_oracle(g: Grid1, p: Exponent) -> float:
    """Reference brute force: _sum_value on every subset, one at a time.
    pvar_oracle must return exactly its value."""
    best = 0.0
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            v = _sum_value(g.samples, combo, p.p)
            if v > best:
                best = v
    return best


def _oracle_grids(n: int) -> list[np.ndarray]:
    """Gaussian, {0, 1, 2}-valued, 0.1-rounded and constant samples: the
    last three are full of exact and near ties between subsets."""
    rng = np.random.default_rng(100 + n)
    return [
        rng.normal(size=n),
        rng.integers(0, 3, size=n).astype(float),
        np.round(rng.normal(size=n), 1),
        np.full(n, 0.3),
    ]


def _p1_grids(n: int) -> list[np.ndarray]:
    """Samples for the p = 1 paths only (their powers underflow or overflow):
    signed zeros among the subnormals +-1e-310, and Gaussians scaled by 10^k
    for k = -300, 299 and one k drawn from [-300, 300)."""
    rng = np.random.default_rng(200 + n)
    ks = (-300, int(rng.integers(-300, 300)), 299)
    tiny = rng.choice([0.0, -0.0, 1e-310, -1e-310], size=n)
    return [tiny] + [10.0**k * rng.normal(size=n) for k in ks]


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as an exact head/tail pair (Knuth's two-sum)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _reference_sum_p1(xs: list[float]) -> float:
    """Reference p = 1 cyclic sum: each |x - y| as an exact head/tail pair,
    negated when negative, then one fsum of every pair.  It shares no code
    with pvar1d, whose p = 1 terms are signed samples."""
    terms = []
    for x, y in zip(xs[1:] + xs[:1], xs):
        s, e = _two_sum(x, -y)
        terms += (-s, -e) if s < 0.0 or (s == 0.0 and e < 0.0) else (s, e)
    return math.fsum(terms)


def _random_grid(seed: int, n_max: int = 10) -> Grid1:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    return Grid1(rng.normal(size=n))


class TestBasics:
    def test_constant_has_zero_variation(self):
        g = Grid1(np.full(7, 3.25))
        for p in P_VALUES:
            assert pvar_cyclic(g, Exponent(p))[0] == 0.0

    def test_arc_indicator(self):
        g = Grid1(np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
        for p in P_VALUES:
            assert pvar_cyclic(g, Exponent(p))[0] == pytest.approx(2.0 ** (1.0 / p))

    @pytest.mark.parametrize("n", (2, 3, 7, 16, 39))
    def test_p1_sum_matches_two_sum_reference(self, n):
        """pvar_sum at p = 1 equals the exactly rounded reference bit for bit
        (signed zeros included) on random partitions of every kind of grid."""
        rng = np.random.default_rng(n)
        for samples in _oracle_grids(n) + _p1_grids(n):
            g = Grid1(samples)
            for _ in range(40):
                k = int(rng.integers(1, n + 1))
                idx = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
                got = pvar_sum(g, CyclicPartition(idx), Exponent(1.0))
                want = _reference_sum_p1([float(samples[i]) for i in idx])
                assert got.hex() == want.hex(), (samples, idx)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_oracle_overflow_raises(self):
        """Samples of +-2^1021 sum past the float range at p = 1: the oracle
        raises OverflowError (its naive sums are not finite), as the DP
        does, instead of failing in its filter."""
        g = Grid1(np.array([1.0, -1.0, 1.0, -1.0]) * 2.0**1021)
        for fn in (pvar_oracle, pvar_cyclic):
            with pytest.raises(OverflowError):
                fn(g, Exponent(1.0))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            CyclicPartition((3, 1))
        CyclicPartition((0, 4)).validate(6)
        with pytest.raises(ValueError):
            CyclicPartition((0, 7)).validate(6)

    def test_sine_optimum_at_extrema(self):
        g = gen_sine(1, 32)
        value, part = pvar_cyclic(g, Exponent(2.0))
        assert value == pytest.approx(2.0 * np.sqrt(2.0))
        assert set(part.indices) == {8, 24}

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("n", (1, 2, 4))
    def test_tent_closed_form(self, p, n):
        g = gen_tent_scaled(n, 32)
        value, _ = pvar_cyclic(g, Exponent(p))
        assert value == pytest.approx(2.0 ** (1.0 / p - 1.0) * n ** (1.0 / p), abs=1e-12)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_matches_oracle_bitwise(self, seed, p):
        g = _random_grid(seed)
        pe = Exponent(p)
        assert pvar_cyclic(g, pe)[0] == pvar_oracle(g, pe)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_fewest_points_dp_on_ternary_grids(self, p):
        pe = Exponent(p)
        for n in range(2, 7):
            for v in itertools.product((0.0, 1.0, 2.0), repeat=n):
                g = Grid1(np.array(v))
                assert pvar_cyclic(g, pe) == _fewest_points_dp(g, pe), v

    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_fewest_points_dp_on_integer_grids(self, p):
        pe = Exponent(p)
        rng = np.random.default_rng(2018)
        for n in range(2, 41):
            for _ in range(3):
                g = Grid1(rng.integers(-3, 4, size=n).astype(float))
                assert pvar_cyclic(g, pe) == _fewest_points_dp(g, pe)

    def test_oracle_size_limit(self):
        g = Grid1(np.zeros(19))
        with pytest.raises(ValueError, match="got 19"):
            pvar_oracle(g, Exponent(2.0))


class TestTwoPassOracle:
    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_loop_oracle(self, n, p):
        pe = Exponent(p)
        for samples in _oracle_grids(n):
            g = Grid1(samples)
            assert pvar_oracle(g, pe) == _loop_oracle(g, pe), samples

    def test_matches_loop_oracle_on_ternary_grids(self):
        """Every {0, 1, 2}-valued grid of length 6: exact ties everywhere."""
        for p in (1.0, 2.0):
            pe = Exponent(p)
            for v in itertools.product((0.0, 1.0, 2.0), repeat=6):
                g = Grid1(np.array(v))
                assert pvar_oracle(g, pe) == _loop_oracle(g, pe), v

    def test_near_max_keeps_near_ties_only(self):
        naive = np.array([1.0, 1.0 - 2.0**-52, 0.5, 1.0])
        assert pvar1d._near_max(naive, 4, 2.0).tolist() == [0, 1, 3]
        # all-zero sums: every exact value is 0 and the first entry stands for all
        assert pvar1d._near_max(np.zeros(5), 4, 2.0).tolist() == [0]


class TestFirstMax:
    """The exact pass shared by the brute-force oracles."""

    @staticmethod
    def _recording(values: dict[int, float]):
        calls: list[int] = []

        def value(i: int) -> float:
            calls.append(i)
            return values[i]

        return value, calls

    def test_exact_ties_go_to_the_first_index(self):
        naive = np.array([1.0, 1.0 - 2.0**-52, 0.5, 1.0])
        value, _ = self._recording({0: 2.0, 1: 3.0, 3: 3.0})
        assert pvar1d._first_max(naive, 4, 2.0, value) == (1, 3.0)

    def test_value_runs_only_on_near_max_survivors(self):
        naive = np.array([0.25, 1.0, 1.0 - 2.0**-52, 0.5, 1.0, 0.0])
        value, calls = self._recording(dict.fromkeys(range(6), 1.0))
        assert pvar1d._first_max(naive, 4, 1.5, value) == (1, 1.0)
        assert calls == pvar1d._near_max(naive, 4, 1.5).tolist() == [1, 2, 4]

    def test_all_zero_naive_gives_index_0(self):
        value, calls = self._recording({0: 0.0})
        assert pvar1d._first_max(np.zeros(5), 4, 1.0, value) == (0, 0.0)
        assert calls == [0]


class TestOracleMemory:
    def test_peak_at_the_size_cap(self):
        # 2^18 naive sums of 8 bytes with their two index bytes; a
        # 2^N x N^2 matrix would take 680 MB
        g = Grid1(np.random.default_rng(18).normal(size=ORACLE_MAX_N))
        tracemalloc.start()
        try:
            pvar_oracle(g, Exponent(1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestLanes:
    """Many sequences in one _pvar_lanes call: every lane must get exactly
    the value and partition it gets alone, whatever its neighbours."""

    @staticmethod
    def _assert_lanes_match(rows: np.ndarray, pe: Exponent) -> None:
        lanes = list(_pvar_lanes(rows, pe))
        assert len(lanes) == len(rows)
        for row, (value, idx) in zip(rows, lanes):
            assert (value, CyclicPartition(idx)) == _fewest_points_dp(Grid1(row), pe), row

    @pytest.mark.parametrize("p", P_VALUES)
    def test_ternary_grids_as_lanes(self, p):
        pe = Exponent(p)
        for n in range(2, 7):
            rows = np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=n)))
            self._assert_lanes_match(rows, pe)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_integer_grids_as_lanes(self, p):
        pe = Exponent(p)
        rng = np.random.default_rng(2018)
        for n in range(2, 41):
            rows = np.array([rng.integers(-3, 4, size=n).astype(float) for _ in range(3)])
            self._assert_lanes_match(rows, pe)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_rows_reject_non_finite(self, bad):
        a = np.arange(12.0).reshape(3, 4)
        a[1, 2] = bad
        with pytest.raises(ValueError):
            _pvar_rows(a, Exponent(2.0))

    def test_rows_reject_single_samples(self):
        with pytest.raises(ValueError):
            _pvar_rows(np.zeros((3, 1)), Exponent(2.0))


def _mp_optimum(g: Grid1, p: float):
    """The anchored chain DP of pvar_cyclic, in 50-digit arithmetic: the exact
    maximum over cyclic partitions up to a relative error far below 1e-40."""
    import mpmath

    vals = g.samples
    n = g.n
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(v)) for v in np.roll(vals, -int(np.argmax(vals)))]
        pp = mpmath.mpf(p)
        best = [mpmath.mpf(0)] * n
        for j in range(1, n):
            best[j] = max(best[i] + abs(x[j] - x[i]) ** pp for i in range(j))
        total = max(best[j] + abs(x[0] - x[j]) ** pp for j in range(n))
        return total ** (1 / pp)


class TestAgainstMpmath:
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_float_dp_reaches_the_precise_optimum(self, p):
        """At p > 1 the DP compares naive float sums, so a near-tie can pick a
        slightly worse partition; the loss must stay at rounding level."""
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(10 * p))
        grids = (
            Grid1(np.cumsum(rng.normal(size=200))),
            Grid1(np.round(rng.normal(size=200), 1)),
            Grid1(np.round(np.cumsum(rng.normal(size=160)), 1)),
        )
        for g in grids:
            value, _ = pvar_cyclic(g, Exponent(p))
            assert value >= _mp_optimum(g, p) * (1 - 1e-12)


class TestMemory:
    def test_linear_memory_at_4096(self):
        # an N x N cost matrix alone would take 128 MB here
        g = Grid1(np.cumsum(np.random.default_rng(3).normal(size=4096)))
        tracemalloc.start()
        try:
            pvar_cyclic(g, Exponent(1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_dominates_every_partition(self, seed, p):
        g = _random_grid(seed)
        pe = Exponent(p)
        best, _ = pvar_cyclic(g, pe)
        rng = np.random.default_rng(seed + 1)
        for _ in range(5):
            k = int(rng.integers(1, g.n + 1))
            idx = tuple(sorted(rng.choice(g.n, size=k, replace=False).tolist()))
            assert pvar_sum(g, CyclicPartition(idx), pe) <= best + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES), st.integers(1, 9))
    def test_rotation_invariance(self, seed, p, shift):
        g = _random_grid(seed)
        pe = Exponent(p)
        rolled = Grid1(np.roll(g.samples, shift))
        assert pvar_cyclic(rolled, pe)[0] == pytest.approx(pvar_cyclic(g, pe)[0], abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(P_VALUES),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_homogeneity_and_shift(self, seed, p, c):
        g = _random_grid(seed)
        pe = Exponent(p)
        base, _ = pvar_cyclic(g, pe)
        scaled, _ = pvar_cyclic(Grid1(c * g.samples + 1.0), pe)
        assert scaled == pytest.approx(abs(c) * base, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_decreasing_in_p(self, seed):
        g = _random_grid(seed)
        values = [pvar_cyclic(g, Exponent(p))[0] for p in (1.0, 1.5, 2.0, 3.0)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_omega_functional_pairwise_mean(self, seed, p):
        g = _random_grid(seed)
        a = g.samples
        d = np.abs(a[:, None] - a[None, :]) ** p
        expect = float(np.mean(d)) ** (1.0 / p)
        assert omega_p_functional(g, Exponent(p)) == pytest.approx(expect, abs=1e-12)
