"""Vitali p-variation over nets: oracle, finest net and coordinate ascent."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarlab import (
    AscentResult,
    CyclicPartition,
    Exponent,
    Grid1,
    Grid2,
    Net,
    certified_vitali,
    gen_product,
    gen_sine,
    gen_staircase,
    gen_tent_scaled,
    hardy_section_check,
    pvar_cyclic,
    staircase_net_bound,
    vitali_ascent,
    vitali_finest,
    vitali_oracle,
    vitali_sum,
)
from pvarlab import vitali2d
from pvarlab.vitali2d import (
    ORACLE_MAX_SIDE,
    _cell_terms,
    _chain_max,
    _cyc_coldiff,
    _cyc_rowdiff,
    _pair_costs,
    _root,
)

P_VALUES = (1.0, 1.5, 2.0, 3.0)


def _per_anchor_chain_max(cost: np.ndarray) -> tuple[float, list[int]]:
    """Reference chain DP: one first-index DP per anchor in a Python loop.
    _chain_max must return exactly its results."""
    m = cost.shape[0]
    best_val = -math.inf
    best_chain: list[int] = [0]
    for a in range(m):
        order = [(a + k) % m for k in range(m)]
        oc = cost[np.ix_(order, order)]
        dp = np.zeros(m)
        pred = np.full(m, -1, dtype=int)
        for j in range(1, m):
            cand = dp[:j] + oc[:j, j]
            i = int(np.argmax(cand))
            dp[j] = cand[i]
            pred[j] = i
        closing = dp + oc[:, 0]
        j = int(np.argmax(closing))
        total = float(closing[j])
        if total > best_val:
            chain = []
            while j >= 0:
                chain.append(order[j])
                j = int(pred[j])
            best_val = total
            best_chain = sorted(chain)
    return best_val, best_chain


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as an exact head/tail pair (Knuth's two-sum)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _abs_cell_expansion(a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """|a - b - c + d| as an exact four-term expansion from a two-sum
    cascade, negated when the correctly rounded cell is negative.  It shares
    no code with vitali2d, whose p = 1 terms are signed corner samples."""
    s1, e1 = _two_sum(a, -b)
    s2, e2 = _two_sum(s1, -c)
    s3, e3 = _two_sum(s2, d)
    if math.fsum((a, -b, -c, d)) < 0.0:
        return (-s3, -e3, -e2, -e1)
    return (s3, e3, e2, e1)


def _reference_sum_p1(samples: np.ndarray, rows: list[int], cols: list[int]) -> float:
    """Reference p = 1 net sum: the _abs_cell_expansion of every cell,
    collected cell by cell in a Python loop, then one fsum."""
    terms: list[float] = []
    nr, nc = len(rows), len(cols)
    for k in range(nr):
        r0, r1 = rows[k], rows[(k + 1) % nr]
        for l in range(nc):
            c0, c1 = cols[l], cols[(l + 1) % nc]
            terms.extend(
                _abs_cell_expansion(
                    float(samples[r1, c1]),
                    float(samples[r1, c0]),
                    float(samples[r0, c1]),
                    float(samples[r0, c0]),
                )
            )
    return math.fsum(terms)


def _reference_vitali_sum(f: Grid2, net: Net, p: Exponent) -> float:
    """Reference net sum: _reference_sum_p1 at p = 1; at p > 1 the fsum of the
    powered cells of the cyclic row differences' cyclic column differences.
    vitali_sum must return exactly its value."""
    rows, cols = list(net.rows.indices), list(net.cols.indices)
    if p.p == 1.0:
        return _reference_sum_p1(f.samples, rows, cols)
    cells = _cyc_coldiff(_cyc_rowdiff(f.samples[np.ix_(rows, cols)]))
    return _root(math.fsum(abs(float(v)) ** p.p for v in cells.ravel()), p.p)


def _loop_oracle(f: Grid2, p: Exponent) -> float:
    """Reference brute force: every net evaluated on its own, as vitali_sum
    evaluates it.  vitali_oracle must return exactly its value."""
    m, n = f.m, f.n
    pp = p.p
    col_subsets = [
        list(c) for size in range(1, n + 1) for c in itertools.combinations(range(n), size)
    ]
    best = 0.0
    for rsize in range(1, m + 1):
        for rows in itertools.combinations(range(m), rsize):
            if pp == 1.0:
                for cols in col_subsets:
                    v = _reference_sum_p1(f.samples, list(rows), cols)
                    if v > best:
                        best = v
                continue
            rd = _cyc_rowdiff(f.samples[list(rows), :])
            for cols in col_subsets:
                cells = _cyc_coldiff(rd[:, cols])
                v = _root(math.fsum(abs(float(x)) ** pp for x in cells.ravel()), pp)
                if v > best:
                    best = v
    return best


def _loop_exhaustive_ascent(f: Grid2, p: Exponent) -> AscentResult:
    """Reference for vitali_ascent when a side has at most 8 samples:
    vitali_sum on the net of every chain of that side (the other side
    solved by _chain_max); the first net attaining the largest value wins."""
    pp = p.p
    transpose = f.m < f.n
    a2 = f.samples.T if transpose else f.samples
    best = None
    for size in range(1, a2.shape[1] + 1):
        for cols in itertools.combinations(range(a2.shape[1]), size):
            _, rows = _chain_max(_pair_costs(_cyc_coldiff(a2[:, list(cols)]), pp))
            rws, cls = (list(cols), rows) if transpose else (rows, list(cols))
            net = Net(CyclicPartition(tuple(rws)), CyclicPartition(tuple(cls)))
            value = vitali_sum(f, net, p)
            if best is None or value > best[0]:
                best = (value, net)
    return AscentResult(best[0], best[1], True)


def _oracle_fields(m: int, n: int) -> list[Grid2]:
    """Gaussian, {0, 1, 2}-valued, 0.1-rounded, constant and separable
    fields; all but the first are full of exact and near ties between nets."""
    rng = np.random.default_rng(m * 10 + n)
    return [
        Grid2(rng.normal(size=(m, n))),
        Grid2(rng.integers(0, 3, size=(m, n)).astype(float)),
        Grid2(np.round(rng.normal(size=(m, n)), 1)),
        Grid2(np.full((m, n), 0.3)),
        gen_product(Grid1(np.round(rng.normal(size=m), 1)), Grid1(rng.normal(size=n))),
    ]


def _p1_fields(m: int, n: int) -> list[Grid2]:
    """Fields for the p = 1 paths only (their powers underflow or overflow):
    signed zeros among the subnormals +-1e-310, and Gaussians scaled by 10^k
    for k = -300, 299 and one k drawn from [-300, 300)."""
    rng = np.random.default_rng(m * 10 + n + 1)
    tiny = rng.choice([0.0, -0.0, 1e-310, -1e-310], size=(m, n))
    ks = (-300, int(rng.integers(-300, 300)), 299)
    return [Grid2(tiny)] + [Grid2(10.0**k * rng.normal(size=(m, n))) for k in ks]


def _random_field(seed: int, side: int = 5) -> Grid2:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, side + 1))
    n = int(rng.integers(2, side + 1))
    return Grid2(rng.normal(size=(m, n)))


class TestBasics:
    def test_checkerboard(self):
        f = Grid2(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        # every mixed cell of the full net has magnitude 4, wrap included
        assert vitali_finest(f, Exponent(1.0)) == pytest.approx(16.0)
        assert vitali_oracle(f, Exponent(2.0)) == pytest.approx(8.0)

    def test_checkerboard_indicator(self):
        f = Grid2(np.array([[1.0, 0.0], [0.0, 1.0]]))
        # each of the four cyclic cells has mixed difference +-2: (4*2^2)^(1/2)
        assert vitali_oracle(f, Exponent(2.0)) == pytest.approx(4.0)

    def test_constant_rows_give_zero(self):
        f = Grid2(np.tile(np.array([1.0, 2.0, 0.5]), (4, 1)))
        for p in P_VALUES:
            assert vitali_oracle(f, Exponent(p)) == 0.0

    def test_net_validation(self):
        f = _random_field(0)
        bad = Net(CyclicPartition((0, f.m + 3)), CyclicPartition((0,)))
        with pytest.raises(ValueError):
            vitali_sum(f, bad, Exponent(2.0))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", (1.0, 2.0))
    def test_overflow_raises(self, p):
        """Mixed cells of the +-2^1021 checkerboard are finite, but their sums
        (and at p = 2 their squares) are not: every evaluator raises
        OverflowError rather than returning a value or failing in its
        filter."""
        f = Grid2(np.array([[1.0, -1.0], [-1.0, 1.0]]) * 2.0**1021)
        for fn in (vitali_oracle, vitali_finest, vitali_ascent):
            with pytest.raises(OverflowError):
                fn(f, Exponent(p))

    def test_oracle_size_limit(self):
        f = Grid2(np.zeros((8, 3)))
        with pytest.raises(ValueError, match="got 8x3"):
            vitali_oracle(f, Exponent(2.0))


class TestVitaliSum:
    """vitali_sum against the per-cell reference, compared with ==."""

    @staticmethod
    def _nets(m: int, n: int, seed: int) -> list[Net]:
        """Random nets of every size, plus one-row, one-column and
        two-member chains and the finest net."""
        rng = np.random.default_rng(seed)

        def chain(side: int, size: int) -> CyclicPartition:
            return CyclicPartition(tuple(sorted(rng.choice(side, size, replace=False).tolist())))

        sizes = [(1, n), (m, 1), (1, 1), (2, 2), (2, n), (m, 2), (m, n)]
        sizes += [(int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1))) for _ in range(8)]
        return [Net(chain(m, k), chain(n, l)) for k, l in sizes]

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("shape", [(2, 7), (7, 2), (5, 5), (8, 6), (16, 12), (6, 6)])
    def test_matches_reference(self, shape, p):
        pe = Exponent(p)
        fields = _oracle_fields(*shape)
        if p == 1.0:
            fields += _p1_fields(*shape)
        for k, f in enumerate(fields):
            for net in self._nets(*shape, seed=k):
                assert vitali_sum(f, net, pe) == _reference_vitali_sum(f, net, pe), (
                    f.samples,
                    net,
                )

    @pytest.mark.parametrize("shape", [(2, 7), (5, 5), (8, 6)])
    def test_p1_cell_terms_match_expansion(self, shape):
        """At p = 1 each cell term is the correctly rounded |exact cell|: the
        fsum of its _abs_cell_expansion, bit for bit, for every pair of row
        indices and every pair of column indices (equal ones included)."""
        m, n = shape
        r0, r1 = np.indices((m, m)).reshape(2, -1)[:, :, None]
        c0, c1 = np.indices((n, n)).reshape(2, -1)
        for f in _oracle_fields(m, n) + _p1_fields(m, n):
            a = f.samples
            terms = _cell_terms(a, r0, r1, c0, c1, 1.0)
            corners = (a[r1, c1], a[r1, c0], a[r0, c1], a[r0, c0])
            cells = zip(*(c.ravel().tolist() for c in corners))
            want = np.array([math.fsum(_abs_cell_expansion(*x)) for x in cells])
            assert np.array_equal(terms.ravel().view(np.int64), want.view(np.int64)), a

    @pytest.mark.parametrize("p, limit", [(1.0, 0.5), (2.0, 0.75)])
    def test_finest_peak_memory_at_128(self, p, limit):
        """Both exact paths stream their cells: about 0.02 MiB at p = 1 (the
        samples of one row step as Python floats) and 0.5 MiB at p = 2 (a
        few cell arrays).  Listing every cell's corners would add 2 MiB at
        p = 1, and a list of every cell's terms 0.5 MiB at p = 2."""
        f = Grid2(np.random.default_rng(128).normal(size=(128, 128)))
        pe = Exponent(p)
        tracemalloc.start()
        try:
            vitali_finest(f, pe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20


class TestTwoPassOracle:
    """The batched oracle and the filtered exhaustive ascent against the
    per-net loops they replace, compared with ==.  Grid2 needs two samples
    per side, so the thinnest shapes are 2 x 7 and 7 x 2."""

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("shape", [(2, 7), (7, 2), (5, 5), (6, 6), (7, 7)])
    def test_matches_loop_oracle(self, shape, p):
        pe = Exponent(p)
        for f in _oracle_fields(*shape):
            assert vitali_oracle(f, pe) == _loop_oracle(f, pe), f.samples

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("shape", [(2, 7), (7, 2), (5, 5), (6, 6), (7, 7), (4, 9)])
    def test_exhaustive_ascent_matches_loop(self, shape, p, monkeypatch):
        """Up to 5 x 5 also with the naive pass pricing one net per block
        (_BLOCK = 1): nets are never split across blocks."""
        pe = Exponent(p)
        for f in _oracle_fields(*shape):
            want = _loop_exhaustive_ascent(f, pe)
            assert vitali_ascent(f, pe) == want, f.samples
            if f.m * f.n <= 25:
                with monkeypatch.context() as patch:
                    patch.setattr(vitali2d, "_BLOCK", 1)
                    assert vitali_ascent(f, pe) == want, f.samples

    def test_peak_memory_at_the_size_cap(self):
        f = Grid2(np.random.default_rng(7).normal(size=(ORACLE_MAX_SIDE, ORACLE_MAX_SIDE)))
        tracemalloc.start()
        try:
            vitali_oracle(f, Exponent(1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 127 x 127 naive sums take 126 KiB


class TestAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_ascent_never_exceeds_oracle(self, seed, p):
        f = _random_field(seed)
        pe = Exponent(p)
        assert vitali_ascent(f, pe).value <= vitali_oracle(f, pe) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_finest_exact_at_p1(self, seed):
        f = _random_field(seed)
        pe = Exponent(1.0)
        assert vitali_finest(f, pe) == vitali_oracle(f, pe)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_ascent_net_reproduces_value(self, seed, p):
        f = _random_field(seed)
        pe = Exponent(p)
        r = vitali_ascent(f, pe)
        assert vitali_sum(f, r.net, pe) == r.value


class TestChainMax:
    @pytest.mark.parametrize("m", (*range(2, 13), 32))
    def test_matches_per_anchor_dp(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            for cost in (
                rng.random((m, m)),
                rng.integers(0, 4, size=(m, m)).astype(float),
                rng.integers(0, 2, size=(m, m)).astype(float),
            ):
                assert _chain_max(cost) == _per_anchor_chain_max(cost)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_per_anchor_dp_inside_ascent(self, p, monkeypatch):
        """Every pair-cost matrix the ascent meets, on small grids (chain
        enumeration) and on larger ones (alternating sweeps)."""
        calls = []

        def recording(cost):
            result = _chain_max(cost)
            calls.append((cost.copy(), result))
            return result

        monkeypatch.setattr(vitali2d, "_chain_max", recording)
        fields = [_random_field(seed) for seed in range(8)]
        fields += [Grid2(np.random.default_rng(9).normal(size=(12, 10))), gen_staircase(12)]
        pe = Exponent(p)
        for f in fields:
            vitali_ascent(f, pe)
        assert len(calls) > 100
        for cost, result in calls:
            assert result == _per_anchor_chain_max(cost)


class TestPairCosts:
    @pytest.mark.parametrize("m, n", [(1, 3), (5, 7), (33, 40), (64, 64), (128, 64), (40, 1000)])
    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_fused_expression(self, m, n, p):
        """Row blocks (one block, a partial last block, one row per block)
        give the M x M x N expression bit for bit."""
        profiles = np.random.default_rng(m * n).normal(size=(m, n))
        fused = (np.abs(profiles[None, :, :] - profiles[:, None, :]) ** p).sum(axis=2)
        assert np.array_equal(_pair_costs(profiles, p), fused)

    def test_peak_memory_at_64(self):
        profiles = np.random.default_rng(0).normal(size=(64, 64))
        tracemalloc.start()
        try:
            _pair_costs(profiles, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the M x M x N temporaries alone take 2 MB each


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_transpose_symmetry(self, seed, p):
        f = _random_field(seed)
        pe = Exponent(p)
        ft = Grid2(f.samples.T.copy())
        assert vitali_oracle(ft, pe) == pytest.approx(vitali_oracle(f, pe), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES), st.integers(1, 4))
    def test_rotation_invariance(self, seed, p, shift):
        f = _random_field(seed)
        pe = Exponent(p)
        rolled = Grid2(np.roll(f.samples, (shift, shift), axis=(0, 1)))
        assert vitali_oracle(rolled, pe) == pytest.approx(vitali_oracle(f, pe), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_additive_sections_invisible(self, seed, p):
        # adding a(x) + b(y) leaves every mixed difference unchanged
        f = _random_field(seed)
        rng = np.random.default_rng(seed + 7)
        a = rng.normal(size=f.m)[:, None]
        b = rng.normal(size=f.n)[None, :]
        pe = Exponent(p)
        g = Grid2(f.samples + a + b)
        assert vitali_oracle(g, pe) == pytest.approx(vitali_oracle(f, pe), abs=1e-12)

    @pytest.mark.parametrize("p", (1.0, 2.0))
    def test_product_identity_small(self, p):
        g = gen_tent_scaled(1, 6)
        h = gen_sine(1, 4)
        pe = Exponent(p)
        expect = pvar_cyclic(g, pe)[0] * pvar_cyclic(h, pe)[0]
        assert vitali_oracle(gen_product(g, h), pe) == pytest.approx(expect, abs=1e-12)


class TestStaircaseNet:
    @pytest.mark.parametrize("n", (2, 4, 8))
    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
    def test_offset_net_lower_bound(self, n, p):
        assert staircase_net_bound(n, Exponent(p)) >= n ** (1.0 / p) - 1e-12

    def test_misaligned_resolution_rejected(self):
        with pytest.raises(ValueError):
            staircase_net_bound(4, Exponent(2.0), N=10)

    def test_degenerate_single_cell(self):
        # with one point per axis the offset net has a single vanishing cell
        assert staircase_net_bound(1, Exponent(2.0)) == 0.0


class TestCertifiedVitali:
    @staticmethod
    def _field(m: int, n: int) -> Grid2:
        return Grid2(np.random.default_rng(m * 100 + n).normal(size=(m, n)))

    def test_oracle_up_to_max_side(self):
        f = self._field(6, 6)
        for p in (Exponent(1.0), Exponent(2.0)):
            assert certified_vitali(f, p) == vitali_oracle(f, p)

    def test_finest_at_p1_past_oracle_sizes(self):
        f, p = self._field(9, 10), Exponent(1.0)
        assert certified_vitali(f, p) == vitali_finest(f, p)

    def test_ascent_at_p_gt_1_past_oracle_sizes(self):
        f, p = self._field(9, 10), Exponent(2.0)
        assert certified_vitali(f, p) == vitali_ascent(f, p).value


class TestSectionBound:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_all_sections_within_bound(self, seed, p):
        f = _random_field(seed)
        rows = hardy_section_check(f, Exponent(p))
        assert min(r["margin"] for r in rows) >= -1e-12
