"""Cyclic p-variation in one dimension: exact DP against brute force."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import two_sum
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
from pvarlab.harness import random_corpus_2d
from pvarlab.pvar1d import (
    ORACLE_MAX_N,
    _abs_pow,
    _backtrack,
    _chain_dp,
    _extrema,
    _pvar_lanes,
    _pvar_rows,
    _sum_value,
)

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


def _reference_sum_p1(xs: list[float]) -> float:
    """Reference p = 1 cyclic sum: each |x - y| as an exact head/tail pair,
    negated when negative, then one fsum of every pair.  It shares no code
    with pvar1d, whose p = 1 terms are signed samples."""
    terms = []
    for x, y in zip(xs[1:] + xs[:1], xs):
        s, e = two_sum(x, -y)
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

    @pytest.mark.xfail(
        strict=True,
        reason="the chain DP picks its partition by naive float sums, so on "
        "partitions that tie within rounding it can fall an ulp below the oracle",
    )
    def test_matches_oracle_on_a_rounding_tie(self):
        """A 0.1-rounded grid at p = 3: pvar_cyclic gives 0x1.8900d5a46e021p+0,
        the oracle 0x1.8900d5a46e022p+0."""
        g = Grid1(np.array([-0.6, 0.5, -0.5, 0.1, -0.7, 0.0]))
        pe = Exponent(3.0)
        assert pvar_cyclic(g, pe)[0] == pvar_oracle(g, pe)

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


class TestChainSums:
    """The naive pass shared by the brute-force oracles."""

    @staticmethod
    def _loop_chain_sums(cost: np.ndarray) -> np.ndarray:
        """Reference: for each subset in bitmask order, the costs of its
        chain's steps added in chain order, wrap step last."""
        n = cost.shape[0]
        out = []
        for mask in range(1, 1 << n):
            idx = pvar1d._members(mask, n)
            total = np.zeros(cost.shape[2:])
            for i, j in zip(idx, idx[1:] + idx[:1]):
                total = total + cost[i, j]
            out.append(total)
        return np.array(out)

    @pytest.mark.parametrize("lanes", [(), (3,), (2, 4)])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_per_subset_loop(self, n, lanes):
        """Asymmetric costs with nonzero diagonals: every step, including a
        one-member subset's step to itself, is read in the right direction."""
        cost = np.random.default_rng(n).normal(size=(n, n, *lanes))
        got = pvar1d._chain_sums(cost)
        assert got.shape == ((1 << n) - 1, *lanes)
        assert np.array_equal(got, self._loop_chain_sums(cost))


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


def _closure_chain_dp(cost, na: int, m: int):
    """Reference for _backtrack: the chain DP with a per-lane backtrack
    closure.  Returns each lane's best total and chain(lane), that lane's
    best chain as positions in increasing order."""
    lanes = np.arange(na)
    best = np.zeros((na, m))
    pred = np.zeros((na, m), dtype=np.intp)
    for j in range(1, m):
        cand = best[:, :j] + cost(j, j)
        i = cand.argmax(axis=1)
        best[:, j] = cand[lanes, i]
        pred[:, j] = i
    closing = best + cost(0, m)
    last = closing.argmax(axis=1)

    def chain(a: int) -> list[int]:
        back = pred[a].tolist()
        j = int(last[a])
        out = [j]
        while j > 0:
            j = back[j]
            out.append(j)
        return out[::-1]

    return closing[lanes, last], chain


class TestBacktrack:
    """_backtrack against a per-lane closure that sorts the rotated chain."""

    @pytest.mark.parametrize("m", (1, 2, 3, 7, 16, 40))
    @pytest.mark.parametrize("na", (1, 5, 400))
    def test_matches_per_lane_closure(self, na, m):
        """Random and small-integer (tie-heavy) costs; a random subset of
        lanes in random order with random anchors, and every lane at once."""
        rng = np.random.default_rng(na * 100 + m)
        for cost in (rng.random((na, m, m)), rng.integers(0, 3, size=(na, m, m)).astype(float)):
            totals, pred, last = _chain_dp(lambda j, k: cost[:, :k, j], na, m)
            want_totals, chain = _closure_chain_dp(lambda j, k: cost[:, :k, j], na, m)
            assert np.array_equal(totals, want_totals)
            for lanes in (rng.permutation(na)[: max(1, na // 3)], np.arange(na)):
                anchors = rng.integers(0, m, size=len(lanes)).tolist()
                want = [sorted((a + x) % m for x in chain(i)) for i, a in zip(lanes, anchors)]
                assert _backtrack(pred, last, lanes, anchors) == want

    @pytest.mark.parametrize("p", P_VALUES)
    def test_lane_partitions_on_tie_grids(self, p):
        """_pvar_lanes partitions on the ternary and integer grids, against
        each lane rotated to its first maximum and backtracked by the
        closure."""
        rng = np.random.default_rng(2018)
        ternary = (0.0, 1.0, 2.0)
        blocks = [np.array(list(itertools.product(ternary, repeat=n))) for n in range(2, 7)]
        blocks += [rng.integers(-3, 4, size=(3, n)).astype(float) for n in range(2, 41)]
        for rows in blocks:
            na, n = rows.shape
            anchors = rows.argmax(axis=1)
            rot = rows[np.arange(na)[:, None], (anchors[:, None] + np.arange(n)) % n]
            col = rot.T[:, :, None]
            _, chain = _closure_chain_dp(lambda j, k: np.abs(col[j] - rot[:, :k]) ** p, na, n)
            want = [tuple(sorted((x + a) % n for x in chain(i))) for i, a in enumerate(anchors)]
            assert [idx for _, idx in _pvar_lanes(rows, Exponent(p))] == want


def _unrestricted_lanes(a: np.ndarray, p: Exponent) -> list[tuple[float, tuple[int, ...]]]:
    """Reference for _pvar_lanes: the anchored chain DP over every sample of
    each lane, with no restriction to its extrema.  The lanes run as one
    block; a lane's result does not depend on its block."""
    na, n = a.shape
    anchors = a.argmax(axis=1)
    rot = a[np.arange(na)[:, None], (anchors[:, None] + np.arange(n)) % n]
    col = rot.T[:, :, None]
    _, pred, last = _chain_dp(lambda j, k: np.abs(col[j] - rot[:, :k]) ** p.p, na, n)
    chains = _backtrack(pred, last, slice(None), anchors.tolist())
    return [(_sum_value(row, idx, p.p), tuple(idx)) for row, idx in zip(a.tolist(), chains)]


def _reference_lanes() -> dict[str, np.ndarray]:
    """Lane blocks on which the DP on the extrema must match the reference
    bit for bit: Gaussian, random walks, tents and sines of several
    frequencies (long monotone runs), and integer and {0, 1, 2}-valued
    lanes (plateaus and exact ties); and small blocks of at most 64
    samples, of one lane of 2 to 64 samples or a few short lanes, where
    few or no samples drop."""
    rng = np.random.default_rng(29)
    blocks = {
        "gaussian": rng.normal(size=(64, 33)),
        "walk": np.cumsum(rng.normal(size=(8, 400)), axis=1),
        "tent": np.array([gen_tent_scaled(k, 240).samples for k in (1, 2, 3, 5, 8, 24)]),
        "sine": np.array([gen_sine(k, 240).samples for k in (1, 2, 3, 5, 12)]),
        "integer": rng.integers(-3, 4, size=(200, 20)).astype(float),
        "ternary": np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=7))),
    }
    small = np.random.default_rng(64)
    for na, n in ((1, 2), (1, 5), (1, 64), (4, 16), (3, 7)):
        blocks[f"small_gaussian_{na}x{n}"] = small.normal(size=(na, n))
    blocks["small_rounded_5x9"] = np.round(small.normal(size=(5, 9)), 1)
    blocks["small_ternary_8x8"] = small.integers(0, 3, size=(8, 8)).astype(float)
    for n in range(2, 12):
        blocks[f"small_ternary_1x{n}"] = small.integers(0, 3, size=(1, n)).astype(float)
    return blocks


REFERENCE_LANES = _reference_lanes()


def _rank_grid(row: np.ndarray) -> Grid1:
    """The samples' ranks (equal samples share one) as a grid of small
    integers.  At p = 1 the partitions that attain the total variation are
    those whose arcs are monotone, which the order of the samples alone
    decides; so _fewest_points_dp on the ranks, where every sum is exact,
    returns the fewest-points partition of the samples without rounding."""
    return Grid1(np.unique(row, return_inverse=True)[1].astype(float))


def _on_extrema(rows: np.ndarray, parts) -> np.ndarray:
    """Whether every point of each lane's partition is an _extrema point of
    the lane rotated to its first maximum."""
    na, n = rows.shape
    anchors = rows.argmax(axis=1)
    pos, _ = _extrema(rows[np.arange(na)[:, None], (anchors[:, None] + np.arange(n)) % n])
    return np.array([np.isin((np.array(idx) - a) % n, k).all()
                     for k, idx, a in zip(pos, parts, anchors)])


class TestTurningPoints:
    """At p > 1, _pvar_lanes runs its chain DP on each lane's _extrema
    points only; at p = 1 it runs none."""

    @pytest.mark.parametrize("p", (1.0, 1.1, 1.5, 2.0, 3.0))
    @pytest.mark.parametrize("name", sorted(REFERENCE_LANES))
    def test_matches_unrestricted_dp(self, name, p):
        """At p > 1, == the unrestricted DP.  At p = 1, where the DP's choice
        among exactly tied partitions follows its rounding, the value is at
        least the DP's and the partition is the fewest-points one."""
        rows, pe = REFERENCE_LANES[name], Exponent(p)
        got, want = list(_pvar_lanes(rows, pe)), _unrestricted_lanes(rows, pe)
        if p > 1.0:
            assert got == want
            return
        for row, (value, idx), (dp_value, _) in zip(rows, got, want):
            assert value >= dp_value, row
            assert CyclicPartition(idx) == _fewest_points_dp(_rank_grid(row), pe)[1], row

    @pytest.mark.parametrize("name", ("walk", "sine"))
    def test_matches_unrestricted_dp_at_16384(self, name):
        """One lane of 16,384 samples, where the reference takes about 1 s."""
        n = 16384
        walk = np.cumsum(np.random.default_rng(n).normal(size=n))
        rows = (walk if name == "walk" else gen_sine(4, n).samples)[None, :]
        assert list(_pvar_lanes(rows, Exponent(1.5))) == _unrestricted_lanes(rows, Exponent(1.5))

    def test_never_below_on_rounded_difference_sections(self):
        """Difference sections, as section_lipschitz_check forms them, of
        0.1-rounded fields and of random_corpus_2d fields at 12^2, 16^2 and
        32^2.  The first hold steps of an ulp or so, so chains through a
        monotone run tie with the run's ends within rounding; the second
        are piecewise constant, so they hold plateaus inside monotone runs
        whose values differ by an ulp or so.  There the DP on the extrema
        may pick another partition than the reference, but its value is
        never below the reference's, and every point of its partition is
        an _extrema point of the rotated lane.  Some lanes come out higher,
        so the corpus reaches such ties."""
        rng = np.random.default_rng(29)
        fields = [np.round(rng.normal(size=(m, m)), 1) for m in (12, 16, 24, 32) for _ in range(3)]
        for seed in range(6):
            rng = np.random.default_rng(seed)
            fields += [g.samples for m in (12, 16, 32) for _, g in random_corpus_2d(rng, m, m, 4)]
        raised = 0
        for p in (1.1, 1.5, 2.0, 3.0):
            pe = Exponent(p)
            for a in fields:
                i, j = np.triu_indices(len(a), 1)
                for rows in (a[j] - a[i], a.T[j] - a.T[i]):
                    got = list(_pvar_lanes(rows, pe))
                    assert _on_extrema(rows, [idx for _, idx in got]).all(), p
                    got = np.array([v for v, _ in got])
                    want = np.array([v for v, _ in _unrestricted_lanes(rows, pe)])
                    assert (got >= want).all(), (p, rows[got < want])
                    raised += int((got > want).sum())
        assert raised > 0

    def test_a_plateau_inside_a_monotone_run_is_skipped(self):
        """A difference section with two plateaus an ulp apart on its way
        down from 0: the DP on every sample starts the partition at the
        upper one, inside the run, and the DP on the extrema at the lower
        one, with the same value."""
        lane = [0.0] * 2 + [-0.17615544388284568] * 3 + [-0.1761554438828457] * 4
        lane += [1.7903864484598284] * 3 + [-0.1761554438828457] * 3 + [0.0] * 17
        rows, pe = np.array([lane]), Exponent(1.1)
        assert _unrestricted_lanes(rows, pe) == [(3.928414732068349, (2, 9, 12, 15))]
        assert list(_pvar_lanes(rows, pe)) == [(3.928414732068349, (5, 9, 12, 15))]

    @pytest.mark.parametrize("k", (1, 4, 32))
    def test_chain_dp_sees_only_the_turning_points(self, k, monkeypatch):
        """gen_tent_scaled(k, 4096) has 2k extrema: the DP takes 2k
        positions at p = 1.5, and p = 1 calls no DP."""
        sizes = []

        def counted(cost, na, m):
            sizes.append(m)
            return chain_dp(cost, na, m)

        chain_dp = pvar1d._chain_dp
        monkeypatch.setattr(pvar1d, "_chain_dp", counted)
        g = gen_tent_scaled(k, 4096)
        pvar_cyclic(g, Exponent(1.5))
        pvar_cyclic(g, Exponent(1.0))
        assert sizes == [2 * k]

    def test_the_rounding_tie_grid_keeps_every_sample(self):
        """All six samples of the strict-xfail grid of TestAgainstOracle are
        extrema, so its DP is the one it was and the xfail stays."""
        rot = np.array([[0.5, -0.5, 0.1, -0.7, 0.0, -0.6]])  # rotated to its maximum
        pos, count = _extrema(rot)
        assert pos.tolist() == [list(range(6))] and count.tolist() == [6]


def _p1_corpus() -> list[np.ndarray]:
    """20,160 lanes in blocks of 80, for N = 2..64: Gaussian, 0.1-rounded,
    {0, 1, 2}-valued, and differences of two 0.1-rounded vectors (as
    section_lipschitz_check forms difference sections), where steps of an
    ulp or so put chains within rounding of a tie."""
    rng = np.random.default_rng(14)
    blocks = []
    for n in range(2, 65):
        blocks += [
            rng.normal(size=(80, n)),
            np.round(rng.normal(size=(80, n)), 1),
            rng.integers(0, 3, size=(80, n)).astype(float),
            np.round(rng.normal(size=(80, n)), 1) - np.round(rng.normal(size=(80, n)), 1),
        ]
    return blocks


class TestClosedForm:
    """At p = 1, _pvar_lanes returns the total variation in closed form."""

    def test_equals_the_total_variation(self, monkeypatch):
        """== the exactly rounded sum over every sample (_reference_sum_p1)
        on every lane of _p1_corpus, with no _chain_dp call.  The
        unrestricted DP falls below it on some lanes (21 of 20,160), so the
        corpus reaches rounding ties."""
        pe = Exponent(1.0)
        below = 0
        for rows in _p1_corpus():
            want = [_reference_sum_p1(row) for row in rows.tolist()]
            below += sum(v < w for (v, _), w in zip(_unrestricted_lanes(rows, pe), want))
            with monkeypatch.context() as m:
                m.setattr(pvar1d, "_chain_dp", None)
                got = [value for value, _ in _pvar_lanes(rows, pe)]
            assert got == want, rows
        assert below > 0

    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_oracle(self, n):
        """== pvar_oracle on the oracle grids and the p = 1 grids
        (subnormals, signed zeros, samples up to 10^299)."""
        pe = Exponent(1.0)
        for samples in _oracle_grids(n) + _p1_grids(n):
            g = Grid1(samples)
            assert pvar_cyclic(g, pe)[0] == pvar_oracle(g, pe), samples


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


def _abs_pow_inputs() -> dict[str, np.ndarray]:
    """Blocks with no zeros, 10 %, 50 % and 100 % zeros, signed zeros, ones,
    subnormals (small: numpy powers them slowly) and powers that overflow,
    and a 2-D block."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=4096)
    out = {"no_zeros": x}
    for frac in (0.1, 0.5, 1.0):
        out[f"zeros_{frac:.0%}"] = np.where(rng.random(x.size) < frac, 0.0, x)
    out["signed_zeros"] = np.where(rng.random(x.size) < 0.3, rng.choice([0.0, -0.0], x.size), x)
    out["ones"] = rng.choice([1.0, -1.0, 0.0, -0.0, 0.5], x.size)
    out["subnormals"] = rng.integers(-1000, 1000, 256) * 5e-324 + rng.choice([0.0, 1.0], 256)
    out["overflow"] = rng.choice([0.0, 1e160, -1e200, 1e300, -3.0], 512)
    out["block_2d"] = out["zeros_10%"].reshape(8, 512)
    return out


ABS_POW_INPUTS = _abs_pow_inputs()


class TestAbsPow:
    """_abs_pow, which powers blocks with ones in their zeros' place, keeps
    the bits of np.abs(x) ** p, and works in place."""

    @pytest.mark.parametrize("p", P_VALUES + (1.1, 8.0))
    @pytest.mark.parametrize("name", sorted(ABS_POW_INPUTS))
    def test_bits_of_numpy_power(self, name, p):
        x = ABS_POW_INPUTS[name]
        d = x.copy()
        with np.errstate(over="ignore"):
            want = np.abs(x) ** p
            got = _abs_pow(d, p)
        assert got is d
        assert got.tobytes() == want.tobytes()
