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
    pvar_cyclic,
    staircase_net_bound,
    vitali_ascent,
    vitali_finest,
    vitali_oracle,
    vitali_sum,
)
from pvarlab import vitali2d
from pvarlab.vitali2d import (
    _BLOCK,
    MAX_SWEEPS,
    ORACLE_MAX_SIDE,
    RESTARTS,
    _cell_terms,
    _chain_max,
    _half_steps,
    _root,
)

P_VALUES = (1.0, 1.5, 2.0, 3.0)


def _rowdiff(a: np.ndarray) -> np.ndarray:
    """Cyclic differences along the rows: a[i + 1] - a[i], last row wrapping."""
    return np.roll(a, -1, axis=0) - a


def _coldiff(a: np.ndarray) -> np.ndarray:
    """Cyclic differences along the columns: a[:, j + 1] - a[:, j], wrapping."""
    return np.roll(a, -1, axis=1) - a


def _fused_costs(profiles: np.ndarray, pp: float) -> np.ndarray:
    """Reference pair costs of one (M, N) profile matrix, as a stack of one:
    cost[0, r, r'] = sum_j |profiles[r', j] - profiles[r, j]|^pp, from the
    whole M x M x N array of terms at once.  numpy's summation order follows
    the memory layout, so the profiles are laid out column by column, as
    a[:, idx] lays out the ascent's."""
    d = np.asfortranarray(profiles)
    return (np.abs(d[None, :, :] - d[:, None, :]) ** pp).sum(axis=2)[None]


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
    cells = _coldiff(_rowdiff(f.samples[np.ix_(rows, cols)]))
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
            rd = _rowdiff(f.samples[list(rows), :])
            for cols in col_subsets:
                cells = _coldiff(rd[:, cols])
                v = _root(math.fsum(abs(float(x)) ** pp for x in cells.ravel()), pp)
                if v > best:
                    best = v
    return best


def _loop_exhaustive_ascent(f: Grid2, p: Exponent) -> AscentResult:
    """Reference for vitali_ascent when a side has at most 8 samples:
    vitali_sum on the net of every chain of that side, the other side
    solved by one _chain_max call per chain on its _fused_costs; the first
    net attaining the largest value wins."""
    pp = p.p
    transpose = f.m < f.n
    a2 = f.samples.T if transpose else f.samples
    best = None
    for size in range(1, a2.shape[1] + 1):
        for cols in itertools.combinations(range(a2.shape[1]), size):
            _, rows = _chain_max(_fused_costs(_coldiff(a2[:, list(cols)]), pp))[0]
            rws, cls = (list(cols), rows) if transpose else (rows, list(cols))
            net = Net(CyclicPartition(tuple(rws)), CyclicPartition(tuple(cls)))
            value = vitali_sum(f, net, p)
            if best is None or value > best[0]:
                best = (value, net)
    return AscentResult(best[0], best[1], True)


def _loop_iterative_ascent(f: Grid2, p: Exponent, seed: int = 0) -> AscentResult:
    """Reference for vitali_ascent when both sides exceed 8 samples.

    Starts: the finest net, the half-offset net (rows 0, 2, ..., columns 1,
    3, ...) when both sides are even, and RESTARTS random column chains
    drawn from default_rng(seed).  Each run alternates the best row chain
    given the columns and the best column chain given the rows, each by
    _chain_max on the _fused_costs of np.roll profiles,
    until a sweep gains nothing (relative 1e-13) or MAX_SWEEPS sweeps; the
    first run with the strictly largest vitali_sum wins."""
    m, n, pp, a = f.m, f.n, p.p, f.samples
    starts = [(list(range(m)), list(range(n)))]
    if m % 2 == 0 and n % 2 == 0:
        starts.append((list(range(0, m, 2)), list(range(1, n, 2))))
    rng = np.random.default_rng(seed)
    for _ in range(RESTARTS):
        size = int(rng.integers(1, n + 1))
        starts.append((list(range(m)), sorted(rng.choice(n, size=size, replace=False).tolist())))
    best = None
    for rows, cols in starts:
        obj = float(np.sum(np.abs(_coldiff(_rowdiff(a[np.ix_(rows, cols)]))) ** pp))
        converged = False
        for _ in range(MAX_SWEEPS):
            _, rows = _chain_max(_fused_costs(_coldiff(a[:, cols]), pp))[0]
            val, cols = _chain_max(_fused_costs(_rowdiff(a[rows, :]).T, pp))[0]
            if val <= obj * (1.0 + 1e-13) + 1e-300:
                converged = True
                break
            obj = val
        net = Net(CyclicPartition(tuple(rows)), CyclicPartition(tuple(cols)))
        value = vitali_sum(f, net, p)
        if best is None or value > best.value:
            best = AscentResult(value, net, converged)
    return best


def _iterative_fields() -> list[Grid2]:
    """Fields with both sides above 8: Gaussian, {0, 1, 2}- and {0, 1}-valued
    fields, the 16^2 and 32^2 staircases, which take the half-offset start,
    and a 10 x 16 staircase-like indicator plus a sparse lattice, on which
    the half-offset run alone attains the largest value at p = 3 and seed
    0.  The {0, 1}-valued 9 x 12 field has runs that tie in value on
    different nets at p = 3, so the first-run tie rule shows.  The 12 x 10
    Gaussian and 11 x 12 {0, 1}-valued fields drawn from seeds 75 and 131
    have runs that meet at different sweep counts."""
    i, j = np.indices((10, 16))
    lattice = (i * 16 < (j + 1) * 10).astype(float) + ((i + j) % 4 == 0)
    fields = [gen_staircase(16), gen_staircase(32), Grid2(lattice)]
    rng = np.random.default_rng(75)
    shape = int(rng.integers(9, 14)), int(rng.integers(9, 14))  # (12, 10)
    fields.append(Grid2(rng.normal(size=shape)))
    rng = np.random.default_rng(131)
    shape = int(rng.integers(9, 14)), int(rng.integers(9, 14))  # (11, 12)
    fields.append(Grid2(rng.integers(0, 2, size=shape).astype(float)))
    for m, n in ((9, 9), (9, 12), (12, 9), (16, 16), (12, 32), (32, 32)):
        rng = np.random.default_rng(m * 100 + n)
        fields += [
            Grid2(rng.normal(size=(m, n))),
            Grid2(rng.integers(0, 3, size=(m, n)).astype(float)),
            Grid2(rng.integers(0, 2, size=(m, n)).astype(float)),
        ]
    return fields


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
        filter.  At 9 x 9 the ascent takes its iterative branch."""
        for side in (2, 9):
            f = Grid2((-1.0) ** np.add.outer(np.arange(side), np.arange(side)) * 2.0**1021)
            oracle = (vitali_oracle,) if side <= ORACLE_MAX_SIDE else ()
            for fn in oracle + (vitali_finest, vitali_ascent):
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
    """The batched oracle and both ascent branches against per-net and
    per-run loops, compared with ==.  Grid2 needs two samples per side, so
    the thinnest shapes are 2 x 7 and 7 x 2."""

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

    @pytest.mark.parametrize("seed", (0, 5))
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_iterative_ascent_matches_loop(self, p, seed):
        pe = Exponent(p)
        for f in _iterative_fields():
            assert vitali_ascent(f, pe, seed=seed) == _loop_iterative_ascent(f, pe, seed), f.samples

    @pytest.mark.parametrize("sweeps", (1, 2, 3))
    @pytest.mark.parametrize("seed", (0, 5))
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_iterative_ascent_matches_loop_at_sweep_budget(self, p, seed, sweeps, monkeypatch):
        """MAX_SWEEPS set in both implementations: runs stop unconverged, so
        the comparison also covers converged = False (a winner at 1 sweep).  Runs can reach one
        column chain at different sweep counts; a run ended on meeting a
        chain an earlier run passed, and given that run's result, changes
        the value on the 12 x 10 Gaussian field at 2 sweeps, p = 3, and the
        converged flag on the 11 x 12 {0, 1}-valued field at 3 sweeps,
        p = 2 (both at seed 0)."""
        monkeypatch.setattr(vitali2d, "MAX_SWEEPS", sweeps)
        monkeypatch.setitem(globals(), "MAX_SWEEPS", sweeps)
        pe = Exponent(p)
        fields = _iterative_fields()
        results = [vitali_ascent(f, pe, seed=seed) for f in fields]
        for f, result in zip(fields, results):
            assert result == _loop_iterative_ascent(f, pe, seed), f.samples
        if sweeps == 1:
            assert not all(r.converged for r in results)

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    @pytest.mark.parametrize("f", [Grid2(np.random.default_rng(32).normal(size=(32, 32))),
                                   gen_staircase(32)], ids=["gaussian", "staircase"])
    def test_iterative_ascent_computes_each_step_once(self, f, p, monkeypatch):
        """Within one call no half-step (a chain of a _half_steps call, by
        orientation of a and fixed chain) is computed twice, whichever block
        it is solved in, and no net is valued twice.  The Gaussian field's
        runs meet chains and nets that other runs reached; the staircase's
        end on ten distinct nets."""
        steps, nets = [], []

        def half_steps(a, chains, pp):
            steps.extend((a.strides, tuple(chain)) for chain in chains)
            return _half_steps(a, chains, pp)

        def value(g, net, pe):
            nets.append(net)
            return vitali_sum(g, net, pe)

        monkeypatch.setattr(vitali2d, "_half_steps", half_steps)
        monkeypatch.setattr(vitali2d, "vitali_sum", value)
        result = vitali_ascent(f, Exponent(p))
        assert len(set(steps)) == len(steps)
        assert len(set(nets)) == len(nets)
        assert result.net in nets

    def test_peak_memory_at_the_size_cap(self):
        f = Grid2(np.random.default_rng(7).normal(size=(ORACLE_MAX_SIDE, ORACLE_MAX_SIDE)))
        tracemalloc.start()
        try:
            vitali_oracle(f, Exponent(1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 127 x 127 naive sums take 126 KiB

    @pytest.mark.parametrize("side", (64, 128))
    def test_iterative_ascent_peak_memory(self, side):
        """The runs' half-steps go in blocks of _BLOCK // (4 M^2) chains
        (at least one), so a block's doubled tiles hold at most
        tile = max(_BLOCK, 4 M^2) floats.  The block's profile, its cost
        stack and the chain DP's scores, predecessors, candidates and
        sliced costs hold at most S M^2 values each, a quarter of the
        tiles: about 2.5 tiles in all, 3.2 as measured at both sizes.  The
        limit is four tiles (1 MiB at 64^2, 2 MiB at 128^2).  Solving all
        of a sweep's chains in one call peaks at 3.4 and 13.5 MiB."""
        f = Grid2(np.random.default_rng(side).normal(size=(side, side)))
        tile = 8 * max(_BLOCK, 4 * side * side)
        tracemalloc.start()
        try:
            vitali_ascent(f, Exponent(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * tile


def _exhaustive_fields(m: int, n: int) -> list[Grid2]:
    """Gaussian, {0, 1, 2}- and {0, 1}-valued fields; the last two are full
    of ties between chains, anchors and nets."""
    rng = np.random.default_rng(m * 1000 + n)
    return [
        Grid2(rng.normal(size=(m, n))),
        Grid2(rng.integers(0, 3, size=(m, n)).astype(float)),
        Grid2(rng.integers(0, 2, size=(m, n)).astype(float)),
    ]


def _bits(r: AscentResult) -> tuple[str, Net, bool]:
    return r.value.hex(), r.net, r.converged


STACK_P = (1.0, 1.1, 1.5, 2.0, 3.0, 8.0)


class TestStackedExhaustive:
    """The exhaustive branch runs each block of consecutive chains of the
    smaller side, whatever their sizes, as one half-step routine
    (_half_steps) and one chain DP.  Its value (by float.hex), net and
    converged flag must be those of the per-chain loop
    _loop_exhaustive_ascent.  Grid2 needs two samples per side, so the
    shapes start at 2 x 2."""

    @pytest.mark.parametrize("p", STACK_P)
    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_per_chain_loop(self, m, p):
        pe = Exponent(p)
        for n in range(2, 9):
            for f in _exhaustive_fields(m, n):
                want = _bits(_loop_exhaustive_ascent(f, pe))
                assert _bits(vitali_ascent(f, pe)) == want, f.samples

    @pytest.mark.parametrize("p", STACK_P)
    @pytest.mark.parametrize("shape", [(3, 40), (33, 8), (6, 128)])
    def test_matches_per_chain_loop_on_tall_fields(self, shape, p):
        pe = Exponent(p)
        fields = _exhaustive_fields(*shape)
        for f in fields if shape[1] < 100 else fields[:1]:  # 6 x 128: Gaussian only, for time
            assert _bits(vitali_ascent(f, pe)) == _bits(_loop_exhaustive_ascent(f, pe)), f.samples

    @pytest.mark.parametrize("per_block", (1, 2, 3))
    @pytest.mark.parametrize("p", (1.0, 3.0))
    @pytest.mark.parametrize("shape", [(5, 5), (7, 4), (3, 8), (3, 40), (6, 10)])
    def test_matches_per_chain_loop_in_small_blocks(self, shape, p, per_block, monkeypatch):
        """_BLOCK set so that a block holds per_block consecutive chains in
        enumeration order, the last block fewer, so blocks can mix sizes:
        at 5 x 5 with 2 per block the fifth size-1 chain shares a block
        with the first size-2 chain.  Each block is one _chain_max stack,
        and each chain of a block gets the half-step it gets alone.  (The
        best net alone would not show a block whose chains all took the
        block's best lane: the net that wins is usually that lane's own.)"""
        pe = Exponent(p)
        side = max(shape)
        blocks, stacks, results = [], [], []

        def recording(a, chains, pp):
            result = _half_steps(a, chains, pp)
            blocks.append(list(chains))
            results.append((a, result))
            return result

        def chain_max(cost):
            stacks.append(len(cost))
            return _chain_max(cost)

        for f in _exhaustive_fields(*shape):
            want = _bits(_loop_exhaustive_ascent(f, pe))
            with monkeypatch.context() as patch:
                patch.setattr(vitali2d, "_BLOCK", per_block * 4 * side * side)
                patch.setattr(vitali2d, "_half_steps", recording)
                patch.setattr(vitali2d, "_chain_max", chain_max)
                assert _bits(vitali_ascent(f, pe)) == want, f.samples
        for chains, (a, result) in zip(blocks, results):
            for c, got in zip(chains, result):
                assert got == _half_steps(a, [c], p)[0]
        k = min(shape)
        chains = [c for size in range(1, k + 1) for c in itertools.combinations(range(k), size)]
        runs = [chains[i : i + per_block] for i in range(0, len(chains), per_block)]
        assert blocks == runs * 3
        assert stacks == [len(run) for run in runs] * 3
        if (shape, per_block) == ((5, 5), 2):
            assert runs[2] == [(4,), (0, 1)]

    @pytest.mark.parametrize(
        "shape, stacks", [((6, 6), [63]), ((8, 8), [128, 127]), ((6, 128), [1] * 63)]
    )
    def test_one_chain_dp_per_block(self, shape, stacks, monkeypatch):
        """Chains of every size share a block of _BLOCK // (4 M^2): a 6 x 6
        field takes one chain DP of 63 matrices (blocks of one size would
        take six), 8 x 8 two, and 6 x 128 one chain per block."""
        calls = []

        def chain_max(cost):
            calls.append(len(cost))
            return _chain_max(cost)

        monkeypatch.setattr(vitali2d, "_chain_max", chain_max)
        vitali_ascent(_exhaustive_fields(*shape)[0], Exponent(2.0))
        assert calls == stacks

    def test_peak_memory_on_a_tall_field(self):
        """6 x 128: one chain per block, so no block holds more than one
        doubled 128 x 128 tile (512 KiB); a version that holds all M^3
        rotated costs at once needs 16 MiB."""
        f = Grid2(np.random.default_rng(6).normal(size=(6, 128)))
        tracemalloc.start()
        try:
            vitali_ascent(f, Exponent(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20)

    def test_peak_memory_at_two_chains_per_block(self):
        """8 x 64: two chains per block, so a block holds two doubled 64 x 64
        tiles (256 KiB) and the row blocks of its terms are released before
        its chain DP."""
        f = Grid2(np.random.default_rng(8).normal(size=(8, 64)))
        tracemalloc.start()
        try:
            vitali_ascent(f, Exponent(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20)


class TestAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(P_VALUES))
    def test_ascent_never_exceeds_oracle(self, seed, p):
        f = _random_field(seed)
        pe = Exponent(p)
        assert vitali_ascent(f, pe).value <= vitali_oracle(f, pe) + 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="the exhaustive ascent's chain DP picks each half-step by naive "
        "float sums, so on nets that tie within rounding it can fall an ulp "
        "below the oracle",
    )
    def test_exhaustive_ascent_matches_oracle_on_a_rounding_tie(self):
        """A 0.1-rounded 3 x 2 field at p = 2: the ascent gives
        0x1.6666666666666p+0, the oracle 0x1.6666666666667p+0."""
        f = Grid2(np.array([[-0.1, -0.5], [-0.3, 0.0], [0.5, 0.1]]))
        pe = Exponent(2.0)
        assert vitali_ascent(f, pe).value == vitali_oracle(f, pe)

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
                assert _chain_max(cost[None]) == [_per_anchor_chain_max(cost)]

    @pytest.mark.parametrize("m", (1, 2, 3, 6, 8, 17))
    def test_stack_matches_each_matrix(self, m):
        """A stack of S matrices is S*M lanes of one chain DP: each matrix
        gets the result it gets alone, its anchor chosen among its own
        lanes only.  Small-integer costs tie across anchors and matrices."""
        rng = np.random.default_rng(m + 100)
        for stack in (
            rng.random((7, m, m)),
            rng.integers(0, 4, size=(9, m, m)).astype(float),
            rng.integers(0, 2, size=(5, m, m)).astype(float),
        ):
            assert _chain_max(stack) == [_per_anchor_chain_max(cost) for cost in stack]

    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_per_anchor_dp_inside_ascent(self, p, monkeypatch):
        """Every pair-cost matrix the ascent meets, on small grids (chain
        enumeration, many matrices per stacked call) and on larger ones
        (alternating sweeps, one matrix per call)."""
        calls = []

        def recording(cost):
            result = _chain_max(cost)
            calls.extend(zip(cost.copy(), result))
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


def _half_step_costs(a: np.ndarray, chains, pp: float, monkeypatch) -> np.ndarray:
    """The pair-cost stack that _half_steps(a, chains, pp) solves."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(vitali2d, "_chain_max", lambda cost: seen.append(cost.copy()) or [])
        _half_steps(a, chains, pp)
    (cost,) = seen
    return cost


class TestPairCosts:
    """The pair costs _half_steps hands to _chain_max."""

    @pytest.mark.parametrize("m, n", [(1, 3), (5, 7), (33, 40), (64, 64), (128, 64), (40, 1000)])
    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_fused_expression(self, m, n, p, monkeypatch):
        """Row blocks (one block, a partial last block, one row per block)
        give the M x M x N expression bit for bit."""
        a = np.random.default_rng(m * n).normal(size=(m, n))
        costs = _half_step_costs(a, [tuple(range(n))], p, monkeypatch)
        assert np.array_equal(costs, _fused_costs(_coldiff(a), p))

    @pytest.mark.parametrize(
        "s, m, n", [(3, 1, 2), (20, 6, 3), (7, 33, 8), (2, 128, 6), (3, 20, 40)]
    )
    @pytest.mark.parametrize("p", (1.0, 1.1, 1.5, 2.0, 3.0, 8.0))
    def test_stack_matches_each_matrix(self, s, m, n, p, monkeypatch):
        """Each chain of a block of s chains of 1 to n columns, in runs of
        equal size, read from a transposed (non-contiguous) view as the
        exhaustive ascent passes it, gets its costs alone bit for bit."""
        rng = np.random.default_rng(s * m * n)
        a = rng.normal(size=(n + 2, m)).T
        sizes = sorted(rng.integers(1, n + 1, size=s).tolist())
        chains = [tuple(sorted(rng.choice(n + 2, size=k, replace=False).tolist())) for k in sizes]
        want = [_half_step_costs(a, [c], p, monkeypatch)[0] for c in chains]
        assert np.array_equal(_half_step_costs(a, chains, p, monkeypatch), want)

    def test_peak_memory_at_64(self, monkeypatch):
        a = np.random.default_rng(0).normal(size=(64, 64))
        monkeypatch.setattr(vitali2d, "_chain_max", lambda cost: [])
        tracemalloc.start()
        try:
            _half_steps(a, [tuple(range(64))], 2.0)
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
