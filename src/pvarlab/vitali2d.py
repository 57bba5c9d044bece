"""Vitali-type p-variation of a sampled bivariate function over nets.

Three evaluators with different guarantees: the finest-net value (exact
supremum at p = 1, lower bound otherwise), an exhaustive oracle for tiny
grids, and an alternating coordinate-ascent maximizer that returns a
certified lower bound together with the net that attains it.

An exact p = 1 net sum is one fsum of every cell's signed corners, walked
one row step at a time (_signed_corners).  The oracle and the ascent's
exhaustive branch price many nets at once as naive sums of cell terms
(_cell_terms: the powered float cells vitali_sum sums at p > 1, the
correctly rounded |cells| at p = 1) and call vitali_sum only on the nets
that pvar1d._near_max cannot rule out (pvar1d._first_max), so their
results are bit for bit those of calling vitali_sum on every net.
The oracle never calls the chain DP: it is the independent reference for it.

Ascent half-steps run in blocks of column chains (_half_steps): one
profile array over every step of the block, one stack of pair costs, and
one _chain_max call, whose S matrices of side M are S*M independent lanes
of one pvar1d._chain_dp.  Both branches cut their chains into blocks of
the same width (_blocked_half_steps): the exhaustive branch's are
consecutive chains of the smaller side, whatever their sizes; the
iterative branch's are the distinct new chains of one sweep of all its
runs.  Both pick their winning net by the oracle's rule (_first_max),
skipping a lone candidate's naive pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain as _chain, combinations, groupby
from typing import Iterator, Sequence

import numpy as np

from .grid import Exponent, Grid2, gen_staircase
from .pvar1d import (
    _BLOCK,
    CyclicPartition,
    _abs_pow,
    _backtrack,
    _chain_dp,
    _chain_sums,
    _first_max,
    _members,
    _root,
)

__all__ = [
    "Net",
    "AscentResult",
    "vitali_sum",
    "vitali_finest",
    "vitali_oracle",
    "vitali_ascent",
    "certified_vitali_method",
    "certified_vitali",
    "staircase_net_bound",
    "ORACLE_MAX_SIDE",
]

ORACLE_MAX_SIDE = 7
MAX_SWEEPS = 20  # alternating half-step pairs per ascent run
RESTARTS = 8  # seeded random column starts of the ascent


@dataclass(frozen=True)
class Net:
    """A cyclic partition in each coordinate; the 2D analogue of a partition."""

    rows: CyclicPartition
    cols: CyclicPartition

    def validate(self, m: int, n: int) -> None:
        self.rows.validate(m)
        self.cols.validate(n)


@dataclass(frozen=True)
class AscentResult:
    value: float
    net: Net
    converged: bool


def vitali_sum(f: Grid2, net: Net, p: Exponent) -> float:
    """Mixed-difference sum over one net, both index chains cyclic.

    At p = 1 one fsum of every cell's signed corners (_signed_corners, one
    row step at a time), which sum exactly to the real sum of the |cells|,
    so the value is that sum correctly rounded; at p > 1 a compensated sum
    of the cells' _cell_terms.
    """
    net.validate(f.m, f.n)
    rows, cols = net.rows.indices, net.cols.indices
    if p.p == 1.0:
        return math.fsum(_chain.from_iterable(_signed_corners(f.samples, rows, cols)))
    r0, r1 = np.array([rows, rows[1:] + rows[:1]])[:, :, None]
    c0, c1 = np.array([cols, cols[1:] + cols[:1]])
    return _root(math.fsum(_cell_terms(f.samples, r0, r1, c0, c1, p.p).ravel()), p.p)


def _net(rows: Sequence[int], cols: Sequence[int]) -> Net:
    return Net(CyclicPartition(tuple(rows)), CyclicPartition(tuple(cols)))


def vitali_finest(f: Grid2, p: Exponent) -> float:
    """Value on the all-indices net: the exact discrete supremum for p = 1
    (refinement never decreases a 1-variation of mixed differences), a valid
    lower bound for p > 1."""
    return vitali_sum(f, _net(range(f.m), range(f.n)), p)


def _signed_corners(
    a: np.ndarray, rows: Sequence[int], cols: Sequence[int]
) -> Iterator[tuple[float, ...]]:
    """The corners (a, -b, -c, d) of each cell a - b - c + d of the net
    (rows, cols), negated when their fsum is negative, one row step at a
    time: two rows of samples are held as Python floats.

    fsum is correctly rounded, so the sign of fsum((a, -b, -c, d)) is the
    sign of the exact cell, and the four terms sum exactly to |cell|.  One
    fsum of every term therefore rounds the exact p = 1 net sum once, so
    nets that tie in exact arithmetic tie in floats.
    """
    for r0, r1 in _steps(rows):
        hi, lo = a[r1, cols].tolist(), a[r0, cols].tolist()
        for x, y, z, w in zip(hi[1:] + hi[:1], hi, lo[1:] + lo[:1], lo):
            t = (x, -y, -z, w)
            yield t if math.fsum(t) >= 0.0 else (-x, y, z, -w)


def _cell_terms(a: np.ndarray, r0, r1, c0, c1, pp: float) -> np.ndarray:
    """|mixed difference|^pp of the cells with row step r0 -> r1 and column
    step c0 -> c1 (broadcastable index arrays): the terms of vitali_sum at
    p > 1, and the naive prices of pvar1d._near_max at every p.

    At p > 1 each term is CPython pow of the float cell
    (a[r1, c1] - a[r0, c1]) - (a[r1, c0] - a[r0, c0]); at p = 1 it is the
    correctly rounded |exact cell|, abs(fsum((a, -b, -c, d))) of its
    corners, one fsum per cell.  Rounding is symmetric, so that is the fsum
    of the cell's _signed_corners, whose exact sum is the |cell| that
    vitali_sum's one fsum adds up.  Reversing either step only negates the
    float cell, so its term is the same.  p > 1 terms are powered a row of
    cells at a time: no list of every cell's float is held.
    """
    shape = np.broadcast(r0, r1, c0, c1).shape
    if pp == 1.0:
        corners = (a[r1, c1], -a[r1, c0], -a[r0, c1], a[r0, c0])
        terms = map(abs, map(math.fsum, zip(*(x.ravel().tolist() for x in corners))))
    else:
        cells = np.abs((a[r1, c1] - a[r0, c1]) - (a[r1, c0] - a[r0, c0]))
        terms = (x**pp for row in np.atleast_2d(cells) for x in row.tolist())
    return np.fromiter(terms, dtype=float, count=math.prod(shape)).reshape(shape)


def _steps(idx: Sequence[int]) -> list[tuple[int, int]]:
    """The cyclically consecutive pairs of a chain, wrap step last."""
    return list(zip(idx, idx[1:] + idx[:1]))


def _flat(chains) -> np.ndarray:
    """The indices of an iterable of chains, concatenated."""
    return np.fromiter(_chain.from_iterable(chains), np.intp)


def _naive_sums(a: np.ndarray, nets: Sequence[tuple[Sequence[int], ...]], pp: float) -> np.ndarray:
    """Float sum of the _cell_terms of each net (rows, cols), for
    pvar1d._near_max; it prices both vitali_ascent branches' candidates.
    A net's cells run row step by row step, each over every column step,
    as the index arrays np.repeat and a per-net tiling of the step arrays
    give them.  A net has at most a.size cells, so blocks of
    _BLOCK // (4 a.size) whole nets hold at most _BLOCK corner samples (the
    p = 1 terms list four per cell) and the working memory does not grow
    with the number of nets.  Each net's terms are summed within its own
    block, so the blocking does not change its sum."""
    width = max(1, _BLOCK // (4 * a.size))
    out = []
    for i in range(0, len(nets), width):
        rows, cols = zip(*nets[i : i + width])
        nr = np.fromiter(map(len, rows), np.intp, len(rows))
        nc = np.fromiter(map(len, cols), np.intp, len(cols))
        size = nr * nc
        starts = np.cumsum(size) - size
        # each cell's position in its net's column chain, then in all of cols
        at = np.arange(size.sum()) - np.repeat(starts, size)
        at = at % np.repeat(nc, size) + np.repeat(np.cumsum(nc) - nc, size)
        r0, r1 = _flat(rows), _flat(r[1:] + r[:1] for r in rows)
        c0, c1 = _flat(cols), _flat(c[1:] + c[:1] for c in cols)
        per_row = np.repeat(nc, nr)
        cells = (np.repeat(r0, per_row), np.repeat(r1, per_row), c0[at], c1[at])
        out.append(np.add.reduceat(_cell_terms(a, *cells, pp), starts))
    return np.concatenate(out)


def vitali_oracle(f: Grid2, p: Exponent) -> float:
    """Brute-force maximum of vitali_sum over every net; grids up to 7 x 7.

    Naive pass: a net's p-th-power sum is the sum, over its row steps and
    column steps, of one cell term each (_cell_terms, priced once per pair
    of row pairs and column pairs; a reversed step has the same term, and a
    one-member chain's step to itself has term 0).  pvar1d._chain_sums over
    the columns, one lane per row step, gives each column subset's price of
    every row step; _chain_sums over the rows, one lane per column subset,
    then prices all (2^M - 1)(2^N - 1) nets, each as a float sum of the
    net's at most MN terms.  Exact pass: pvar1d._first_max with vitali_sum,
    which evaluates only the nets pvar1d._near_max keeps; the largest of
    those values is the largest over all nets.  No chain DP is used.
    """
    m, n = f.m, f.n
    if m > ORACLE_MAX_SIDE or n > ORACLE_MAX_SIDE:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_SIDE}x{ORACLE_MAX_SIDE} grids, got {m}x{n}"
        )
    ri, rj = np.array(list(combinations(range(m), 2))).T
    ci, cj = np.array(list(combinations(range(n), 2))).T
    terms = _cell_terms(f.samples, ri[:, None], rj[:, None], ci, cj, p.p)
    cost = np.zeros((n, n, m, m))  # cost[c0, c1, r0, r1]: the cell (r0 -> r1, c0 -> c1)
    for r0, r1 in ((ri, rj), (rj, ri)):
        for c0, c1 in ((ci, cj), (cj, ci)):
            cost[c0, c1, r0[:, None], r1[:, None]] = terms
    per_cols = _chain_sums(cost)  # (2^N - 1, M, M)
    naive = _chain_sums(per_cols.transpose(1, 2, 0)).ravel()

    def value(i: int) -> float:
        rmask, cmask = divmod(i, (1 << n) - 1)
        return vitali_sum(f, _net(_members(rmask + 1, m), _members(cmask + 1, n)), p)

    return _first_max(naive, m * n, p.p, value)[1]


def _chain_max(cost: np.ndarray) -> list[tuple[float, list[int]]]:
    """Maximize the sum of step costs over cyclic index chains, for each
    matrix of a stack.

    cost[s, i, j] is matrix s's price of the step i -> j.  Every anchor is
    tried (the 1D global-max anchor argument does not transfer to
    vector-valued pair costs), each as one lane of pvar1d._chain_dp, so S
    matrices of side M are S*M lanes: O(M^3) time and O(M^2) memory per
    matrix.  oc[s, a, y, x] = cost[s, (a + x) % m, (a + y) % m] is a
    strided view of each matrix's doubled transposed tile, so the rotated
    costs are never copied whole.  Lanes never mix, and each matrix's best
    anchor is the earliest of its own M lanes attaining their largest
    total.  Returns, per matrix, the best p-th-power sum and the chain as
    sorted indices (pvar1d._backtrack).
    """
    s, m = cost.shape[:2]
    flat = np.tile(cost.transpose(0, 2, 1), (1, 2, 2)).ravel()
    step = flat.itemsize
    strides = (4 * m * m * step, (2 * m + 1) * step, 2 * m * step, step)
    oc = np.ndarray((s, m, m, m), flat.dtype, flat, 0, strides)
    totals, pred, last = _chain_dp(lambda j, k: oc[:, :, j, :k].reshape(s * m, k), s * m, m)
    anchors = totals.reshape(s, m).argmax(axis=1)
    lanes = anchors + m * np.arange(s)
    return list(zip(totals[lanes].tolist(), _backtrack(pred, last, lanes, anchors.tolist())))


def _half_steps(
    a: np.ndarray, chains: Sequence[Sequence[int]], pp: float
) -> list[tuple[float, list[int]]]:
    """Ascent half-steps: for each column chain of a, the best row chain
    given it and that p-th-power net sum.  One (M, T) array holds every
    chain's cyclic column differences; its |difference|^pp terms
    (pvar1d._abs_pow) go in row blocks of about _BLOCK values, each cost
    sums its chain's run of terms, and one _chain_max solves the stack, so
    each chain gets the half-step it gets alone.  The column half-step is
    the same call on a.T.

    The costs are symmetric bit for bit: |x - y| == |y - x|, and the two
    steps' terms are summed in the same order.  So each unordered row pair
    is priced once: the row block from r0 on prices only the steps to
    r' >= r0 (the first block, every step), and copies the steps to
    r' < r0 from the earlier blocks' reversed steps.  One block covering
    every row copies nothing."""
    prof = a[:, _flat(c[1:] + c[:1] for c in chains)] - a[:, _flat(chains)]
    m, t = prof.shape
    cost = np.empty((len(chains), m, m))
    out = cost.transpose(1, 2, 0)  # out[r, r', s]: chain s's price of the step r -> r'
    rows = max(1, _BLOCK // (m * t))
    for r0 in range(0, m, rows):
        terms = _abs_pow(prof[r0:] - prof[r0 : r0 + rows, None], pp)
        s0 = t0 = 0
        for c, run in groupby(map(len, chains)):
            k = len(list(run))
            view = out[r0 : r0 + rows, r0:, s0 : s0 + k]
            terms[:, :, t0 : t0 + k * c].reshape(view.shape + (c,)).sum(axis=3, out=view)
            s0, t0 = s0 + k, t0 + k * c
        if r0:
            out[r0 : r0 + rows, :r0] = out[:r0, r0 : r0 + rows].transpose(1, 0, 2)
    del terms  # the last row block's terms are not held through the DP
    return _chain_max(cost)


def _blocked_half_steps(
    a: np.ndarray, chains: Sequence[Sequence[int]], pp: float
) -> Iterator[tuple[float, list[int]]]:
    """_half_steps of each chain of a, in order, in blocks of
    _BLOCK // (4 M^2) chains (at least one), M the row count of a: a
    block's doubled M x M tiles in _chain_max hold at most _BLOCK floats
    unless it is a single chain."""
    width = max(1, _BLOCK // (4 * a.shape[0] ** 2))
    for s0 in range(0, len(chains), width):
        yield from _half_steps(a, chains[s0 : s0 + width], pp)


def vitali_ascent(f: Grid2, p: Exponent, seed: int = 0) -> AscentResult:
    """Alternating coordinate ascent over nets; a certified lower bound.

    Holding one chain fixed, the optimal chain in the other coordinate is
    found exactly by _half_steps (the all-anchor cyclic chain DP on pair
    costs), so the objective is monotone nondecreasing across sweeps.
    Chains run through _half_steps in blocks of _BLOCK // (4 M^2) (at least
    one), M the side of the chains the block picks; a block's doubled tiles
    hold at most _BLOCK floats unless it is a single chain.

    Candidates: when a side has at most 8 samples, every chain of the
    smaller side paired with its best chain of the other side, converged,
    the chains in blocks of consecutive ones, whatever their sizes.
    Otherwise the final net of each run, with the converged flag of the
    first run ending on it.  The runs start from the finest net, from the
    coarse half-offset net when both sides are even (a useful second start
    on indicator-type data), and from RESTARTS seeded random column chains;
    each stops after MAX_SWEEPS sweeps or when a sweep gains nothing.  The
    runs advance in lockstep: each half of a sweep gathers the distinct
    chains its live runs need that no earlier block solved, and solves them
    in blocks, so each half-step is computed once per call.  No run reads
    another's result, so each ends where it would alone.

    The first candidate attaining the largest vitali_sum wins
    (pvar1d._first_max on _naive_sums prices, as in vitali_oracle; a lone
    candidate is not priced), and the value is its vitali_sum.  In the
    exhaustive branch that is the discrete supremum unless nets tie within
    rounding: the chain DP picks by naive sums, so the value can fall a
    rounding error below vitali_oracle's.
    """
    m, n = f.m, f.n
    pp = p.p
    a = f.samples
    nets: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}  # (rows, cols) -> converged

    if min(m, n) <= 8:
        transpose = m < n
        a2 = a.T if transpose else a
        k = a2.shape[1]
        chains = [c for size in range(1, k + 1) for c in combinations(range(k), size)]
        for cols, (_, rows) in zip(chains, _blocked_half_steps(a2, chains, pp)):
            nets[(cols, tuple(rows)) if transpose else (tuple(rows), cols)] = True
    else:
        memo: tuple[dict, dict] = ({}, {})  # per axis: fixed chain -> (value, best other chain)

        def half_steps(axis: int, chains: list[tuple[int, ...]]) -> list:
            """memo[axis] of each chain, solving the chains not yet in it."""
            done = memo[axis]
            new = list(dict.fromkeys(c for c in chains if c not in done))
            steps = _blocked_half_steps(a.T if axis else a, new, pp)
            done.update((c, (v, tuple(other))) for c, (v, other) in zip(new, steps))
            return [done[c] for c in chains]

        starts = [(list(range(m)), list(range(n)))]
        if m % 2 == n % 2 == 0:
            starts.append((list(range(0, m, 2)), list(range(1, n, 2))))
        rng = np.random.default_rng(seed)
        for _ in range(RESTARTS):
            k = int(rng.integers(1, n + 1))
            starts.append((list(range(m)), sorted(rng.choice(n, size=k, replace=False).tolist())))
        objs, ends = [], []  # each run's objective, and its (rows, cols, converged) so far
        for rows, cols in starts:
            sub = a[np.ix_(rows, cols)]
            d = np.roll(sub, -1, 0) - sub
            objs.append(float(np.sum(_abs_pow(np.roll(d, -1, 1) - d, pp))))
            ends.append((tuple(rows), tuple(cols), False))
        live = list(range(len(starts)))
        for _ in range(MAX_SWEEPS):
            if not live:
                break
            rows = [r for _, r in half_steps(0, [ends[i][1] for i in live])]
            going = []
            for i, r, (val, cols) in zip(live, rows, half_steps(1, rows)):
                converged = val <= objs[i] * (1.0 + 1e-13) + 1e-300
                ends[i] = (r, cols, converged)
                if not converged:
                    objs[i] = val
                    going.append(i)
            live = going
        for rows, cols, converged in ends:
            nets.setdefault((rows, cols), converged)

    cands = list(nets)
    # _first_max keeps a lone candidate whatever its price, so it is not priced
    naive = _naive_sums(a, cands, pp) if len(cands) > 1 else np.zeros(1)
    i, value = _first_max(naive, m * n, pp, lambda i: vitali_sum(f, _net(*cands[i]), p))
    return AscentResult(value, _net(*cands[i]), nets[cands[i]])


def certified_vitali_method(f: Grid2, p: Exponent) -> str:
    """The evaluator that gives the best certified value of v_p^(2) on f.

    "finest" at p = 1, at every size: exact there, bit for bit the
    oracle's value (the suite's vitali_finest_p1_exact row checks it).  At
    p > 1, "oracle" (exact) when both sides are at most ORACLE_MAX_SIDE,
    else "ascent" (a certified lower bound).
    """
    if p.p == 1.0:
        return "finest"
    if f.m <= ORACLE_MAX_SIDE and f.n <= ORACLE_MAX_SIDE:
        return "oracle"
    return "ascent"


def certified_vitali(f: Grid2, p: Exponent) -> float:
    """v_p^(2) of f by the evaluator certified_vitali_method names."""
    method = certified_vitali_method(f, p)
    if method == "oracle":
        return vitali_oracle(f, p)
    if method == "finest":
        return vitali_finest(f, p)
    return vitali_ascent(f, p).value


def staircase_net_bound(n: int, p: Exponent, N: int | None = None) -> float:
    """Mixed-difference sum of the staircase on the offset net with n cells.

    Rows sit at x = i/n and columns at y = (j + 1/2)/n; the grid resolution
    N (default 2n) must be a multiple of 2n.  For n >= 2 the value is at
    least n^(1/p).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if N is None:
        N = 2 * n
    if N % (2 * n) != 0:
        raise ValueError(f"N={N} must be a multiple of 2n={2 * n}")
    f = gen_staircase(N)
    rows = [i * N // n for i in range(n)]
    cols = [(2 * j + 1) * N // (2 * n) for j in range(n)]  # increasing, all below N
    return vitali_sum(f, _net(rows, cols), p)
