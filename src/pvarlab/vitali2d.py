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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain as _chain, combinations, product
from typing import Iterator, Sequence

import numpy as np

from .grid import Exponent, Grid1, Grid2, gen_staircase
from .pvar1d import (
    _BLOCK,
    CyclicPartition,
    _chain_dp,
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


def _cyc_rowdiff(a: np.ndarray) -> np.ndarray:
    return np.vstack([a[1:], a[:1]]) - a


def _cyc_coldiff(a: np.ndarray) -> np.ndarray:
    return np.hstack([a[:, 1:], a[:, :1]]) - a


def _mixed_cells(f: Grid2, rows, cols) -> np.ndarray:
    sub = f.samples[np.ix_(rows, cols)]
    return _cyc_coldiff(_cyc_rowdiff(sub))


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


def _full_net(m: int, n: int) -> Net:
    return Net(CyclicPartition(tuple(range(m))), CyclicPartition(tuple(range(n))))


def vitali_finest(f: Grid2, p: Exponent) -> float:
    """Value on the all-indices net: the exact discrete supremum for p = 1
    (refinement never decreases a 1-variation of mixed differences), a valid
    lower bound for p > 1."""
    return vitali_sum(f, _full_net(f.m, f.n), p)


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


@lru_cache(maxsize=ORACLE_MAX_SIDE)
def _pair_incidence(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of range(s), as an (s(s-1)/2, 2) array, and the
    (2^s - 1) x s(s-1)/2 matrix whose row mask - 1 counts the steps between
    cyclically consecutive members of the subset with bitmask mask that use
    each pair (a two-member subset steps its pair both ways: 2).  Read-only;
    cached for each side the oracle accepts (s <= ORACLE_MAX_SIDE: at most
    127 x 21 entries)."""
    pairs = list(combinations(range(s), 2))
    col = {pair: q for q, pair in enumerate(pairs)}
    inc = np.zeros(((1 << s) - 1, len(pairs)))
    for mask in range(1, 1 << s):
        sub = _members(mask, s)
        if len(sub) > 1:
            for i, j in _steps(sub):
                inc[mask - 1, col[min(i, j), max(i, j)]] += 1
    idx = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    idx.setflags(write=False)
    inc.setflags(write=False)
    return idx, inc


def _steps(idx: Sequence[int]) -> list[tuple[int, int]]:
    """The cyclically consecutive pairs of a chain, wrap step last."""
    return list(zip(idx, idx[1:] + idx[:1]))


def _naive_sums(a: np.ndarray, nets: list[tuple[list[int], list[int]]], pp: float) -> np.ndarray:
    """Float sum of the _cell_terms of each net (rows, cols), for
    pvar1d._near_max.  A net has at most a.size cells, so blocks of
    _BLOCK // (4 a.size) whole nets hold at most _BLOCK corner samples (the
    p = 1 terms list four per cell) and the working memory does not grow
    with the number of nets.  Each net's terms are summed within its own
    block, so the blocking does not change its sum."""
    width = max(1, _BLOCK // (4 * a.size))
    out = []
    for i in range(0, len(nets), width):
        blk = nets[i : i + width]
        cells = np.fromiter(
            _chain.from_iterable(
                rs + cs for rws, cls in blk for rs, cs in product(_steps(rws), _steps(cls))
            ),
            dtype=np.intp,
        ).reshape(-1, 4)
        starts = np.cumsum([0] + [len(rws) * len(cls) for rws, cls in blk[:-1]])
        out.append(np.add.reduceat(_cell_terms(a, *cells.T, pp), starts))
    return np.concatenate(out)


def vitali_oracle(f: Grid2, p: Exponent) -> float:
    """Brute-force maximum of vitali_sum over every net; grids up to 7 x 7.

    Naive pass: a net's p-th-power sum is the sum, over its row steps and
    column steps, of one cell term each (_cell_terms, priced once per pair
    of row pairs and column pairs).  With Er and Ec the pair incidences of
    every row and column subset (_pair_incidence), Er @ terms @ Ec.T prices
    all (2^M - 1)(2^N - 1) nets at once; each entry is a float sum of the
    net's at most MN terms (the 0/1/2 coefficients multiply exactly).
    Exact pass: pvar1d._first_max with vitali_sum, which evaluates only the
    nets pvar1d._near_max keeps; the largest of those values is the largest
    over all nets.  No chain DP is used.
    """
    m, n = f.m, f.n
    if m > ORACLE_MAX_SIDE or n > ORACLE_MAX_SIDE:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_SIDE}x{ORACLE_MAX_SIDE} grids, got {m}x{n}"
        )
    rpairs, rinc = _pair_incidence(m)
    cpairs, cinc = _pair_incidence(n)
    terms = _cell_terms(
        f.samples, rpairs[:, :1], rpairs[:, 1:], cpairs[:, 0], cpairs[:, 1], p.p
    )
    naive = (rinc @ terms @ cinc.T).ravel()

    def value(i: int) -> float:
        rmask, cmask = divmod(i, (1 << n) - 1)
        rows = CyclicPartition(tuple(_members(rmask + 1, m)))
        cols = CyclicPartition(tuple(_members(cmask + 1, n)))
        return vitali_sum(f, Net(rows, cols), p)

    return _first_max(naive, m * n, p.p, value)[1]


def _chain_max(cost: np.ndarray) -> tuple[float, list[int]]:
    """Maximize the sum of step costs over cyclic index chains.

    cost[i, j] is the price of the step i -> j.  Every anchor is tried (the
    1D global-max anchor argument does not transfer to vector-valued pair
    costs), each as one lane of pvar1d._chain_dp: O(M^3) time, O(M^2)
    memory.  oc[a, y, x] = cost[(a + x) % m, (a + y) % m] is a strided view
    of the doubled transposed matrix, so the rotated costs are never
    copied.  The best anchor is the earliest one attaining the largest lane
    total.  Returns the best p-th-power sum and the chain as sorted indices.
    """
    m = cost.shape[0]
    flat = np.tile(cost.T, (2, 2)).ravel()
    step = flat.itemsize
    oc = np.ndarray((m, m, m), flat.dtype, flat, 0, ((2 * m + 1) * step, 2 * m * step, step))
    totals, chain = _chain_dp(lambda j, k: oc[:, j, :k], m, m)
    a = int(totals.argmax())
    return float(totals[a]), sorted((a + x) % m for x in chain(a))


def _pair_costs(profiles: np.ndarray, pp: float) -> np.ndarray:
    """cost[r, r'] = sum_j |profile_{r'}(j) - profile_r(j)|^pp.

    Rows r are taken in blocks of about _BLOCK differences; each entry sums
    one contiguous run of N differences, so the blocking does not change it.
    """
    m, n = profiles.shape
    rows = max(1, _BLOCK // (m * n))
    out = np.empty((m, m))
    for r0 in range(0, m, rows):
        d = np.abs(profiles - profiles[r0 : r0 + rows, None]) ** pp
        d.sum(axis=2, out=out[r0 : r0 + rows])
    return out


def _offset_start(m: int, n: int) -> Net | None:
    """Coarse half-offset net; a useful second start on indicator-type data."""
    if m < 4 or n < 4 or m % 2 or n % 2:
        return None
    return Net(
        CyclicPartition(tuple(range(0, m, 2))),
        CyclicPartition(tuple(range(1, n, 2))),
    )


def vitali_ascent(f: Grid2, p: Exponent, seed: int = 0) -> AscentResult:
    """Alternating coordinate ascent over nets; a certified lower bound.

    Holding one chain fixed, the optimal chain in the other coordinate is
    found exactly by the all-anchor cyclic chain DP on precomputed pair
    costs, so the objective is monotone nondecreasing across sweeps.
    Started from the finest net, a coarse offset net, and RESTARTS seeded
    random column chains; each run stops after MAX_SWEEPS sweeps or when a
    sweep gains nothing, and the best run is kept.
    """
    m, n = f.m, f.n
    pp = p.p
    a = f.samples

    def run(rows: list[int], cols: list[int]) -> tuple[float, list[int], list[int], bool]:
        obj = float(np.sum(np.abs(_mixed_cells(f, rows, cols)) ** pp))
        converged = False
        for _ in range(MAX_SWEEPS):
            # optimal row chain given cols: profiles are column differences
            h = _cyc_coldiff(a[:, cols])
            val, rows_new = _chain_max(_pair_costs(h, pp))
            rows = rows_new
            # optimal column chain given rows
            hT = _cyc_rowdiff(a[rows, :]).T
            val, cols_new = _chain_max(_pair_costs(hT, pp))
            cols = cols_new
            if val <= obj * (1.0 + 1e-13) + 1e-300:
                converged = True
                obj = max(obj, val)
                break
            obj = val
        return obj, rows, cols, converged

    # On small grids, enumerating every chain of the smaller axis and solving
    # the other axis exactly by DP yields the global discrete supremum.  The
    # first net attaining the largest vitali_sum wins (_first_max, on naive
    # values priced as in vitali_oracle).
    if min(m, n) <= 8:
        transpose = m < n
        a2 = a.T if transpose else a
        k = a2.shape[1]
        nets = []
        for size in range(1, k + 1):
            for cols in combinations(range(k), size):
                h = _cyc_coldiff(a2[:, list(cols)])
                _, rows = _chain_max(_pair_costs(h, pp))
                nets.append((list(cols), rows) if transpose else (rows, list(cols)))

        def net(i: int) -> Net:
            return Net(*(CyclicPartition(tuple(chain)) for chain in nets[i]))

        naive = _naive_sums(a, nets, pp)
        i, value = _first_max(naive, m * n, pp, lambda i: vitali_sum(f, net(i), p))
        return AscentResult(value, net(i), True)

    starts = [(list(range(m)), list(range(n)))]
    off = _offset_start(m, n)
    if off is not None:
        starts.append((list(off.rows.indices), list(off.cols.indices)))
    rng = np.random.default_rng(seed)
    for _ in range(RESTARTS):
        k = int(rng.integers(1, n + 1))
        cols0 = sorted(rng.choice(n, size=k, replace=False).tolist())
        starts.append((list(range(m)), cols0))

    best: tuple[float, Net, bool] | None = None
    for rows0, cols0 in starts:
        _, rows, cols, converged = run(rows0, cols0)
        net = Net(CyclicPartition(tuple(rows)), CyclicPartition(tuple(cols)))
        value = vitali_sum(f, net, p)  # certified: an actual net evaluation
        if best is None or value > best[0]:
            best = (value, net, converged)
    assert best is not None
    return AscentResult(*best)


def certified_vitali_method(f: Grid2, p: Exponent) -> str:
    """The evaluator that gives the best certified value of v_p^(2) on f.

    "oracle" (exact) when both sides are at most ORACLE_MAX_SIDE, else
    "finest" at p = 1 (exact there), else "ascent" (a certified lower bound).
    """
    if f.m <= ORACLE_MAX_SIDE and f.n <= ORACLE_MAX_SIDE:
        return "oracle"
    return "finest" if p.p == 1.0 else "ascent"


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
    rows = CyclicPartition(tuple(i * N // n for i in range(n)))
    cols = CyclicPartition(tuple(((2 * j + 1) * N // (2 * n)) % N for j in range(n)))
    cols = CyclicPartition(tuple(sorted(cols.indices)))
    return vitali_sum(f, Net(rows, cols), p)
