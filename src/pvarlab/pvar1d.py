"""Wiener p-variation of a sampled periodic function over cyclic partitions.

At p = 1 the p-variation is the total variation, attained by every
partition through the strict extrema (_extrema): pvar_cyclic returns it
exactly, in O(N), with no DP.  At p > 1 it runs one anchored chain DP, to
within a rounding error where partitions tie, on the same points: some
optimal partition holds only strict extrema, so a tent of frequency k
costs O(N + k^2), not O(N^2).
Every array power |d|^p of the package goes through _abs_pow, the one
place where its bits and speed are set: the DP's step costs and
omega_p_functional's here, the tables' in modulus and the ascent's in
vitali2d.  pvar_oracle is the independent brute force over every index
subset.  The oracle prices all subsets at once as naive sums of pair costs
(_chain_sums, which vitali2d's oracle shares) and evaluates exactly only the
subsets that _near_max cannot rule out (_first_max), so its value stays bit
for bit the maximum of pvar_sum over all subsets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .grid import Exponent, Grid1

__all__ = [
    "CyclicPartition",
    "pvar_sum",
    "pvar_cyclic",
    "pvar_oracle",
    "omega_p_functional",
    "ORACLE_MAX_N",
]

ORACLE_MAX_N = 18

# Elements of one batched block of work: large enough to amortize numpy's
# per-call overhead on 32^2 grids, small enough to stay in cache at the
# 128^2 cap.  Shared by the lane blocks of the chain DP, the shift-norm
# tables, the pair costs, the ascent's blocks of chains (in doubled tile
# entries) and the naive net sums (in corner samples).  The shift-norm
# evaluator holds one block of 256 KB, |D|^p, with its zero mask (one byte
# per value, 32 KB) while _abs_pow powers it, and its doubled windows, one
# more block; mixed tables add the row-doubled samples, a third (800 KB in
# all at the cap), well inside a 2 MB L2.  In the float32 pass, whose blocks
# take half the bytes, _row_norms adds one array of float32 partial sums,
# 1/16 of its block.
_BLOCK = 1 << 15

_U = 2.0**-53  # unit roundoff of IEEE binary64


@dataclass(frozen=True)
class CyclicPartition:
    """Strictly increasing grid indices, interpreted cyclically (last wraps to first)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise ValueError("partition must be nonempty")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("partition indices must be strictly increasing")
        if idx[0] < 0:
            raise ValueError("partition indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    def validate(self, n: int) -> None:
        if self.indices[-1] >= n:
            raise ValueError(f"partition index {self.indices[-1]} out of range [0,{n})")


def _root(s: float, p: float) -> float:
    if p == 1.0:
        return s
    return s ** (1.0 / p)


def _pow32_roundings(p: float) -> int | None:
    """n, the correctly rounded float32 operations behind one |d|^p of
    _abs_pow, at p >= 1 with 2p an integer and n <= 7: p = q takes q - 1
    products, p = q + 1/2 one more product and a square root.  None at
    other p, where _abs_pow calls numpy's float32 power."""
    q, half = divmod(2.0 * p, 2.0)
    if q < 1.0 or half not in (0.0, 1.0):
        return None
    n = int(q) + 1 if half else int(q) - 1
    return n if n <= 7 else None


def _abs_pow(d: np.ndarray, p: float) -> np.ndarray:
    """d becomes |d|^p in place; returns d.

    A float64 d keeps the bits of np.abs(d) ** p.  At p = 2 it is d*d,
    which equals |d|*|d| bit for bit, and at p = 1 it is |d|.  numpy's SIMD
    power takes a slow path, several times slower, on any vector of lanes
    that holds a zero.  So at other p a block that holds a zero is powered
    with ones in the zeros' place, and the zeros are put back: 0^p = 0 and
    1^p = 1 exactly, and every other lane is the same power of the same
    float.

    A float32 d (modulus._f32_bounds) needs only a certified error.  Where
    _pow32_roundings(p) gives an n, it is powered without numpy's float32
    power, at about a third of its cost: x^q by binary powering with
    np.multiply, times np.sqrt(x) when p = q + 1/2.  Each operation is
    correctly rounded, within v = 2^-24 relative while its result is
    normal, and every intermediate x^j, 0 < j <= p, lies between x^p and
    x^(1/2) or x, so a normal |d|^p is within (1 + v)^n - 1 relative of
    x^p: about 2v at p = 1.5 and 3 and 7v at p = 8, below 2^-21 = 8v for
    every n <= 7.  Each operation is nondecreasing in its operands, and so
    is the computed power in x.  At other p a float32 d takes numpy's
    float32 power, as a float64 one does.
    """
    if p == 2.0:
        return np.multiply(d, d, out=d)
    np.abs(d, out=d)
    if p == 1.0:
        return d
    if d.dtype == np.float32 and _pow32_roundings(p) is not None:
        q, half = divmod(int(2.0 * p), 2)
        root = np.sqrt(d) if half else None
        x = d.copy() if q & (q - 1) else None  # q is no power of two: x is read again
        for bit in bin(q)[3:]:  # left to right, after the leading one
            np.multiply(d, d, out=d)
            if bit == "1":
                np.multiply(d, x, out=d)
        if half:
            np.multiply(d, root, out=d)
        return d
    zero = d == 0.0
    if zero.any():
        d[zero] = 1.0
        d **= p
        d[zero] = 0.0
    else:
        d **= p
    return d


def _sum_value(vals: Sequence[float], idx: Iterable[int], p: float) -> float:
    """(sum |increments|^p)^(1/p) over cyclically consecutive pairs, fsum-compensated.

    At p = 1 the sum is one fsum of signed samples: each |x - y| enters as
    x and -y when x > y, else as y and -x.  Float comparison is exact, so
    the terms sum exactly to the real sum of the |increments|, and fsum
    rounds that sum once (correctly): partitions that tie in exact
    arithmetic tie in floats.
    """
    xs = [float(vals[i]) for i in idx]
    pairs = zip(xs[1:] + xs[:1], xs)
    if p == 1.0:
        return math.fsum(t for x, y in pairs for t in ((x, -y) if x > y else (y, -x)))
    return _root(math.fsum(abs(x - y) ** p for x, y in pairs), p)


def pvar_sum(g: Grid1, part: CyclicPartition, p: Exponent) -> float:
    """Variational sum of g over one cyclic partition, including the wrap term."""
    part.validate(g.n)
    return _sum_value(g.samples, part.indices, p.p)


def _chain_dp(cost, na: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-weight cyclic chains of positions 0..m-1, for na independent lanes.

    Every chain starts at position 0.  cost(j, k) returns each lane's prices
    of the steps from positions 0..k-1 to position j as an (na, k) array;
    the closing step back to position 0 is priced by cost(0, m).  Lanes
    never mix: ties go to the earliest predecessor (or last position before
    the wrap) within each lane, by np.argmax along each row.  O(m^2) time
    and O(m) memory per lane.  Returns each lane's best step-cost sum (na,),
    and the predecessors pred (na, m) and last positions (na,) from which
    _backtrack reads its best chain.
    """
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
    return closing[lanes, last], pred, last


def _backtrack(
    pred: np.ndarray, last: np.ndarray, lanes, anchors, pos=None, n=None
) -> list[list[int]]:
    """The best chain of each lane in lanes (a _chain_dp's pred and last),
    as the indices (anchor + x) % n of its positions x, ascending.

    By default a position is its own lane position and n = m, the number
    of positions.  A lane whose positions stand for a subset of its n
    positions (its _extrema points, in _pvar_lanes) passes pos, with
    pos[lane, x] the lane position that position x stands for, increasing
    in x along the chain.
    Positions rise from 0, so the indices of positions x >= n - anchor
    wrap below the anchor: splitting the chain there and putting that part
    first orders the indices without a sort.
    """
    n = pred.shape[1] if n is None else n
    places = [None] * len(anchors) if pos is None else pos[lanes].tolist()
    out = []
    for back, j, a, place in zip(pred[lanes].tolist(), last[lanes].tolist(), anchors, places):
        xs = [j]
        while j > 0:
            j = back[j]
            xs.append(j)
        xs.reverse()
        if place is not None:
            xs = [place[x] for x in xs]
        cut = bisect_left(xs, n - a)
        out.append([x + a - n for x in xs[cut:]] + [x + a for x in xs[:cut]])
    return out


def _extrema(rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of each lane (row) of rot, at every p: position 0, which
    _pvar_lanes makes a global maximum, and the first sample of every
    plateau (maximal run of equal samples) whose steps in and out, the
    nearest nonzero x_(j+1) - x_j before and after it (x_n being x_0), have
    opposite signs.  The samples after a lane's last nonzero step equal x_0:
    position 0 stands for their plateau.  At p = 1 the points are the
    partition, at p > 1 the chain DP's positions (see _pvar_lanes).
    Comparisons only, so no difference can overflow.

    Returns (pos, count): pos[lane, :count[lane]] holds the lane's points
    in increasing order, and the rest of its row, up to the longest lane's
    count, holds 0, copies of the anchor.  They come straight from the flat
    indices lane * n + j of the nonzero steps: a plateau starts after a
    step j whose next nonzero step in its lane turns, so j < n - 1 and the
    start lies in its step's lane, after position 0, in flat order.
    """
    na, n = rot.shape
    nxt = np.concatenate((rot[:, 1:], rot[:, :1]), axis=1)
    step = (nxt > rot).view(np.int8) - (nxt < rot).view(np.int8)
    at = np.flatnonzero(step)  # lane * n + j for every nonzero step
    sign = step.ravel()[at]
    lane = at // n
    turn = np.flatnonzero((sign[:-1] != sign[1:]) & (lane[:-1] == lane[1:]))
    start = at[turn] + 1
    lane = lane[turn]
    start -= lane * n
    bounds = np.searchsorted(lane, np.arange(na + 1))  # each lane's run of starts
    count = np.diff(bounds) + 1
    pos = np.zeros((na, int(count.max())), dtype=np.intp)
    pos[lane, np.arange(1, len(lane) + 1) - bounds[lane]] = start
    return pos, count


def _pvar_lanes(a: np.ndarray, p: Exponent) -> Iterator[tuple[float, tuple[int, ...]]]:
    """pvar_cyclic of each row (lane) of the 2-D array a, as (value, partition
    indices) pairs in lane order.

    Every lane is rotated to its own first global-maximum sample, and each
    lane gets exactly the value and partition it would get alone.  Lanes
    run in blocks of about _BLOCK samples and are yielded one at a time, so
    the working memory does not grow with the number of lanes.  Like Grid1,
    lanes need at least 2 samples, all finite; unlike Grid1's, they may
    exceed 2^1021 (difference sections of grid samples reach 2^1022).

    At p = 1 no DP runs.  By the triangle inequality, refining a partition
    never lowers its sum, so the finest partition attains the supremum, the
    total variation sum |x_(i+1) - x_i| over the cycle.  In exact arithmetic
    a partition attains it if and only if the samples between each two
    cyclically consecutive points are monotone.  So it must hold a sample
    of every plateau that is a strict extremum once plateaus are compressed
    (the anchor's, a global maximum, included), and one sample of each is
    enough.  _extrema takes the anchor and the first sample of each other
    such plateau.  That is the partition with the fewest points, and among
    those the one whose points come first: the one a DP returns that breaks
    exact ties toward fewer points, then toward earlier predecessors and
    the earliest last point.  _sum_value rounds the exact sum over its
    points once, and that sum is the total variation, so the value is bit
    for bit the sum over all N samples.

    At p > 1 the lanes run through _chain_dp, with steps priced elementwise,
    |x_j - x_i|^p through _abs_pow, as for a lone sequence.  The DP runs on
    each lane's _extrema points only, compressed in order.  Call a plateau
    extremal when its steps in and out have opposite signs, and monotone
    otherwise; a sample strictly inside a monotone run is a one-sample
    monotone plateau.  Some optimal partition holds only the points of
    _extrema.  Take an optimal partition of at least two points (a
    one-point partition sums to 0), a point i of it with value v, and the
    values a and c of its two partition neighbours.

    - If a partition neighbour h of i lies on i's plateau, dropping i (or
      h, if i is the anchor) gives an exact tie: the steps a -> i -> h
      cost |a - v|^p + 0, and the step a -> h costs |a - v|^p.
    - Otherwise, if i's plateau is monotone and v lies strictly between a
      and c, dropping i is strictly better: with s = |a - v| > 0 and
      t = |v - c| > 0, |a - c|^p = (s + t)^p > s^p + t^p at p > 1.
    - Otherwise, if i's plateau is monotone, v >= a, c or v <= a, c.
      Moving i past its plateau along its run, to the adjacent sample with
      the larger (or smaller) value, makes both increments strictly
      larger.  That sample is neither of i's partition neighbours, whose
      values it strictly exceeds (or undercuts), and both of those lie off
      the plateau, so the points keep their cyclic order.
    - Otherwise i's plateau is extremal and holds no other point (the
      points between two points of a plateau lie on it), and i can be
      swapped for the plateau's first sample: the values are equal, so
      every step keeps its exact cost, and the cyclic order is kept.

    The two strict gains cannot occur in an optimal partition.  So dropping
    plateau repeats, then swapping, turns it into an optimal partition of
    _extrema points.  The anchor's plateau is extremal (a global maximum
    of a non-constant lane) and position 0 stands for it; each other point
    on it has a neighbour on it (its predecessor if it comes right after
    position 0, its successor if it comes before the wrap), so the anchor
    is never dropped or moved.  The same argument holds for
    the DP's open chains from the anchor, so in exact arithmetic the
    restricted DP finds the same best value.  It compares naive float
    sums, and the unrestricted DP breaks the exact ties of plateau repeats
    by its own rule, so the two can pick different partitions of equal or
    near-equal value.

    A lane padded with copies of its anchor sample x_0 gets the chain it
    gets unpadded.  The pads come after its last real position.  A step
    from a real position i to a pad costs |x_0 - x_i|^p, the float of the
    closing step from i, and pad-to-pad and pad-closing steps cost 0; so
    every pad's best sum is the largest real closing sum, bit for bit,
    closing ties go to the earliest position, a real one, and no real
    position's predecessor is a pad.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[1] < 2 or not np.isfinite(a).all():
        raise ValueError("each lane needs at least 2 samples, all finite")
    nl, n = a.shape
    pp = p.p
    width = max(1, _BLOCK // n)
    for l0 in range(0, nl, width):
        blk = a[l0 : l0 + width]
        anchors = blk.argmax(axis=1)
        lanes, at = np.arange(len(blk))[:, None], (anchors[:, None] + np.arange(n)) % n
        rot = blk[lanes, at]
        pos, count = _extrema(rot)
        if pp == 1.0:
            chains = [sorted(x[k[:c]].tolist()) for x, k, c in zip(at, pos, count.tolist())]
        else:
            rot = rot[lanes, pos]
            col = rot.T[:, :, None]  # col[j]: each lane's sample j as an (L, 1) column
            _, pred, last = _chain_dp(lambda j, k: _abs_pow(col[j] - rot[:, :k], pp), *rot.shape)
            chains = _backtrack(pred, last, slice(None), anchors.tolist(), pos, n)
        for row, idx in zip(blk.tolist(), map(tuple, chains)):
            yield _sum_value(row, idx, pp), idx


def pvar_cyclic(g: Grid1, p: Exponent) -> tuple[float, CyclicPartition]:
    """Discrete p-variation: the max of pvar_sum over cyclic partitions,
    and a partition attaining it.  At p = 1 it is exact, in O(N): the
    total variation, correctly rounded, through the fewest-points
    partition (see _pvar_lanes).

    At p > 1 it is pvar_sum of the cyclic partition one chain DP picks.
    The DP compares naive float sums of step costs, so the value is the
    max unless partitions tie within rounding; then it can fall a rounding
    error below pvar_oracle.  An optimal cyclic partition may be assumed
    to contain a global-maximum sample (inserting a point with value >=
    both neighbours never decreases the sum for p >= 1), so one chain DP
    anchored at the first such sample suffices.  It runs on the T points
    of _extrema, the anchor and the first sample of every strict-extremum
    plateau (the proof is at _pvar_lanes): O(N + T^2) time, O(N) memory, step costs priced one
    position at a time.  Ties in the naive step-cost sum go to the
    partition whose last point before the wrap comes first, and each
    point's predecessor is the earliest one attaining its best prefix sum
    (see _chain_dp).  This is the one-lane case of _pvar_lanes.
    """
    value, idx = next(_pvar_lanes(g.samples[None, :], p))
    return value, CyclicPartition(idx)


def _pvar_rows(a: np.ndarray, p: Exponent) -> np.ndarray:
    """pvar_cyclic value of each row of the 2-D array a (pass a.T for columns)."""
    return np.array([value for value, _ in _pvar_lanes(a, p)])


def _near_max(naive: np.ndarray, k: int, p: float) -> np.ndarray:
    """Positions (ascending) of the entries of naive that may attain the
    largest exact value; the filter of _first_max, its one caller.

    Entry i stands for one candidate (a partition or a net) whose exact
    value is root(e_i): e_i is the fsum, correctly rounded, of the real sum
    T_i of the candidate's nonnegative terms (at most k of them), root the
    1/p-th power (the identity at p = 1).  At p > 1 the terms are CPython
    pow of float differences; at p = 1 they are the exact |differences|
    (|cells| for nets), which the exact path feeds to fsum as signed
    samples summing exactly to them.  naive[i] must be a float sum, in any
    order, of the candidate's terms as priced by the exact path (at p > 1
    the same CPython pow of the same float difference) or correctly
    rounded from the exact terms (at p = 1).  For nets both paths take
    their terms from one routine, vitali2d._cell_terms, so this holds by
    construction there.  With u = 2^-53 and gamma_j = ju/(1 - ju), and all
    terms nonnegative:

    - naive_i = T_i(1 + theta), |theta| <= gamma_k: each
      priced term is off by at most u, and a float sum of
      k nonnegative terms by at most gamma_(k-1) (Higham, *Accuracy and
      Stability of Numerical Algorithms*, ch. 4).  e_i = T_i(1 + theta'),
      |theta'| <= u, since fsum is correctly rounded.
    - The largest e, e*, is at least the e of the naive argmax, so
      e* >= top (1 - u)/(1 + gamma_k), top = max(naive).
    - The platform pow behind CPython's root is not promised to be
      correctly rounded, so the root need not be monotone.  With an error
      below one ulp (at most 2u relative), root(e_i) >= root(e*) forces
      e_i >= e*(1 - 4u)^p >= e*(1 - rho), rho = 4pu (rho = 0 at p = 1,
      where the root is the identity).
    - Hence every candidate whose root can reach the largest root has
      naive_i >= top (1 - rho)(1 - gamma_k)(1 - u)/((1 + u)(1 + gamma_k))
      >= top (1 - rho - 2 gamma_(k+1)), and 2 gamma_(k+1) <= (2k + 3)u
      for k <= 10^6.
    - Computing top - top*w in floats raises the cut by at most 2u top, so
      w = (2k + 6)u + rho keeps all of them.

    So a candidate left out has an exact value below the one returned: it
    can neither beat the maximum nor, where the caller keeps the first
    candidate attaining it, come earlier than the kept one.  When top is 0
    every priced term is 0, and so is every exact term (at p > 1 they are
    the same floats; a nonzero exact difference never rounds to 0), so
    every exact value is 0 and the first entry stands for all.  A top that
    is not finite (a sum past the float range) raises OverflowError.
    """
    top = float(naive.max())
    if not math.isfinite(top):
        raise OverflowError("naive sums overflow: sample differences too large to price")
    if top == 0.0:
        return np.zeros(1, dtype=np.intp)
    w = (2 * k + 6) * _U + (4.0 * p * _U if p != 1.0 else 0.0)
    return np.flatnonzero(naive >= top - top * w)


def _first_max(naive, k: int, p: float, value: Callable[[int], float]) -> tuple[int, float]:
    """The exact pass of the brute-force oracles: (i, value(i)) for the first
    candidate i attaining the largest exact value, given each candidate's
    naive sum of at most k terms (see _near_max).  value runs only on the
    candidates _near_max keeps; every other one has a smaller exact value.
    """
    keep = _near_max(naive, k, p).tolist()
    values = [value(i) for i in keep]
    j = values.index(max(values))
    return keep[j], values[j]


def _members(mask: int, n: int) -> list[int]:
    """The members of range(n) in the subset with bitmask mask, ascending."""
    return [i for i in range(n) if mask >> i & 1]


def _chain_sums(cost: np.ndarray) -> np.ndarray:
    """Naive float sum of the cyclic chain through every nonempty subset of
    range(n), one value per trailing lane of cost; the naive pass of both
    brute-force oracles.

    cost[i, j, ...] is the price of the step i -> j, shape (n, n, *lanes).
    The chain through a subset's members in increasing order is the chain of
    the subset without its largest member plus one step, so one pass over
    the largest member prices every open chain from shorter ones (O(2^n)
    memory per lane, no subset-by-step matrix); the closing step, from the
    last member back to the first (cost[i, i] for a one-member subset), is
    added last.  Returns shape (2^n - 1, *lanes): entry mask - 1 belongs to
    the subset with bitmask mask.
    """
    n = cost.shape[0]
    chain = np.zeros((1 << n,) + cost.shape[2:])  # chain[mask]: the open chain through mask
    first = np.zeros(1 << n, dtype=np.uint8)
    last = np.zeros(1 << n, dtype=np.uint8)
    for x in range(n):
        lo = 1 << x
        first[lo] = last[lo] = x
        chain[lo + 1 : 2 * lo] = chain[1:lo] + cost[last[1:lo], x]
        first[lo + 1 : 2 * lo] = first[1:lo]
        last[lo + 1 : 2 * lo] = x
    return chain[1:] + cost[last[1:], first[1:]]


def pvar_oracle(g: Grid1, p: Exponent) -> float:
    """Brute-force ground truth: max of pvar_sum over every nonempty index subset.

    Independent of the chain DP.  Naive pass: _chain_sums of the pair costs
    P[i, j] = |g_j - g_i|^p (CPython pow, as the exact path prices them;
    the plain float |g_j - g_i|, correctly rounded, at p = 1) prices all
    2^N - 1 subsets.  Exact pass: _first_max with pvar_sum's arithmetic
    (_sum_value), which evaluates only the subsets _near_max keeps; the
    largest of those values is the largest over all subsets.
    """
    n = g.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to N <= {ORACLE_MAX_N}, got {n}")
    pp = p.p
    diff = np.abs(g.samples[None, :] - g.samples[:, None])
    cost = diff if pp == 1.0 else np.array([d**pp for d in diff.ravel().tolist()]).reshape(n, n)
    naive = _chain_sums(cost)
    vals = g.samples.tolist()
    return _first_max(naive, n, pp, lambda i: _sum_value(vals, _members(i + 1, n), pp))[1]


def omega_p_functional(g: Grid1, p: Exponent) -> float:
    """Averaged variation ((1/N^2) sum_{i,j} |g_i - g_j|^p)^(1/p)."""
    d = _abs_pow(g.samples[None, :] - g.samples[:, None], p.p)
    return _root(float(d.sum()) / (g.n * g.n), p.p)
