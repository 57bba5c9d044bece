"""Exact Wiener p-variation of a sampled periodic function over cyclic partitions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
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
# tables and the pair costs.
_BLOCK = 1 << 15


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


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as an exact head/tail pair (Knuth's two-sum)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _abs_diff_exact(x: float, y: float) -> tuple[float, float]:
    """|x - y| as an exact head/tail pair."""
    s, e = _two_sum(x, -y)
    if s < 0.0 or (s == 0.0 and e < 0.0):
        return -s, -e
    return s, e


def _sum_value(vals: Sequence[float], idx: Iterable[int], p: float) -> float:
    """(sum |increments|^p)^(1/p) over cyclically consecutive pairs, fsum-compensated.

    For p = 1 the sum is exactly rounded (each difference is carried with its
    rounding error), so partitions that tie in exact arithmetic tie in floats.
    """
    xs = [float(vals[i]) for i in idx]
    pairs = zip(xs[1:] + xs[:1], xs)
    if p == 1.0:
        return math.fsum(t for x, y in pairs for t in _abs_diff_exact(x, y))
    return _root(math.fsum(abs(x - y) ** p for x, y in pairs), p)


def pvar_sum(g: Grid1, part: CyclicPartition, p: Exponent) -> float:
    """Variational sum of g over one cyclic partition, including the wrap term."""
    part.validate(g.n)
    return _sum_value(g.samples, part.indices, p.p)


def _chain_dp(cost, na: int, m: int) -> tuple[np.ndarray, Callable[[int], list[int]]]:
    """Maximum-weight cyclic chains of positions 0..m-1, for na independent lanes.

    Every chain starts at position 0.  cost(j, k) returns each lane's prices
    of the steps from positions 0..k-1 to position j as an (na, k) array;
    the closing step back to position 0 is priced by cost(0, m).  Lanes
    never mix: ties go to the earliest predecessor (or last position before
    the wrap) within each lane, by np.argmax along each row.  O(m^2) time
    and O(m) memory per lane.  Returns the best step-cost sum of each lane
    as an (na,) array, and chain(lane), which backtracks that lane's best
    chain as positions in increasing order.
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

    def chain(a: int) -> list[int]:
        back = pred[a].tolist()
        j = int(last[a])
        out = [j]
        while j > 0:
            j = back[j]
            out.append(j)
        return out[::-1]

    return closing[lanes, last], chain


def _pvar_lanes(a: np.ndarray, p: Exponent) -> Iterator[tuple[float, tuple[int, ...]]]:
    """pvar_cyclic of each row (lane) of the 2-D array a, as (value, partition
    indices) pairs in lane order.

    Every lane is rotated to its own first global-maximum sample and its
    steps are priced with the same elementwise operations as a lone
    sequence, so each lane gets exactly the value and partition it would get
    alone.  Lanes run through _chain_dp in blocks of about _BLOCK samples and
    are yielded one at a time, so the working memory does not grow with the
    number of lanes.  Like Grid1, lanes need at least 2 samples, all finite.
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
        rot = blk[np.arange(len(blk))[:, None], (anchors[:, None] + np.arange(n)) % n]
        # col[j] is each lane's sample j as an (L, 1) column; a lone lane takes
        # it as a scalar, which spares numpy's broadcasting iterator per step
        col = rot[0] if len(blk) == 1 else rot.T[:, :, None]
        _, chain = _chain_dp(lambda j, k: np.abs(col[j] - rot[:, :k]) ** pp, len(blk), n)
        for lane, (row, anchor) in enumerate(zip(blk.tolist(), anchors.tolist())):
            idx = tuple(sorted((c + anchor) % n for c in chain(lane)))
            yield _sum_value(row, idx, pp), idx


def pvar_cyclic(g: Grid1, p: Exponent) -> tuple[float, CyclicPartition]:
    """Exact discrete p-variation: max of pvar_sum over all cyclic partitions.

    An optimal cyclic partition may be assumed to contain a global-maximum
    sample (inserting a point with value >= both neighbours never decreases
    the sum for p >= 1), so one chain DP anchored at the first such sample
    suffices: O(N^2) time, O(N) memory, step costs priced one position at a
    time.  Ties in the naive step-cost sum go to the partition whose last
    point before the wrap comes first, and each point's predecessor is the
    earliest one attaining its best prefix sum (see _chain_dp).  The value
    returned is pvar_sum of that partition.  This is the one-lane case of
    _pvar_lanes.
    """
    value, idx = next(_pvar_lanes(g.samples[None, :], p))
    return value, CyclicPartition(idx)


def _pvar_rows(a: np.ndarray, p: Exponent) -> np.ndarray:
    """pvar_cyclic value of each row of the 2-D array a (pass a.T for columns)."""
    return np.array([value for value, _ in _pvar_lanes(a, p)])


def pvar_oracle(g: Grid1, p: Exponent) -> float:
    """Brute-force ground truth: max of pvar_sum over every nonempty index subset."""
    n = g.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to N <= {ORACLE_MAX_N}, got {n}")
    vals = g.samples
    pp = p.p
    best = 0.0
    idx = range(n)
    for size in range(1, n + 1):
        for combo in combinations(idx, size):
            v = _sum_value(vals, combo, pp)
            if v > best:
                best = v
    return best


def omega_p_functional(g: Grid1, p: Exponent) -> float:
    """Averaged variation ((1/N^2) sum_{i,j} |g_i - g_j|^p)^(1/p)."""
    d = np.abs(g.samples[None, :] - g.samples[:, None]) ** p.p
    return _root(float(d.sum()) / (g.n * g.n), p.p)
