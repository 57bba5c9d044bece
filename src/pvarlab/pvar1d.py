"""Exact Wiener p-variation of a sampled periodic function over cyclic partitions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

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


def _sum_value(vals: np.ndarray, idx: Iterable[int], p: float) -> float:
    """(sum |increments|^p)^(1/p) over cyclically consecutive pairs, fsum-compensated.

    For p = 1 the sum is exactly rounded (each difference is carried with its
    rounding error), so partitions that tie in exact arithmetic tie in floats.
    """
    idx = list(idx)
    pairs = [
        (float(vals[idx[(k + 1) % len(idx)]]), float(vals[idx[k]]))
        for k in range(len(idx))
    ]
    if p == 1.0:
        terms: list[float] = []
        for x, y in pairs:
            s, e = _abs_diff_exact(x, y)
            terms.append(s)
            terms.append(e)
        return math.fsum(terms)
    return _root(math.fsum(abs(x - y) ** p for x, y in pairs), p)


def pvar_sum(g: Grid1, part: CyclicPartition, p: Exponent) -> float:
    """Variational sum of g over one cyclic partition, including the wrap term."""
    part.validate(g.n)
    return _sum_value(g.samples, part.indices, p.p)


def _chain_dp(cost, na: int, m: int) -> tuple[float, int, list[int]]:
    """Maximum-weight cyclic chain of positions 0..m-1, for na anchors at once.

    Position k of anchor a is the k-th index in cyclic order from a, and
    every chain starts at position 0.  cost(j, k) returns the prices of the
    steps from positions 0..k-1 to position j as an (na, k) array; the
    closing step back to position 0 is priced by cost(0, m).  Ties go to the
    earliest predecessor (or last position before the wrap), then to the
    earliest anchor: np.argmax along each axis.  O(m^2) time and O(m)
    memory per anchor.  Returns the best step-cost sum, the winning anchor
    and its chain positions in increasing order.
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
    totals = closing[lanes, last]
    a = int(totals.argmax())
    j = int(last[a])
    chain = [j]
    while j > 0:
        j = int(pred[a, j])
        chain.append(j)
    return float(totals[a]), a, chain[::-1]


def pvar_cyclic(g: Grid1, p: Exponent) -> tuple[float, CyclicPartition]:
    """Exact discrete p-variation: max of pvar_sum over all cyclic partitions.

    An optimal cyclic partition may be assumed to contain a global-maximum
    sample (inserting a point with value >= both neighbours never decreases
    the sum for p >= 1), so one chain DP anchored at the first such sample
    suffices: O(N^2) time, O(N) memory, step costs priced one position at a
    time.  Ties in the naive step-cost sum go to the partition whose last
    point before the wrap comes first, and each point's predecessor is the
    earliest one attaining its best prefix sum (see _chain_dp).  The value
    returned is pvar_sum of that partition.
    """
    vals = g.samples
    n = g.n
    pp = p.p
    anchor = int(np.argmax(vals))
    rot = np.roll(vals, -anchor)
    _, _, chain = _chain_dp(lambda j, k: np.abs(rot[j] - rot[None, :k]) ** pp, 1, n)
    part = CyclicPartition(tuple(sorted((c + anchor) % n for c in chain)))
    return pvar_sum(g, part, p), part


def _pvar_rows(a: np.ndarray, p: Exponent) -> np.ndarray:
    """pvar_cyclic value of each row of the 2-D array a (pass a.T for columns)."""
    return np.array([pvar_cyclic(Grid1(row), p)[0] for row in a])


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
