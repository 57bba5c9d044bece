"""Difference operators and L^p moduli of continuity on grids.

Moduli are prefix maxima of exact circular-shift norms; no interpolation
between grid shifts, so every inequality check is exact at grid arguments.
Every shift norm comes from one evaluator, _shift_norms, as one batched
subtraction, and is bitwise equal to the per-shift reference norms
`shift_norm_1d` and `mixed_diff_norm` of tests/test_modulus.py.  It also
takes a float32 array, whose norms only bound the float64 ones.  Its
|D|^p, like every array power here, comes from pvar1d._abs_pow, which
keeps the bits of np.abs(D) ** p on float64 D and keeps the SIMD vectors
that hold a zero difference, common on separable and tie-heavy fields,
off numpy's slow power path.

The shifts come in mirror pairs whose differences are exact negatives of
each other, rotated.  IEEE subtraction is antisymmetric, x - y = -(y - x)
bit for bit.  Write a_(s,t) = a(. + s, . + t) on the (M, N) grid.

* Plain tables, D(s, t) = a_(s,t) - a: D(M - s, N - t) = -roll(D(s, t), (s, t)).
* Mixed tables, D(s, t) = ds(., . + t) - ds with ds = a_(s,0) - a.
  Rotating ds by s rows gives a - a_(-s,0), the negated ds of row shift
  M - s, so D(M - s, t) = -roll(D(s, t), s rows).  Rotating D(s, t) by t
  columns gives ds - ds(., . - t), so D(s, N - t) = -roll(D(s, t), t
  columns).

So a mirror's |D|^p terms are its partner's in another order, and its norm
lies within a factor 1 + w of its partner's (see _partner_bounds).
_shift_norm_table evaluates every partner and mirror.  The prefix-max
tables behind modulus_1d, modulus_mixed and modulus_iso_2d evaluate only
the shifts whose upper bound reaches the prefix max of the lower bounds,
and keep the bits of the full table (see _prefix_max_table).  The bounds
come from one pipeline at every p.  The squared p = 2 norm of a shift
difference is a sum of at most five autocorrelation values, ||D||^2 =
2c(0) - 2c(h) for plain shifts and 4c(0, 0) - 4c(s, 0) - 4c(0, t) +
2c(s, t) + 2c(s, -t) for mixed ones, and one rfft2/irfft2 pair of the
field less its mean gives every c(h) (differences ignore the mean);
_l2_bounds widens that estimate by a derived bound on its error.  At
p = 2 these bounds pick the shifts to evaluate.  At other p they only
pick the partners to evaluate first, the likely maxima, and no
certificate rests on them: one _shift_norms pass over a centred, scaled
float32 copy of the field bounds the other partners within a few parts
in 10^6 (_f32_bounds), and each mirror is bounded through its partner
(_partner_bounds).  mixed_ratio_sup, the largest Hardy-Littlewood ratio
||D(s, t)||_1 / (u v), builds no table and is the one other reader of
these bounds: it reads only the partners, as no mirror's ratio exceeds
its partner's, and _l2_bounds, widened to bound a p = 1 norm, and one
_f32_bounds pass leave out every partner whose upper ratio lies below
the ratio of an evaluated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Exponent, Grid1, Grid2, _freeze
from .pvar1d import _BLOCK, _U, _abs_pow, _root, omega_p_functional

__all__ = [
    "ModulusTable1D",
    "ModulusTable2D",
    "lp_norm",
    "modulus_1d",
    "modulus_iso_2d",
    "modulus_mixed",
    "mixed_ratio_sup",
    "averaged_modulus_check",
    "omega_sandwich_check",
    "MIXED_TABLE_CAP",
]

MIXED_TABLE_CAP = 128


@dataclass(frozen=True)
class ModulusTable1D:
    """values[k] = omega(f; k * step)_p for k = 0..K; nondecreasing, values[0] = 0."""

    values: np.ndarray
    p: Exponent
    step: float

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))


@dataclass(frozen=True)
class ModulusTable2D:
    """values[k, l] = omega(f; k/M, l/N)_p; zero first row/column, coordinatewise nondecreasing."""

    values: np.ndarray
    p: Exponent
    steps: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))


def _norm(a: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(a)))
    return _root(float(np.mean(_abs_pow(a.astype(float), p))), p)


def lp_norm(f: Grid1 | Grid2, p: Exponent | float) -> float:
    """Rectangle-rule L^p norm; pass math.inf for the sup norm."""
    pp = p.p if isinstance(p, Exponent) else float(p)
    return _norm(f.samples, pp)


# The number of float32 terms in each float32 partial sum of _row_norms,
# whose rounding _f32_bounds' width covers.
_STACK = 16


def _row_norms(d: np.ndarray, p: float):
    """The L^p norm of each row of a (k, M*N) block of differences d, which
    becomes |d|^p in place (pvar1d._abs_pow, as in _norm).

    Zero differences are common: a mixed difference of a field that is
    separable, or constant along an axis, vanishes, and so does any
    difference of a tie-heavy field on its flat patches.  _abs_pow powers
    such a block without numpy's slow path for vectors holding a zero.
    Each mean is np.add.reduce over one contiguous row, divided by M*N: for
    float64 d the operations of _norm on the row.  A float32 d is powered
    in float32, by square root and products at the p of
    pvar1d._pow32_roundings.  Its row of M*N terms is cut into _STACK
    slices of q = M*N // _STACK terms and a tail of the rest; the slices
    are added in float32, elementwise, into q partials of _STACK terms
    each (one array of 1/_STACK of the block), and the partials and the
    tail are summed in float64.
    """
    _abs_pow(d, p)
    if d.dtype == np.float32:
        rows, k = d.shape
        q = k // _STACK
        partials = np.add.reduce(d[:, : _STACK * q].reshape(rows, _STACK, q), axis=1)
        sums = np.add.reduce(partials, axis=1, dtype=float)
        if k > _STACK * q:
            sums += np.add.reduce(d[:, _STACK * q :], axis=1, dtype=float)
        means = sums / k
    else:
        means = np.add.reduce(d, axis=1, dtype=float) / d.shape[1]
    if p == 1.0:
        return means
    inv = 1.0 / p
    return [v**inv for v in means.tolist()]


def _mirrors(m: int, n: int, mixed: bool):
    """(ps, pt, partner, mirror): the partner (ps[s], pt[t]) of each shift
    (s, t) of the (M, N) core, as broadcasting index arrays, and the masks
    of the partners and of the mirrors.  The mixed row and column 0, whose
    differences vanish, are in neither mask."""
    s, t = np.ogrid[:m, :n]
    if mixed:  # partners are the shifts 0 < s <= M/2, 0 < t <= N/2
        ps, pt = np.minimum(s, m - s), np.minimum(t, n - t)
        live = (s > 0) & (t > 0)
        mirror = ((ps != s) | (pt != t)) & live
        return ps, pt, live & ~mirror, mirror
    # partners are (-s, -t); the columns t = 0, N/2 mirror onto themselves
    mirror = (2 * t > n) | (2 * t % n == 0) & (2 * s > m)
    return -s % m, -t % n, ~mirror, mirror


def _fill(raw: np.ndarray, a: np.ndarray, p: float, mixed: bool, mask: np.ndarray) -> np.ndarray:
    """raw with the shifts marked in the (M, N) mask evaluated by _shift_norms."""
    rows, cols = np.nonzero(mask)
    raw[rows, cols] = _shift_norms(a, p, mixed, rows, cols)
    return raw


def _wrapped(raw: np.ndarray) -> np.ndarray:
    """raw with the shifts M and N wrapped to 0."""
    m, n = raw.shape[0] - 1, raw.shape[1] - 1
    raw[m] = raw[0]
    raw[:m, n] = raw[:m, 0]
    return raw


def _shift_norm_table(a: np.ndarray, p: float, mixed: bool = False) -> np.ndarray:
    """raw[s, t] = ||D(s, t)||_p on the (M, N) array a, for s = 0..M, t = 0..N.

    D(s, t) is a(. + s, . + t) - a, or with mixed=True the mixed difference
    ds(., . + t) - ds with ds = a(. + s, .) - a; the mixed row and column 0
    are zero.  Every partner and mirror comes from one _shift_norms call, so
    every entry is bitwise equal to the per-shift norms shift_norm_1d and
    mixed_diff_norm, the references in tests/test_modulus.py.
    """
    m, n = a.shape
    partner, mirror = _mirrors(m, n, mixed)[2:]
    return _wrapped(_fill(np.zeros((m + 1, n + 1)), a, p, mixed, partner | mirror))


def _shift_norms(
    a: np.ndarray, p: float, mixed: bool, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """||D(rows[i], cols[i])||_p for each listed shift of the (M, N) array a.

    The shifts are sorted by group, the column shift of a plain difference
    or the row shift of a mixed one, and then by window.  Each group fills
    one reused array two, (2K, M*N/K) with its K rows doubled, so that
    window i is one flat slice of M*N values, from row i on: plain window s
    is a(. + s, . + t), from a rolled by t columns, subtracted from a; mixed
    window t is ds(., . + t) transposed, from the ds of row shift s
    transposed, subtracted from ds transposed.  Each run of consecutive
    windows is cut into chunks of at most _BLOCK values, each subtracted
    from the shared base into a reused buffer, whose rows _row_norms
    finishes.  Each difference is the per-shift norm's subtraction of the
    same two floats, summed in the same order (a mixed one transposed), so
    every norm equals the per-shift references bit for bit.  A float32 a
    (_f32_bounds) gets float32 windows and buffers, and float64 norms.
    """
    m, n = a.shape
    mn = a.size
    key, pick = (rows, cols) if mixed else (cols, rows)
    K = n if mixed else m  # the windows of a group
    span = K + 1  # a gap between the windows of two groups
    pos = key * span + pick
    order = np.argsort(pos)
    pos = pos[order]
    starts = np.flatnonzero(np.diff(pos, prepend=-2) != 1).tolist()
    width = max(1, min(_BLOCK // mn, len(pos)))
    buf = np.empty((width, mn), a.dtype)
    two = np.empty((2 * K, mn // K), a.dtype)
    # window i: the M*N values from row i of two; np.ndarray checks that they fit
    windows = np.ndarray((K, mn), a.dtype, two, 0, (two.strides[0], two.itemsize))
    src = np.concatenate((a.T, a.T) if mixed else (a, a), axis=1)  # columns doubled
    base = two[:K].reshape(mn) if mixed else a.ravel()
    vals = np.empty(len(pos))
    group = None
    for i0, i1 in zip(starts, starts[1:] + [len(pos)]):
        g, w0 = divmod(int(pos[i0]), span)
        if g != group:
            group = g
            if mixed:  # ds transposed
                np.subtract(src[:, g : g + m], src[:, :m], out=two[:K])
            else:  # a rolled by g columns
                two[:K] = src[:, g : g + n]
            two[K:] = two[:K]
        for j in range(i0, i1, width):
            k = min(width, i1 - j)
            w = w0 + j - i0
            np.subtract(windows[w : w + k], base, out=buf[:k])
            vals[j : j + k] = _row_norms(buf[:k], p)
    norms = np.empty(len(pos))
    norms[order] = vals
    return norms


def modulus_1d(g: Grid1, p: Exponent) -> ModulusTable1D:
    """omega(f; k/N)_p as the prefix max of circular-shift norms."""
    table = _prefix_max_table(g.samples[:, None], p.p, mixed=False)[:, 0]
    return ModulusTable1D(table, p, 1.0 / g.n)


def _prefix_max(raw: np.ndarray) -> np.ndarray:
    table = np.maximum.accumulate(raw, axis=0)
    return np.maximum.accumulate(table, axis=1, out=table)


def _prefix_max_table(a: np.ndarray, p: float, mixed: bool) -> np.ndarray:
    """2-D prefix max of the shift-norm table of the (M, N) array a.

    One rule picks the shifts to evaluate.  lo and hi bound the norm that
    _shift_norms computes for each shift of the (M, N) core, and one
    _shift_norms call evaluates the live shifts whose hi reaches the prefix
    max of lo at their own position; the others keep the zero the table
    starts with.  A shift left out lies strictly below that prefix max,
    which a shift in its rectangle reaches, so below the table at every
    position it reaches.  The shift that sets a table entry is therefore
    never left out, and the table keeps the bits of the prefix max of
    _shift_norm_table.  At p = 2 the bounds are those of _l2_bounds.  At
    other p the shifts that these keep are only the likely maxima, and the
    bounds are those of _partner_bounds, which evaluates the partners
    among them first.
    """
    m, n = a.shape
    raw = np.zeros((m + 1, n + 1))
    lo, hi = _l2_bounds(a, mixed)
    kept = hi >= _prefix_max(lo)
    del lo, hi  # freed before any evaluation, whose buffers set the peak
    if p != 2.0:
        lo, hi = _partner_bounds(raw, a, p, mixed, kept)
        kept = hi >= _prefix_max(lo)
        del lo, hi
    return _prefix_max(_wrapped(_fill(raw, a, p, mixed, kept)))


def _partner_bounds(raw: np.ndarray, a: np.ndarray, p: float, mixed: bool, kept: np.ndarray):
    """(lo, hi) on the (M, N) core at p != 2.  The partners marked in kept,
    the likely maxima, are evaluated into raw by _shift_norms, so that they
    skip the float32 pass.  lo is raw's core, exact there, with the lower
    bounds of _f32_bounds at the other partners and zero elsewhere.  hi is
    -inf at the evaluated partners and at the mixed row and column 0,
    _f32_bounds' upper bound at the other partners, and bounds each mirror
    through its partner's upper bound.

    A mirror's |D|^p terms are its partner's terms in another order, so its
    norm r' lies within a factor 1 + w of its partner's r.  The width, with
    u = 2^-53, gamma_j = ju/(1 - ju) and k = M*N: each norm is
    root(fl(S/k)), S a float sum of the same k nonnegative terms with real
    sum T.

    - S = T(1 + theta), |theta| <= gamma_(k-1), in any order (Higham,
      *Accuracy and Stability of Numerical Algorithms*, ch. 4).
    - The division adds a factor within 1 +- u while the mean is normal,
      and the root (CPython pow, the identity at p = 1) one within 1 +- 2u,
      assuming an error below one ulp, as pvar1d._near_max does.  The 1/p
      power only shrinks the ratio of the means, since p >= 1.
    - So r'/r <= (1 + gamma)/(1 - gamma) (1 + u)/(1 - u) (1 + 2u)/(1 - 2u)
      <= 1/(1 - (2k - 2)u) 1/(1 - 2u) 1/(1 - 4u) <= 1/(1 - (2k + 4)u).
    - grow = fl(1/(1 - (2k + 6)u)), whose divisor is exact, and the
      product fl(r grow) each lose at most a factor 1 - u, so fl(r grow) >=
      r (1 - 2u)/(1 - (2k + 6)u) >= r/(1 - (2k + 4)u) >= r'.  So w =
      gamma_(2k+6), and any upper bound on r, grown, bounds r'.

    Outside the normal range the bound changes.  A mean below 2^-1022 on
    either side keeps r' below 2^(-1020/p)(1 + 2u), so under floor =
    2^(-1000/p)(1 + 8u).  A mirror's sum can overflow only when its
    partner's S reaches 2^1023, which puts r above _ceil(k, p); such a
    partner bounds its mirror by inf.  Computed, floor moves by at most
    4u + 710u/p, inside its margins 8u and 2^(20/p), for any p.
    """
    m, n = a.shape
    ps, pt, partner, mirror = _mirrors(m, n, mixed)
    rest = partner & ~kept
    _fill(raw, a, p, mixed, partner & kept)
    lo, upper = raw[:m, :n].copy(), raw[:m, :n].copy()
    if rest.any():
        lo[rest], upper[rest] = _f32_bounds(a, p, mixed, *np.nonzero(rest))
    grow = 1.0 / (1.0 - (2 * m * n + 6) * _U)
    floor = 2.0 ** (-1000.0 / p) * (1.0 + 8.0 * _U)
    hi = upper[ps, pt]  # each entry's partner
    over = hi >= _ceil(m * n, p)
    hi *= grow
    np.maximum(hi, floor, out=hi)
    hi[over] = math.inf
    hi[~mirror] = -math.inf
    hi[rest] = upper[rest]
    return lo, hi


_V = 2.0**-24  # unit roundoff of IEEE binary32
# The relative error of a normal float32 |d|^p of pvar1d._abs_pow, 4 ulps:
# derived at the p of pvar1d._pow32_roundings, whose square root and products
# stay within (1 + v)^7 - 1 < 2^-21, and assumed of numpy's power elsewhere.
_POW32 = 2.0**-21
_TAU = 2.0**-120  # the smallest term |d|^p that _f32_bounds bounds relatively


def _term_error(p: float, p32: float) -> float:
    """The relative error of the float32 power of a float32 |d| < 1 as a
    bound on |d|^p, where |d|^p >= _TAU and p32 = fl32(p): (1 + rho)(1 +
    _POW32) - 1, rho covering the rounding of p (see _f32_bounds)."""
    rho = math.expm1(abs(p32 - p) * -math.log(_TAU) / p)
    return rho + _POW32 + rho * _POW32


def _centred(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(2^-e a - z, e), the centring of _f32_bounds and _l2_estimate: e the
    exponent of max|a| (numpy.frexp), so max|2^-e a| lies in [1/2, 1), and
    z the computed mean of 2^-e a, which no difference sees."""
    e = int(np.frexp(max(a.max(), -a.min()))[1])
    c = np.ldexp(a, -e)
    c -= c.mean()
    return c, e


def _f32_bounds(a: np.ndarray, p: float, mixed: bool, rows: np.ndarray, cols: np.ndarray):
    """(lo, hi) on the norm r that _shift_norms computes for each listed
    shift of the (M, N) array a, at p other than 2, from one _shift_norms
    pass over a centred, scaled float32 copy b of a.

    b = fl32(2^(e0 - e) c), c = 2^-e0 a - z computed in float64 by
    _centred, with e0 the exponent of max|a| and z the computed mean of
    2^-e0 a, which no difference sees.  e - e0 is the exponent of max|c|
    plus 2 (plain) or 3 (mixed), so top = 2^(e0 - e) max|c| lies below 1/4
    or 1/8, and every difference of b, of 2 or 4 entries, below 1/2 in
    magnitude.  Write B = 2^-e (a - 2^e0 z), real,
    so that the exact difference D of B is 2^-e times that of a, and with
    u = 2^-53, v = 2^-24 and k = M*N, measure norms as L^p means over the
    k entries.  The float32 pass computes r32 = root(fl(S/k)) from the
    float32 differences D32 of b, S the sum of their float32 powers that
    _row_norms forms, first in float32, then in float64.  The width covers:

    - b.  Each entry is B's within (v + 2u) max|B| + 2^-149, and max|B|
      <= (1 + 2u) top: c rounds within u, its scalings are exact save
      float64 underflow (at most 2^-1075), and the float32 rounding adds v
      relative, or 2^-150 below 2^-126.
    - D32.  A plain float32 difference rounds within v relative, a
      subnormal one not at all.  By Minkowski, shifts being permutations,
      ||D32 - D|| <= v||D|| + A with A = 2((v + 2u) max|B| + 2^-149)(1 + v)
      <= 3v top + 2^-146.  A mixed one subtracts two rounded differences
      ds of one row shift, ||ds|| <= 2 max|b|, and its four entries of b
      each carry the error above, so A <= 8v(1 + 2^-20) top + 2^-146.5.
      The float64 mixed difference that r is computed from moves by
      u||ds|| per ds in the same way, at most 4.001u top in all, so mixed
      A = 9v top + 2^-146 covers both (width in the code).  So ||D|| lies
      in [(||D32|| - A)/(1 + v), (||D32|| + A)/(1 - v)].
    - The power.  pvar1d._abs_pow's float32 power is within _POW32
      relative of x^p32, p32 = fl32(p), when the result is normal.  At p =
      1 it is |x|, exact.  At the p of pvar1d._pow32_roundings (1.5, 3 and
      8 among them, where p32 = p) it is a square root and products, each
      correctly rounded, so this is derived: within (1 + v)^n - 1, n <= 7.
      Elsewhere it is numpy's float32 power at the weak Python p, and this
      is an assumption (it measured below 1 ulp).  tests/test_modulus.py
      checks both under both SIMD dispatches.  As |D32| < 1, x^p32 = x^p
      x^(p32 - p), and a term x^p >= tau = 2^-120 has |ln x| <= 120 ln
      2/p, so the rounding of p moves it by a factor within 1 +- rho, rho =
      expm1(|p32 - p| 120 ln 2/p): zero at p = 1, 1.5, 3 and 8, 1.8e-6 (30
      v) at p = 1.1.  So such a term is within _term_error(p, p32)
      relative of x^p.  A term below tau, subnormal and flushed ones
      among them, has x^p and its computed power within 1.01 tau of 0.
    - The sums and the means.  _row_norms adds the terms in float32
      partials of _STACK = 16 terms each, and sums the partials and the
      other terms in float64.  The terms are nonnegative, and a float32
      sum whose result is subnormal is exact, so each float32 addition
      is within v relative of the real sum of its operands, and a partial
      within gamma32 = 15v/(1 - 15v) of the real sum of its 16 terms, in
      any order (ch. 4).  The terms are below 1, so a partial stays below
      16 and cannot overflow.  Each partial, and each float32 term, is
      exact in float64, so S, a float64 sum of at most k of them, and the
      division by k add a factor within gamma_(k+1), in any order of the
      terms.  The mean is read back from r32 as r32^p (pvar1d._abs_pow),
      which the root within 2u and the power within 2u move by at most
      (2p + 2)u.  So ||D32||^p lies within eps = 1.1 (_term_error(p, p32)
      + gamma32 + (k + 2p + 16)u) relative and 2 tau absolute of that
      mean, and its root is taken in float64 within 2u.
    - r.  Its differences round within u relative (and a mixed one by the
      absolute part in A), its powers within 2u (below one ulp, assumed
      as in _partner_bounds), its sum, mean and root within gamma_(k+1)
      and 2u: a factor within 1 +- 1.01(k + 6)u of 2^e ||D||.  With the
      factors 1/(1 -+ v) and the dozen roundings made here, all of it lies
      within g = 2v + 1.01(k + 40)u.
    - The ends of the float range.  Float64 underflow moves a mean of r by
      at most 2^-1072, its root by at most 2^(-1072/p), inside floor =
      2^(-1000/p), added to hi and taken from lo; an r whose sum can
      overflow lies above _ceil(k, p) and so its hi, which is inf there.
      b cannot overflow: its differences lie below 1/2, so every power
      lies below 1 and every sum below k.
    """
    c, e0 = _centred(a)
    top = float(np.abs(c).max())
    e = int(np.frexp(top)[1]) + (3 if mixed else 2)
    b = np.ldexp(c, -e).astype(np.float32)
    top, e = math.ldexp(top, -e), e + e0
    means = _abs_pow(_shift_norms(b, p, mixed, rows, cols), p)
    k = a.size
    stack = (_STACK - 1) * _V / (1.0 - (_STACK - 1) * _V)  # gamma32
    eps = 1.1 * (_term_error(p, float(np.float32(p))) + stack + (k + 2.0 * p + 16.0) * _U)
    width = (9.0 if mixed else 3.0) * _V * top + 2.0**-146
    g = 2.0 * _V + 1.01 * (k + 40.0) * _U
    floor = 2.0 ** (-1000.0 / p)
    hi = _abs_pow(means * (1.0 + eps) + 2.0 * _TAU, 1.0 / p)
    hi = np.ldexp((hi + width) * (1.0 + g), e) + floor
    hi[hi >= _ceil(k, p)] = math.inf
    lo = _abs_pow(np.maximum(means * (1.0 - eps) - 2.0 * _TAU, 0.0), 1.0 / p)
    lo = np.ldexp((lo - width) * (1.0 - g), e) - floor
    return np.maximum(lo, 0.0), hi


def _ceil(k: int, p: float) -> float:
    """(2^1022/k)^(1/p)(1 - 8u): a mean of k terms |D|^p whose float sum
    overflows puts the real norm above it.  The sum reaches 2^1024 only
    when the real sum of its terms reaches 2^1023, a real norm of
    (2^1023/k)^(1/p).  Computed, the bound moves by at most 4u + 710u/p,
    inside its margins 8u and 2^(1/p), for any p."""
    return (2.0**1022 / k) ** (1.0 / p) * (1.0 - 8.0 * _U)


def _l2_estimate(a: np.ndarray, mixed: bool):
    """(est, width, e): est[s, t] estimates 4^-e times the square of the
    p = 2 norm that _shift_norms computes for shift (s, t) of the (M, N)
    array a, within width save underflow and overflow (see _l2_bounds),
    from the autocorrelation of b = 2^-e a - z (_centred), z the computed
    mean of 2^-e a.  Differences do not see z, so the width scales with the
    centred mean square: a large mean does not widen it.

    e is the exponent of max|a| (numpy.frexp), so max|2^-e a| lies in
    [1/2, 1) and max|b| < 2: no sum or transform can overflow.  2^-e a is
    exact, save entries below 2^-1022, which round by at most 2^-1075; a
    field with such an entry and one of at least 1/2 has S >= 1/(16k), so
    this moves a squared norm by far less than u S below.  With k = M*N,
    means over the k samples and c(h) = mean(b b(. + h)), the squared
    norms of the exact differences of b are

        plain: 2c(0, 0) - 2c(s, t),
        mixed: 4c(0, 0) - 4c(s, 0) - 4c(0, t) + 2c(s, t) + 2c(s, -t),

    weights of absolute sum at most 16.  One rfft2 of b, its squared moduli
    and one irfft2 give k c.  The width, with u = 2^-53, gamma_j = ju/(1 -
    ju), L = max(1, log2 k) and S = mean(b^2) = c(0, 0):

    - Each transform's output moves by at most eps = 128 L u times the
      2-norm of its exact output.  Higham, *Accuracy and Stability of
      Numerical Algorithms*, Theorem 24.2, gives L eta/(1 - L eta), eta =
      mu + gamma_4 (sqrt(2) + mu) < 8u, for a radix-2 Cooley-Tukey FFT with
      twiddles within mu = u; the factor 16 is a safety factor for
      pocketfft's other radices, Bluestein's algorithm on large prime
      factors and the real-input packing.
    - The spectrum F of b has ||F||_2 = k sqrt(S) (Parseval), so the squared
      moduli, each rounded within gamma_2, move by at most (2 eps + eps^2 +
      gamma_2 (1 + eps)^2) k^2 S in the 1-norm.  An entry of the exact
      inverse moves by at most that 1-norm over k, and the inverse's own
      error is at most eps times its 2-norm, at most eps (1 + eps)^2 (1 +
      gamma_2) k^(3/2) S.  With the division by k, every c(h) lies within
      e_c S, e_c = (sqrt(k) + 4) eps, so est before its own rounding lies
      within 16 e_c S of the real squared norm.  e_c < 0.009 for k below
      2^60, so S <= 1.01 c0 with c0 the computed c(0, 0).
    - Forming est (scalings by powers of two, exact, and four roundings of
      sums below 17 S) adds at most 96u S.
    - b is 2^-e a - z rounded: each entry moves by at most u times its
      centred value, and z cancels in every difference.  So a difference
      of b is the exact difference of 2^-e a moved by at most 2u sqrt(S)
      in norm (plain) or 4u sqrt(S) (mixed); as the norms are at most
      2 sqrt(S) and 4 sqrt(S), its square moves by at most 9u S or 33u S.
    - _shift_norms rounds each difference, its square, a sum of k terms
      and a mean within gamma_(k+3) (ch. 4), and its root within 2u, so its
      square lies within gamma_(k+8) of the real squared norm, at most 16 S:
      at most 17(k + 8)u S.  A mixed difference subtracts two differences ds
      of one row shift, each rounded within u |ds|, and ||ds||_2 <= 2
      sqrt(S), so the difference moves by at most 4u sqrt(S) in norm, at
      most 4 sqrt(S), and its square by at most 33u S.
    - _l2_bounds rounds est +- width, their roots and the ldexp within 3u
      of at most 17 S.

    These add up to 16 e_c S + (17k + 349)u S.  So width = 2 c0 (16 e_c +
    (17k + 512)u), its 2 covering S <= 1.01 c0 and the factors 1 + eps.
    """
    m, n = a.shape
    k = a.size
    b, e = _centred(a)
    spec = np.fft.rfft2(b)
    parts = _abs_pow(spec.view(float), 2.0)  # re^2 and im^2, interleaved
    parts[:, 0::2] += parts[:, 1::2]
    parts[:, 1::2] = 0.0
    c = np.fft.irfft2(spec, s=(m, n)) / k
    c0 = float(c[0, 0])
    if mixed:  # 2(c(s, -t) + c(s, t) - 2c(s, 0) - 2c(0, t) + 2c(0, 0))
        est = 2.0 * (c[:, -np.arange(n) % n] + c - 2.0 * c[:, :1] - 2.0 * c[:1] + 2.0 * c0)
    else:
        est = 2.0 * (c0 - c)
    eps = 128.0 * max(1.0, math.log2(k)) * _U
    width = 2.0 * c0 * (16.0 * (math.sqrt(k) + 4.0) * eps + (17.0 * k + 512.0) * _U)
    return est, width, e


def _l2_bounds(a: np.ndarray, mixed: bool):
    """(lo, hi) on the p = 2 norm that _shift_norms computes for each shift
    of the (M, N) core of a, from _l2_estimate; hi is -inf at the mixed row
    and column 0, whose differences vanish.

    Underflow moves a computed mean of squares by at most 2^-1073: a square
    below 2^-1022 rounds within 2^-1075, and so does a mean below it, while
    sums and differences of floats round no worse there.  So it moves the
    root by at most 2^-536.5, inside the 2^-535 by which lo and hi widen.
    A sum can overflow only above _ceil(k, 2), which the real norm, at most
    hi, then exceeds; hi is inf there.
    """
    est, width, e = _l2_estimate(a, mixed)
    hi = np.ldexp(np.sqrt(est + width), e) + 2.0**-535
    hi[hi >= _ceil(a.size, 2.0)] = math.inf
    if mixed:
        hi[0] = hi[:, 0] = -math.inf
    lo = np.ldexp(np.sqrt(np.maximum(est - width, 0.0)), e) - 2.0**-535
    return np.maximum(lo, 0.0), hi


def _capped(f: Grid2, cap: int) -> np.ndarray:
    """f's samples; grids with a side above cap are refused."""
    if f.m > cap or f.n > cap:
        raise ValueError(f"grid {f.m}x{f.n} exceeds cap {cap}; pass a larger cap")
    return f.samples


def modulus_iso_2d(f: Grid2, p: Exponent, cap: int = MIXED_TABLE_CAP) -> ModulusTable1D:
    """Isotropic modulus table at delta = k/K, K = max(M, N).

    Entry k is the largest plain shift norm over 0 <= s <= k M // K,
    0 <= t <= k N // K, so by the central mirror also over (-s, -t).
    Shifts of mixed sign, (s, -t) and (-s, t), are left out: this is not
    the sup over the ball |h| <= delta and can be smaller (sin 2 pi (x - y),
    32^2, p = 2: 0.1386 at delta = 1/32, the ball 0.2759).
    """
    pmax = _prefix_max_table(_capped(f, cap), p.p, mixed=False)
    K = max(f.m, f.n)
    ks = np.arange(K + 1)
    return ModulusTable1D(pmax[ks * f.m // K, ks * f.n // K], p, 1.0 / K)


def modulus_mixed(f: Grid2, p: Exponent, cap: int = MIXED_TABLE_CAP) -> ModulusTable2D:
    """Mixed modulus table: 2D prefix max over the full shift-norm table.

    Cost is O((MN)^2); grids with a side above cap are refused.
    """
    table = _prefix_max_table(_capped(f, cap), p.p, mixed=True)
    return ModulusTable2D(table, p, (1.0 / f.m, 1.0 / f.n))


def mixed_ratio_sup(f: Grid2) -> float:
    """The largest ratio ||D(s, t)||_1 / (u v), u = s/M, v = t/N, over the
    mixed shifts 0 < s < M, 0 < t < N of f, bit for bit: the largest fl(r/w),
    r the p = 1 norm that _shift_norms computes and w = fl(fl(s/M) fl(t/N)).

    No table is built, and only the partners 0 < s <= M/2, 0 < t <= N/2
    of _mirrors are bounded and evaluated: no mirror's ratio exceeds its
    partner's (below).  For w > 0, fl(x/w) is nondecreasing in x, so a
    bound lo <= r <= hi gives fl(lo/w) <= fl(r/w) <= fl(hi/w).  Every
    partner is evaluated or has an upper ratio strictly below the ratio of
    an evaluated one, as in _prefix_max_table, and ties are evaluated:

    1. hi bounds r from the upper bound h2 of _l2_bounds on the computed
       p = 2 norm r2 of the same float64 differences d (below).
    2. The partner of the largest upper ratio is evaluated; its ratio is R.
    3. The partners whose upper ratio reaches R get the bounds of one
       _f32_bounds pass at p = 1.
    4. One _shift_norms call evaluates those whose float32 upper ratio
       reaches the larger of R and their largest float32 lower ratio,
       which is the lower bound of a partner evaluated here.

    The widening, with k = M*N, u = 2^-53 and gamma_j = ju/(1 - ju):

    - r = fl(S1/k), S1 a float sum of the k terms |d| with real sum T1,
      so r <= (1 + gamma_(k-1))(1 + u) T1/k in any order (Higham,
      *Accuracy and Stability of Numerical Algorithms*, ch. 4).
    - r2 is the root, within 2u (assumed, as in _partner_bounds), of
      fl(S2/k), S2 a float sum of the squares, each within u, with real
      sum T2: r2 >= (1 - 2u)(1 - u)(1 - gamma_(k-1))^(1/2) (T2/k)^(1/2).
    - Cauchy-Schwarz: T1/k <= (T2/k)^(1/2).  With x = (k - 1)u,
      (1 + gamma_(k-1))/(1 - gamma_(k-1))^(1/2) = 1/((1 - x)(1 - 2x))^(1/2)
      <= 1/(1 - 2x), a geometric mean being at least the smaller number,
      and (1 + u)/((1 - 2u)(1 - u)) <= 1/(1 - 4u).  So r <= r2/(1 -
      (2k + 2)u).
    - Underflow moves the mean of squares by at most 2^-1073 (_l2_bounds),
      its root by at most 2^-536.5, and the p = 1 mean by at most 2^-1075;
      float sums of the |d| do not underflow.  So r <= r2/(1 - (2k + 2)u)
      + 2^-536.
    - hi = fl(fl(h2 grow) + 2^-535), grow = fl(1/(1 - (2k + 6)u)), whose
      divisor is exact, as in _partner_bounds.  The three roundings each
      lose at most a factor 1 - u (h2 >= 2^-535 is normal), and (1 -
      u)^3/(1 - (2k + 6)u) >= 1/(1 - (2k + 3)u), so hi >= r.

    Mirrors, with K = max(M, N): a mirror (s', t') of (s, t) has s' = M -
    s > s or t' = N - t > t, say the first, so s'/s >= (M + 1)/(M - 1) >=
    (K + 1)/(K - 1) and, with the three roundings of w, w'/w >= (K + 1)/(K
    - 1) (1 - 6u).  Its terms |d| are its partner's (module docstring):
    its sum S' and the partner's S add the same k terms, of real sum T.  If
    T < 2^-1021 both sums are exact (every float is a multiple of 2^-1074,
    and floats below 2^-1021 are spaced 2^-1074), so r' = r.  Otherwise
    S'/S <= 1/(1 - (2k - 2)u), both sums exceed 2^-1022, and the division
    by k rounds within ku relative, subnormal or not (2^-1075 = u 2^-1022),
    so r'/r <= 1/(1 - (4k - 2)u).  Then r'/w' <= r/w, so fl(r'/w') <=
    fl(r/w), when (1 - 6u)(1 - (4k - 2)u) >= (K - 1)/(K + 1), which (2k +
    2)(K + 1)u < 1 ensures, with ku < 1/6; larger grids are refused.  So
    are grids whose fl(fl(max - min) k) reaches 2^1021: below it each |d|
    <= 2 (max - min)(1 + u)^2, and no sum of k of them overflows.
    """
    a = f.samples
    m, n = a.shape
    k = a.size
    if (2 * k + 2) * (max(m, n) + 1) >= 2**53:
        raise ValueError(f"grid {m}x{n} is too large for the mirror bound of mixed_ratio_sup")
    if (float(a.max()) - float(a.min())) * k >= 2.0**1021:
        raise ValueError("the samples' range times M*N reaches 2^1021; a sum of |d| may overflow")
    w = (np.arange(1, m // 2 + 1) / m)[:, None] * (np.arange(1, n // 2 + 1) / n)
    grow = 1.0 / (1.0 - (2 * k + 6) * _U)
    upper = (_l2_bounds(a, True)[1][1 : m // 2 + 1, 1 : n // 2 + 1] * grow + 2.0**-535) / w
    s, t = np.unravel_index(np.argmax(upper), upper.shape)
    best = float(_shift_norms(a, 1.0, True, np.array([s + 1]), np.array([t + 1]))[0] / w[s, t])
    rows, cols = np.nonzero(upper >= best)
    del upper  # freed before the float32 pass, whose buffers set the peak
    lo, hi = _f32_bounds(a, 1.0, True, rows + 1, cols + 1)
    w = w[rows, cols]
    kept = hi / w >= max(best, float((lo / w).max()))
    rows, cols, w = rows[kept] + 1, cols[kept] + 1, w[kept]
    return max(best, float((_shift_norms(a, 1.0, True, rows, cols) / w).max()))


def averaged_modulus_check(g: Grid1, p: Exponent) -> dict:
    """omega(delta) against (3/delta) * integral of shift norms over [0, delta].

    The integral is a trapezoid rule on the grid shift norms.  Its panel
    terms are those np.trapezoid forms, computed once; each prefix is then
    reduced by np.add.reduce, as np.trapezoid reduces them, so every
    integral keeps the bits of np.trapezoid(norms[:k + 1], dx=1/N).  (A
    cumsum would add them in sequence and round differently.)  Returns per-
    delta margins (rhs - lhs) and the minimum margin.
    """
    n = g.n
    norms = _shift_norm_table(g.samples[:, None], p.p)[:, 0]
    table = np.maximum.accumulate(norms)
    dx = 1.0 / n
    terms = dx * (norms[1:] + norms[:-1]) / 2.0
    rows = []
    for k in range(1, n + 1):
        delta = k / n
        integral = float(np.add.reduce(terms[:k]))
        rhs = 3.0 / delta * integral
        rows.append({"delta": delta, "lhs": table[k], "rhs": rhs, "margin": rhs - table[k]})
    return {"rows": rows, "min_margin": min(r["margin"] for r in rows)}


def omega_sandwich_check(g: Grid1, p: Exponent) -> dict:
    """Omega_p <= omega(f; 1)_p <= 2 Omega_p on the grid.

    The result also carries the 1-D modulus table it read omega(f; 1)_p
    from, so callers that check the table itself need not compute it again.
    """
    om = omega_p_functional(g, p)
    table = modulus_1d(g, p)
    w1 = table.values[-1]
    return {
        "omega_p": om,
        "modulus_at_1": w1,
        "lower_margin": w1 - om,
        "upper_margin": 2.0 * om - w1,
        "table": table,
    }
