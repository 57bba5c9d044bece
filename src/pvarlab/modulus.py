"""Difference operators and L^p moduli of continuity on grids.

Moduli are prefix maxima of exact circular-shift norms; no interpolation
between grid shifts, so every inequality check is exact at grid arguments.
Every shift norm comes from one evaluator, _shift_norms, as one batched
subtraction, and is bitwise equal to the per-shift reference norms
`shift_norm_1d` and `mixed_diff_norm` of tests/test_modulus.py.  Its
|D|^p, like every array power here, comes from pvar1d._abs_pow, which
keeps the bits of np.abs(D) ** p and keeps the SIMD vectors that hold a
zero difference, common on separable and tie-heavy fields, off numpy's
slow power path.

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
lies within a factor 1 + w of its partner's (see _prefix_max_table).
_shift_norm_table evaluates every partner and mirror.  The prefix-max
tables behind modulus_1d, modulus_mixed and modulus_iso_2d evaluate the
partners, then only the mirrors whose bound reaches the prefix max of the
partners, and keep the bits of the full table.
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
    "averaged_modulus_check",
    "diff_modulus_bound_check",
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


def _view(buf: np.ndarray, start: int, shape: tuple, steps: tuple) -> np.ndarray:
    """A strided view of float64 buf, offset and steps in elements; np.ndarray
    checks that it fits in buf."""
    return np.ndarray(shape, float, buf, 8 * start, tuple(8 * k for k in steps))


def _row_norms(d: np.ndarray, p: float):
    """The L^p norm of each row of a (k, M*N) block of differences d, which
    becomes |d|^p in place (pvar1d._abs_pow, as in _norm).

    Zero differences are common: a mixed difference of a field that is
    separable, or constant along an axis, vanishes, and so does any
    difference of a tie-heavy field on its flat patches.  _abs_pow powers
    such a block without numpy's slow path for vectors holding a zero.
    Each mean is np.add.reduce over one contiguous row, divided by M*N: the
    operations of _norm on the same numbers in the same order.
    """
    _abs_pow(d, p)
    means = np.add.reduce(d, axis=1) / d.shape[1]
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

    The shifts are sorted by group, the row shift of a mixed difference or
    the column shift of a plain one, and then by window.  Each group forms
    its windows once in a reused array: the ds of its row shift with columns
    doubled, whose window t is ds(., . + t), or a rolled by its column shift
    with rows doubled, whose flat window s is a(. + s, . + t).  Each run of
    consecutive windows is cut into chunks of at most _BLOCK values; a chunk
    is one basic slice of the windows, subtracted from the shared base (ds,
    or a) into a reused buffer, whose rows _row_norms finishes.  Every
    difference is the same subtraction of the same two floats as the
    per-shift norm's, so every value equals it bit for bit.
    """
    m, n = a.shape
    mn = a.size
    key, pick = (rows, cols) if mixed else (cols, rows)
    span = (n if mixed else m) + 1  # a gap between the windows of two groups
    pos = key * span + pick
    order = np.argsort(pos)
    pos = pos[order]
    starts = np.flatnonzero(np.diff(pos, prepend=-2) != 1).tolist()
    width = max(1, min(_BLOCK // mn, len(pos)))
    buf = np.empty((width, mn))
    two = np.empty((m, 2 * n) if mixed else (2 * m, n))
    if mixed:  # window t of ds: ds(., . + t), subtracted from ds
        windows, base = _view(two, 0, (n, m, n), (1, 2 * n, 1)), two[:, :n]
        src = np.concatenate((a, a))
    else:  # window s of a(., . + t): a(. + s, . + t), subtracted from a
        windows, base = _view(two, 0, (m, mn), (n, 1)), a.ravel()
    blocks = buf.reshape((width,) + windows.shape[1:])
    vals = np.empty(len(pos))
    group = None
    for i0, i1 in zip(starts, starts[1:] + [len(pos)]):
        g, w0 = divmod(int(pos[i0]), span)
        if g != group:
            group = g
            if mixed:
                np.subtract(src[g : g + m], a, out=base)
                two[:, n:] = base
            else:
                two[:m, : n - g], two[:m, n - g :] = a[:, g:], a[:, :g]
                two[m:] = two[:m]
        for j in range(i0, i1, width):
            k = min(width, i1 - j)
            w = w0 + j - i0
            np.subtract(windows[w : w + k], base, out=blocks[:k])
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

    _shift_norms evaluates the partners first; their prefix max L is a
    lower bound on the table.  A mirror's |D|^p terms are its partner's
    terms in another order, so its norm r' lies within a factor 1 + w of its
    partner's r; a second _shift_norms call evaluates only the mirrors whose
    bound reaches L at their own position, and the prefix max is taken
    again.  A mirror left out is below L at its position, so below the
    table at every position it reaches, and the table keeps the bits of the
    prefix max of _shift_norm_table.

    The width, with u = 2^-53, gamma_j = ju/(1 - ju) and k = M*N: each norm
    is root(fl(S/k)), S a float sum of the same k nonnegative terms with
    real sum T.

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
      gamma_(2k+6).

    Outside the normal range the bound changes.  A mean below 2^-1022 on
    either side keeps r' below 2^(-1020/p)(1 + 2u), so under floor =
    2^(-1000/p)(1 + 8u).  A mirror's sum can overflow only when its
    partner's S reaches 2^1023, which puts r above ceil =
    (2^1022/k)^(1/p)(1 - 8u); such a partner bounds its mirror by inf.
    Computed, floor and ceil move by at most 4u + 710u/p, inside their
    margins 8u and the factors 2^(20/p) and 2^(1/p), for any p.
    """
    m, n = a.shape
    ps, pt, partner, mirror = _mirrors(m, n, mixed)
    raw = _fill(np.zeros((m + 1, n + 1)), a, p, mixed, partner)
    grow = 1.0 / (1.0 - (2 * m * n + 6) * _U)
    floor = 2.0 ** (-1000.0 / p) * (1.0 + 8.0 * _U)
    ceil = (2.0**1022 / (m * n)) ** (1.0 / p) * (1.0 - 8.0 * _U)
    bound = raw[ps, pt]  # each entry's partner
    over = bound >= ceil
    bound *= grow
    np.maximum(bound, floor, out=bound)
    bound[over] = math.inf
    mirror &= bound >= _prefix_max(raw)[:m, :n]
    return _prefix_max(_wrapped(_fill(raw, a, p, mixed, mirror)))


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


def diff_modulus_bound_check(f: Grid2, h_idx: int, p: Exponent) -> dict:
    """First-difference moduli against twice the minimum of the parent moduli.

    Checks omega(D1(h)f; u, v) <= 2 min(omega(f; u, v), omega(f; h, v))
    entrywise on the mixed tables, and the isotropic analogue.  h_idx indexes
    the row shift h = h_idx/M and must lie in [0, M].
    """
    if not 0 <= h_idx <= f.m:
        raise ValueError(f"h_idx must lie in [0, {f.m}], got {h_idx}")
    a = f.samples
    g = Grid2(np.roll(a, -(h_idx % f.m), axis=0) - a) if h_idx % f.m else None

    if g is None:
        return {"mixed_min_margin": 0.0, "iso_min_margin": 0.0, "h_idx": h_idx}

    tf = modulus_mixed(f, p)
    tg = modulus_mixed(g, p)
    bound = 2.0 * np.minimum(tf.values, tf.values[h_idx, :][None, :])
    mixed_margin = float(np.min(bound - tg.values))

    sf = modulus_iso_2d(f, p)
    sg = modulus_iso_2d(g, p)
    # the smallest delta = k/K whose ball reaches the row shift h: k M // K >= h_idx
    k_h = -(-h_idx * (sf.values.size - 1) // f.m)
    iso_bound = 2.0 * np.minimum(sf.values, sf.values[k_h])
    iso_margin = float(np.min(iso_bound - sg.values))

    return {"mixed_min_margin": mixed_margin, "iso_min_margin": iso_margin, "h_idx": h_idx}


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
