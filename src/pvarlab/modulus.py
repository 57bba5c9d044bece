"""Difference operators and L^p moduli of continuity on grids.

Moduli are prefix maxima of exact circular-shift norms; no interpolation
between grid shifts, so every inequality check is exact at grid arguments.
Every shift-norm table comes from one batched kernel, `_shift_norm_table`,
whose entries are bitwise equal to the per-shift reference norms
`shift_norm_1d` and `mixed_diff_norm` of tests/test_modulus.py.

The kernel evaluates |D|^p once for each pair of shifts whose differences
are exact negatives of each other.  IEEE subtraction is antisymmetric,
x - y = -(y - x) bit for bit, and rotating an array moves its entries
without changing them.  Write a_(s,t) = a(. + s, . + t) on the (M, N) grid.

* Plain tables, D(s, t) = a_(s,t) - a.  Rotating D(s, t) by (s, t) gives
  a - a_(-s,-t), so D(M - s, N - t) = a_(-s,-t) - a = -roll(D(s, t), (s, t)).
* Mixed tables, D(s, t) = ds(., . + t) - ds with ds = a_(s,0) - a.
  Rotating ds by s rows gives a - a_(-s,0), the negated ds of row shift
  M - s, so D(M - s, t) = -roll(D(s, t), s rows).  Rotating D(s, t) by t
  columns gives ds - ds(., . - t), so D(s, N - t) = -roll(D(s, t), t
  columns).  The two compose to D(M - s, N - t) = -roll(D(s, t), (s, t)).

|.|^p drops the sign, so each partner's |D|^p is the rotated block, entry
for entry.  Its mean is then summed over the rotated block in its own
row-major order, the order in which _norm sums the partner's difference,
so the mirrored entries keep the per-shift bits too.

A prefix max needs a mirrored entry only where it can reach the running
maximum.  So _prefix_max_table, behind modulus_mixed and modulus_iso_2d,
runs the kernel without its mirror step.  It bounds each mirror from
above by its partner's norm times 1 + w (the same terms summed in another
order), and re-evaluates exactly only the mirrors whose bound reaches the
prefix max of the evaluated entries.  Its tables keep the bits of the
full table.  hardy_littlewood_check and the 1-D callers read raw entries,
so they take the full table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Exponent, Grid1, Grid2, _freeze
from .pvar1d import _BLOCK, _U, _root, omega_p_functional

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
    return _root(float(np.mean(np.abs(a) ** p)), p)


def lp_norm(f: Grid1 | Grid2, p: Exponent | float) -> float:
    """Rectangle-rule L^p norm; pass math.inf for the sup norm."""
    pp = p.p if isinstance(p, Exponent) else float(p)
    return _norm(f.samples, pp)


def _view(buf: np.ndarray, start: int, shape: tuple, steps: tuple) -> np.ndarray:
    """A strided view of float64 buf, offset and steps in elements; np.ndarray
    checks that it fits in buf."""
    return np.ndarray(shape, float, buf, 8 * start, tuple(8 * k for k in steps))


def _abs_pow(d: np.ndarray, p: float) -> None:
    """|d|^p in place, the terms of every shift norm."""
    if p == 2.0:
        np.multiply(d, d, out=d)  # x*x equals |x|*|x| bit for bit
    else:
        np.abs(d, out=d)
        if p != 1.0:
            d **= p


def _row_norms(block: np.ndarray, p: float):
    """The p-th root of each row's mean in a (k, M*N) block of |D|^p terms.

    Each mean is np.add.reduce over one contiguous row, divided by M*N: the
    operations of _norm on the same numbers in the same order.
    """
    means = np.add.reduce(block, axis=1) / block.shape[1]
    if p == 1.0:
        return means
    inv = 1.0 / p
    return [v**inv for v in means.tolist()]


def _shift_norm_table(
    a: np.ndarray, p: float, mixed: bool = False, mirrored: bool = True
) -> np.ndarray:
    """raw[s, t] = ||D(s, t)||_p on the (M, N) array a, for s = 0..M, t = 0..N.

    D(s, t) is a(. + s, . + t) - a, or with mixed=True the mixed difference
    ds(., . + t) - ds with ds = a(. + s, .) - a; the mixed row and column 0
    are left at zero.  |D|^p is evaluated once per mirror pair (see the
    module docstring): for t <= N/2 only, and for s <= M/2 in mixed tables
    and in the self-mirrored plain columns t = 0 and t = N/2.  With
    mirrored=False the other entries, the mirrors, are left at zero (and so
    are their copies in row M and column N): _prefix_max_table bounds them
    from their partners and re-evaluates only those that can set a maximum.

    A block is the row shifts s0..s0+w-1 of one column shift t, each a
    contiguous (M*N) window of dbl[:, 0]; dbl[:, 1] repeats the block.  In
    plain tables a window is a flat slice of a rolled by t columns and then
    stacked twice, so no row shift needs a copy of its own.  Rotating
    window k by (i rows, j columns) reads the flat window of [D_k, D_k]
    that starts i*N + j before the second copy, except in the first j
    columns of each row, which wrap within the row and so read N further
    on.  Both reads are strided views with one step between windows, so a
    whole block is rotated in two copies however many windows it holds.
    Without mirrors neither the repeat nor the rotated copy is allocated.

    Every mean, direct or mirrored, is _row_norms over the row-major |D|^p
    of that shift.  So every entry is bitwise equal to the per-shift norms
    shift_norm_1d and mixed_diff_norm, the references in
    tests/test_modulus.py.  The 1-D callers pass an (N, 1) column, whose
    row shifts all fit in one block.
    """
    a = np.asarray(a, dtype=float)  # the strided views below read float64
    m, n = a.shape
    mn = a.size
    raw = np.zeros((m + 1, n + 1))
    width = max(1, min(_BLOCK // mn, m // 2 if mixed else m))
    dbl = np.empty((width, 1 + mirrored, mn))
    out = np.empty((width, mn)) if mirrored else None
    flip = (m - np.arange(m)) % m

    def finish(t: int, s0: int, w: int, mirrors: list) -> None:
        # mirrors: (r, c, lo, hi) sends (s, t) to ((M - s) % M if r else s,
        # (N - t) % N if c else t) by a rotation of (r*s, c*t), for lo <= s < hi
        d = dbl[:w, 0]
        _abs_pow(d, p)
        raw[s0 : s0 + w, t] = _row_norms(d, p)
        spans = [(r, c, max(lo, s0), min(hi, s0 + w)) for r, c, lo, hi in mirrors]
        spans = [span for span in spans if mirrored and span[2] < span[3]]
        if spans:
            dbl[:w, 1] = d
        for r, c, lo, hi in spans:
            kk, ct = hi - lo, c * t
            step = 2 * mn - r * n
            start = (lo - s0) * 2 * mn + mn - r * lo * n - ct
            o = out[:kk]
            np.copyto(o, _view(dbl, start, (kk, mn), (step, 1)))
            if ct:
                o.reshape(kk, m, n)[:, :, :ct] = _view(dbl, start + n, (kk, m, ct), (step, n, 1))
            raw[flip[lo:hi] if r else slice(lo, hi), (n - t) % n if c else t] = _row_norms(o, p)

    if mixed:
        s_hi, half = m // 2 + 1, (m + 1) // 2  # 2s < M  <=>  s < half
        src = np.concatenate((a, a)).ravel()
        ds = np.empty((width, m, 2 * n))  # ds of each row shift, columns doubled
        blocks = dbl.reshape(width, 1 + mirrored, m, n)
        for s0 in range(1, s_hi, width):
            w = min(s_hi - s0, width)
            np.subtract(_view(src, s0 * n, (w, m, n), (n, n, 1)), a, out=ds[:w, :, :n])
            ds[:w, :, n:] = ds[:w, :, :n]
            for t in range(1, n // 2 + 1):
                np.subtract(ds[:w, :, t : t + n], ds[:w, :, :n], out=blocks[:w, 0])
                mirrors = [(1, 0, 1, half)]
                if 2 * t < n:
                    mirrors += [(0, 1, 1, s_hi), (1, 1, 1, half)]
                finish(t, s0, w, mirrors)
    else:
        flat = a.ravel()
        for t in range(n // 2 + 1):
            lone = 2 * t % n == 0  # column t is its own mirror
            s_hi = m // 2 + 1 if lone else m
            src = np.concatenate((np.roll(a, -t, axis=1),) * 2).ravel()
            mirrors = [(1, 1, 1, (m + 1) // 2) if lone else (1, 1, 0, m)]
            for s0 in range(0, s_hi, width):
                w = min(s_hi - s0, width)
                np.subtract(_view(src, s0 * n, (w, mn), (n, 1)), flat, out=dbl[:w, 0])
                finish(t, s0, w, mirrors)
    # shifts M and N wrap to 0
    raw[m] = raw[0]
    raw[:m, n] = raw[:m, 0]
    return raw


def _shift_norms(
    a: np.ndarray, p: float, mixed: bool, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """||D(rows[i], cols[i])||_p for each listed shift, with the kernel's bits.

    The shifts are grouped by row shift (mixed) or column shift (plain).
    Each group forms its windows once, as the kernel does: the ds of its row
    shift with columns doubled, or a rolled by its column shift with rows
    doubled.  Then each run of at most _BLOCK values is one gather of its
    shifts' windows and one subtraction into a reused buffer.  Every
    difference is the kernel's subtraction of the same two floats, and
    _abs_pow and _row_norms finish each buffer as the kernel finishes a
    block, so every value equals the per-shift norm bit for bit.
    """
    m, n = a.shape
    mn = a.size
    buf = np.empty((max(1, min(_BLOCK // mn, len(rows))), mn))
    norms = np.empty(len(rows))
    two = np.empty((m, 2 * n) if mixed else (2 * m, n))
    if mixed:  # window t of ds: ds(., . + t), subtracted from ds
        windows, base = _view(two, 0, (n, m, n), (1, 2 * n, 1)), two[:, :n]
    else:  # window s of a(., . + t): a(. + s, . + t), subtracted from a
        windows, base = _view(two, 0, (m, mn), (n, 1)), a.ravel()
    key, pick = (rows, cols) if mixed else (cols, rows)
    for g in sorted(set(key.tolist())):
        if mixed:
            np.subtract(a[g:], a[: m - g], out=two[: m - g, :n])
            np.subtract(a[:g], a[m - g :], out=two[m - g :, :n])
            two[:, n:] = two[:, :n]
        else:
            two[:m, : n - g], two[:m, n - g :] = a[:, g:], a[:, :g]
            two[m:] = two[:m]
        group = np.flatnonzero(key == g)
        for i0 in range(0, group.size, len(buf)):
            chunk = group[i0 : i0 + len(buf)]
            block = buf[: chunk.size]
            np.subtract(windows[pick[chunk]], base, out=block.reshape((-1,) + windows.shape[1:]))
            _abs_pow(block, p)
            norms[chunk] = _row_norms(block, p)
    return norms


def modulus_1d(g: Grid1, p: Exponent) -> ModulusTable1D:
    """omega(f; k/N)_p as the prefix max of circular-shift norms."""
    norms = _shift_norm_table(g.samples[:, None], p.p)[:, 0]
    return ModulusTable1D(np.maximum.accumulate(norms), p, 1.0 / g.n)


def _prefix_max(raw: np.ndarray) -> np.ndarray:
    table = np.maximum.accumulate(raw, axis=0)
    return np.maximum.accumulate(table, axis=1, out=table)


def _prefix_max_table(f: Grid2, p: Exponent, cap: int, mixed: bool) -> np.ndarray:
    """2-D prefix max of f's shift-norm table; grids with a side above cap are refused.

    The kernel evaluates only the shifts it does not mirror.  The prefix
    max L of those entries is a lower bound on the table.  A mirror's |D|^p
    terms are its partner's terms in another order, so its norm r' lies
    within a factor 1 + w of its partner's r; only the mirrors whose bound
    reaches L at their own position are re-evaluated (_shift_norms), and
    the prefix max is taken again.  A mirror left out is below L at its
    position, so below the table at every position it reaches, and the
    table keeps the bits of the full one.

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
    if f.m > cap or f.n > cap:
        raise ValueError(f"grid {f.m}x{f.n} exceeds cap {cap}; pass a larger cap")
    a, pp = f.samples, p.p
    m, n = a.shape
    raw = _shift_norm_table(a, pp, mixed, mirrored=False)
    s, t = np.ogrid[:m, :n]
    if mixed:  # partners are the shifts s <= M/2, t <= N/2; row and column 0 stay 0
        ps, pt = np.minimum(s, m - s), np.minimum(t, n - t)
        mirror = ((ps != s) | (pt != t)) & (s > 0) & (t > 0)
    else:  # partners are (-s, -t); the columns t = 0, N/2 mirror onto themselves
        ps, pt = -s % m, -t % n
        mirror = (2 * t > n) | (2 * t % n == 0) & (2 * s > m)
    grow = 1.0 / (1.0 - (2 * m * n + 6) * _U)
    floor = 2.0 ** (-1000.0 / pp) * (1.0 + 8.0 * _U)
    ceil = (2.0**1022 / (m * n)) ** (1.0 / pp) * (1.0 - 8.0 * _U)
    core = raw[:m, :n]
    bound = core[ps, pt]  # each entry's partner
    over = bound >= ceil
    bound *= grow
    np.maximum(bound, floor, out=bound)
    bound[over] = math.inf
    mirror &= bound >= _prefix_max(raw)[:m, :n]
    rows, cols = np.nonzero(mirror)
    core[rows, cols] = _shift_norms(a, pp, mixed, rows, cols)
    raw[m] = raw[0]
    raw[:m, n] = raw[:m, 0]
    return _prefix_max(raw)


def modulus_iso_2d(f: Grid2, p: Exponent, cap: int = MIXED_TABLE_CAP) -> ModulusTable1D:
    """Isotropic modulus table at delta = k/K, K = max(M, N).

    Entry k is the largest plain shift norm over 0 <= s <= k M // K,
    0 <= t <= k N // K, so by the central mirror also over (-s, -t).
    Shifts of mixed sign, (s, -t) and (-s, t), are left out: this is not
    the sup over the ball |h| <= delta and can be smaller (sin 2 pi (x - y),
    32^2, p = 2: 0.1386 at delta = 1/32, the ball 0.2759).
    """
    pmax = _prefix_max_table(f, p, cap, mixed=False)
    K = max(f.m, f.n)
    ks = np.arange(K + 1)
    return ModulusTable1D(pmax[ks * f.m // K, ks * f.n // K], p, 1.0 / K)


def modulus_mixed(f: Grid2, p: Exponent, cap: int = MIXED_TABLE_CAP) -> ModulusTable2D:
    """Mixed modulus table: 2D prefix max over the full shift-norm table.

    Cost is O((MN)^2); grids with a side above cap are refused.
    """
    table = _prefix_max_table(f, p, cap, mixed=True)
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
