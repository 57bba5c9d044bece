"""Difference operators and L^p moduli of continuity on grids.

Moduli are prefix maxima of exact circular-shift norms; no interpolation
between grid shifts, so every inequality check is exact at grid arguments.
Every shift-norm table comes from one batched kernel, `_shift_norm_table`,
whose entries are bitwise equal to the per-shift reference norms
`shift_norm_1d` and `mixed_diff_norm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Exponent, Grid1, Grid2
from .pvar1d import _BLOCK, omega_p_functional

__all__ = [
    "ModulusTable1D",
    "ModulusTable2D",
    "lp_norm",
    "shift_norm_1d",
    "mixed_diff_norm",
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
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.values.size - 1


@dataclass(frozen=True)
class ModulusTable2D:
    """values[k, l] = omega(f; k/M, l/N)_p; zero first row/column, coordinatewise nondecreasing."""

    values: np.ndarray
    p: Exponent
    steps: tuple[float, float]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def slice_u(self) -> ModulusTable1D:
        """omega(f; t, 1) as a function of t."""
        return ModulusTable1D(self.values[:, -1].copy(), self.p, self.steps[0])

    def slice_v(self) -> ModulusTable1D:
        """omega(f; 1, t) as a function of t."""
        return ModulusTable1D(self.values[-1, :].copy(), self.p, self.steps[1])


def _norm(a: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(a)))
    s = float(np.mean(np.abs(a) ** p))
    return s if p == 1.0 else s ** (1.0 / p)


def lp_norm(f: Grid1 | Grid2, p: Exponent | float) -> float:
    """Rectangle-rule L^p norm; pass math.inf for the sup norm."""
    pp = p.p if isinstance(p, Exponent) else float(p)
    return _norm(f.samples, pp)


def shift_norm_1d(g: Grid1, s: int, p: Exponent) -> float:
    """||f(. + s/N) - f||_p, exact on the grid."""
    a = g.samples
    return _norm(np.roll(a, -s) - a, p.p)


def mixed_diff_norm(f: Grid2, s_idx: int, t_idx: int, p: Exponent) -> float:
    """L^p norm of the doubly-circular mixed difference at shift (s/M, t/N)."""
    a = f.samples
    ds = np.roll(a, -s_idx, axis=0) - a
    return _norm(np.roll(ds, -t_idx, axis=1) - ds, p.p)


def _shift_norm_table(a: np.ndarray, p: float, mixed: bool = False) -> np.ndarray:
    """raw[s, t] = ||D(s, t)||_p on the (M, N) array a, for s = 0..M, t = 0..N.

    D(s, t) is a(. + s, . + t) - a, or with mixed=True the mixed difference
    ds(., . + t) - ds with ds = a(. + s, .) - a; the mixed row and column 0
    are left at zero.  For each row shift the column shifts are windows of
    [src, src], differenced in blocks of _BLOCK elements.  Every entry repeats
    the operations of _norm on a contiguous (M, N) slice, so the table is
    bitwise equal to the per-shift norms.  Floating-point subtraction is
    antisymmetric, so the mixed D(M - s, t) is exactly -D(s, t) rotated by s
    rows; mixed row M - s is averaged from the rotated |D(s, t)|^p block.
    """
    m, n = a.shape
    raw = np.zeros((m + 1, n + 1))
    first = int(mixed)
    width = max(1, _BLOCK // a.size)
    buf = np.empty((min(width, n), m, n))
    inv = 1.0 / p

    def put(s: int, t0: int, block: np.ndarray) -> None:
        means = block.reshape(len(block), -1).mean(axis=1)
        raw[s, t0 : t0 + len(block)] = means if p == 1.0 else [v**inv for v in means.tolist()]

    for s in range(first, m // 2 + 1 if mixed else m):
        src = np.roll(a, -s, axis=0)
        base = a
        if mixed:
            src = base = src - a
        win = sliding_window_view(np.concatenate((src, src), axis=1), n, axis=1)
        win = win.transpose(1, 0, 2)
        for t0 in range(first, n, width):
            d = buf[: min(n - t0, width)]
            np.subtract(win[t0 : t0 + len(d)], base, out=d)
            np.abs(d, out=d)
            if p != 1.0:
                d **= p
            put(s, t0, d)
            if mixed and s < m - s:
                put(m - s, t0, np.roll(d, s, axis=1))
    # shifts M and N wrap to 0
    raw[m] = raw[0]
    raw[:, n] = raw[:, 0]
    return raw


def modulus_1d(g: Grid1, p: Exponent) -> ModulusTable1D:
    """omega(f; k/N)_p as the prefix max of circular-shift norms."""
    norms = _shift_norm_table(g.samples[None, :], p.p)[0]
    return ModulusTable1D(np.maximum.accumulate(norms), p, 1.0 / g.n)


def modulus_iso_2d(f: Grid2, p: Exponent, cap: int = MIXED_TABLE_CAP) -> ModulusTable1D:
    """Isotropic modulus: sup over vector shifts in the sup-norm ball |h| <= delta.

    Grid shifts cover negative h by periodicity.  delta runs over k/K with
    K = max(M, N).
    """
    m, n = f.m, f.n
    if m > cap or n > cap:
        raise ValueError(f"grid {m}x{n} exceeds cap {cap}; pass a larger cap")
    norms = _shift_norm_table(f.samples, p.p)
    pmax = np.maximum.accumulate(np.maximum.accumulate(norms, axis=0), axis=1)
    K = max(m, n)
    vals = np.zeros(K + 1)
    for k in range(K + 1):
        delta = k / K
        s = min(m, int(math.floor(delta * m + 1e-9)))
        t = min(n, int(math.floor(delta * n + 1e-9)))
        vals[k] = pmax[s, t]
    return ModulusTable1D(vals, p, 1.0 / K)


def modulus_mixed(f: Grid2, p: Exponent, cap: int = MIXED_TABLE_CAP) -> ModulusTable2D:
    """Mixed modulus table: 2D prefix max over the full shift-norm table.

    Cost is O((MN)^2); grids with a side above cap are refused.
    """
    m, n = f.m, f.n
    if m > cap or n > cap:
        raise ValueError(f"grid {m}x{n} exceeds cap {cap}; pass a larger cap")
    raw = _shift_norm_table(f.samples, p.p, mixed=True)
    table = np.maximum.accumulate(np.maximum.accumulate(raw, axis=0), axis=1)
    return ModulusTable2D(table, p, (1.0 / m, 1.0 / n))


def averaged_modulus_check(g: Grid1, p: Exponent) -> dict:
    """omega(delta) against (3/delta) * integral of shift norms over [0, delta].

    The integral is a trapezoid rule on the grid shift norms.  Returns per-
    delta margins (rhs - lhs) and the minimum margin.
    """
    n = g.n
    norms = _shift_norm_table(g.samples[None, :], p.p)[0]
    table = np.maximum.accumulate(norms)
    rows = []
    for k in range(1, n + 1):
        delta = k / n
        integral = float(np.trapezoid(norms[: k + 1], dx=1.0 / n))
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
    k_h = min(sf.k_max, int(round(h_idx / f.m / sf.step)))
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
