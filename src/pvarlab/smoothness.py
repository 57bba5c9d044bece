"""Marginal decomposition and certified enclosures of the smoothness integrals.

The weighted integrals of moduli are truncated to [step, 1]: the sub-grid
region is not resolvable from samples, and the paper-style inequality
chains survive truncation because they manipulate the integrand pointwise.
Enclosures use exact weight antiderivatives with the modulus evaluated at
cell endpoints, valid by monotonicity; no smoothness assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, NamedTuple

import numpy as np

from .grid import Exponent, Grid2, _freeze
from .modulus import ModulusTable1D, ModulusTable2D, modulus_iso_2d, modulus_mixed
from .pvar1d import _pvar_rows

__all__ = [
    "Enclosure",
    "decompose_lp0",
    "FieldContext",
    "integral_J",
    "integral_K",
    "integral_I",
    "EstimateBracket",
    "estimate_bracket",
    "chain_check",
    "diff_modulus_bound_check",
]


@dataclass(frozen=True)
class Enclosure:
    """Certified interval [lo, hi] for a truncated-domain integral."""

    lo: float
    hi: float
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("enclosure endpoints must be finite")
        if self.lo > self.hi + 1e-12 * max(1.0, abs(self.hi)):
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, **self.meta}


def decompose_lp0(f: Grid2) -> Grid2:
    """The doubly mean-free core of f = core + phi1(x) + phi2(y): f less its
    marginal averages, with zero row and column means."""
    a = f.samples
    phi1 = a.mean(axis=1)
    grand = float(a.mean())
    phi2 = a.mean(axis=0) - grand
    return Grid2(a - phi1[:, None] - phi2[None, :])


class FieldContext:
    """One field and what the estimates derive from it, each computed on first use.

    .core is the context of the doubly mean-free core; .mixed(p) and .iso(p)
    are the field's mixed and isotropic modulus tables; .sections(p, axis)
    holds v_p of every row section (axis 0) or column section (axis 1).  A
    context holds its results for as long as it lives, so callers keep one
    only as long as they work on that field (run_suite: one call).

    A core shares its parent's mixed tables.  The mixed modulus reads only
    the differences D_s D_t f, and D_s D_t (phi1(x) + phi2(y)) = 0, so f and
    its core f - phi1 - phi2 have one mixed modulus: core.mixed(p) is the
    parent's table, modulus_mixed(parent.field, p), built once with the
    same bits whichever context asks first.  The core keeps its own iso(p)
    and sections(p, axis), which do see the marginals.  It holds the
    parent's field and memo, not the parent, so the two form no cycle.
    """

    def __init__(self, field: Grid2):
        self.field = field
        self._memo: dict[tuple, Any] = {}
        # the field whose mixed tables this context reads, and the memo holding them
        self._mixed_source = (field, self._memo)

    @classmethod
    def of(cls, f: Grid2 | FieldContext) -> FieldContext:
        """f itself if it is a context, else a fresh context of the field f."""
        return f if isinstance(f, FieldContext) else cls(f)

    @cached_property
    def core(self) -> FieldContext:
        core = FieldContext(decompose_lp0(self.field))
        core._mixed_source = self._mixed_source
        return core

    def mixed(self, p: Exponent) -> ModulusTable2D:
        field, memo = self._mixed_source
        return _held(memo, ("mixed", p.p), lambda: modulus_mixed(field, p))

    def iso(self, p: Exponent) -> ModulusTable1D:
        return _held(self._memo, ("iso", p.p), lambda: modulus_iso_2d(self.field, p))

    def sections(self, p: Exponent, axis: int) -> np.ndarray:
        """v_p of every row section (axis 0) or column section (axis 1), read-only."""
        if axis not in (0, 1):
            raise ValueError(f"axis must be 0 (rows) or 1 (columns), got {axis!r}")
        a = self.field.samples.T if axis else self.field.samples
        return _held(self._memo, ("sections", p.p, axis), lambda: _freeze(_pvar_rows(a, p)))


def _held(memo: dict, key: tuple, make: Callable[[], Any]) -> Any:
    """memo[key], made by make() on first use."""
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _require_p_gt_1(p: Exponent) -> None:
    if p.p == 1.0:
        raise ValueError("the weighted smoothness integrals require p > 1")


def _cell_weights(n_cells: int, step: float, t_min: float, p: float) -> np.ndarray:
    """Exact integrals of t^(-1/p-1) over the cells [k*step, (k+1)*step] >= t_min."""
    k = np.arange(n_cells)
    lo = k * step
    hi = lo + step
    return np.where(lo >= t_min - 1e-12, p * (lo ** (-1.0 / p) - hi ** (-1.0 / p)), 0.0)


def _enclose_1d(values: np.ndarray, step: float, p: float, t_min: float) -> tuple[float, float]:
    values = np.ascontiguousarray(values)  # np.dot sums a strided array in another order
    n = values.size - 1
    with np.errstate(divide="ignore"):
        w = _cell_weights(n, step, t_min, p)
    lo = float(np.dot(values[:-1], w))
    hi = float(np.dot(values[1:], w))
    return lo, hi


def integral_J(table: ModulusTable1D, t_min: float | None = None) -> Enclosure:
    """Enclosure of the truncated integral of t^(-1/p) omega(t) dt/t.

    t_min defaults to one grid step; pass a coarser multiple to compare
    enclosures across refinements on a common domain.
    """
    _require_p_gt_1(table.p)
    if t_min is None:
        t_min = table.step
    lo, hi = _enclose_1d(table.values, table.step, table.p.p, t_min)
    return Enclosure(lo, hi, {"domain": {"t_min": t_min, "t_max": 1.0}, "p": table.p.p})


def integral_K(
    table: ModulusTable2D, u_min: float | None = None, v_min: float | None = None
) -> Enclosure:
    """Enclosure of the boundary-slice integral: J applied to omega(t,1) and omega(1,t)."""
    _require_p_gt_1(table.p)
    p = table.p.p
    su, sv = table.steps
    if u_min is None:
        u_min = su
    if v_min is None:
        v_min = sv
    ulo, uhi = _enclose_1d(table.values[:, -1], su, p, u_min)
    vlo, vhi = _enclose_1d(table.values[-1, :], sv, p, v_min)
    domain = {"u_min": u_min, "v_min": v_min, "t_max": 1.0}
    return Enclosure(ulo + vlo, uhi + vhi, {"domain": domain, "p": p})


def integral_I(
    table: ModulusTable2D, u_min: float | None = None, v_min: float | None = None
) -> Enclosure:
    """Enclosure of the double integral of (uv)^(-1/p) omega(u,v) du dv / (uv).

    Per cell, the exact product weight multiplies omega at the lower-left
    (lower bound) or upper-right (upper bound) corner; valid by
    coordinatewise monotonicity.
    """
    _require_p_gt_1(table.p)
    p = table.p.p
    su, sv = table.steps
    if u_min is None:
        u_min = su
    if v_min is None:
        v_min = sv
    m = table.values.shape[0] - 1
    n = table.values.shape[1] - 1
    with np.errstate(divide="ignore"):
        wu = _cell_weights(m, su, u_min, p)
        wv = _cell_weights(n, sv, v_min, p)
    w = np.outer(wu, wv)
    lo = float(np.sum(table.values[:-1, :-1] * w))
    hi = float(np.sum(table.values[1:, 1:] * w))
    return Enclosure(
        lo,
        hi,
        {"domain": {"u_min": u_min, "u_max": 1.0, "v_min": v_min, "v_max": 1.0}, "p": p},
    )


class EstimateBracket(NamedTuple):
    """The main-estimate bracket omega(1,1) + K/(pp') + I/(pp')^2, term by term."""

    omega11: float
    k_term: float
    i_term: float

    @property
    def total(self) -> float:
        return self.omega11 + self.k_term + self.i_term


def estimate_bracket(table: ModulusTable2D) -> EstimateBracket:
    """The bracket of a mixed table; enclosure uppers stand in for K and I."""
    c = 1.0 / (table.p.p * table.p.conj)
    return EstimateBracket(
        float(table.values[-1, -1]), c * integral_K(table).hi, c * c * integral_I(table).hi
    )


def chain_check(f: Grid2 | FieldContext, p: Exponent) -> list[dict]:
    """The inequality chain linking K, I, omega(1,1) and J of the mean-free core.

    Asserted in the certified directions: K.lo <= (4/p') I.hi,
    omega(1,1) <= (4/p'^2) I.hi, and J.lo(core) <= 3 K.hi(core); all
    integrals share one truncation domain.  K(core) reads the core's mixed
    table, which is f's (FieldContext), so K(core) = K; J(core) reads the
    core's own isotropic table.
    """
    _require_p_gt_1(p)
    pc = p.conj
    ctx = FieldContext.of(f)
    table = ctx.mixed(p)
    enc_i = integral_I(table)
    enc_k = integral_K(table)
    omega11 = float(table.values[-1, -1])

    core = ctx.core
    enc_k_core = integral_K(core.mixed(p))
    enc_j_core = integral_J(core.iso(p))

    rows = [
        {
            "id": "K_le_4I_over_pconj",
            "lhs": enc_k.lo,
            "rhs": 4.0 / pc * enc_i.hi,
        },
        {
            "id": "omega11_le_4I_over_pconj_sq",
            "lhs": omega11,
            "rhs": 4.0 / pc**2 * enc_i.hi,
        },
        {
            "id": "J_core_le_3K_core",
            "lhs": enc_j_core.lo,
            "rhs": 3.0 * enc_k_core.hi,
        },
    ]
    for r in rows:
        r["margin"] = r["rhs"] - r["lhs"]
        r["pass"] = r["margin"] >= 0.0
    return rows


def diff_modulus_bound_check(f: Grid2 | FieldContext, h_idx: int, p: Exponent) -> dict:
    """First-difference moduli against twice the minimum of the parent moduli.

    Checks omega(D1(h)f; u, v) <= 2 min(omega(f; u, v), omega(f; h, v))
    entrywise on the mixed tables, and the isotropic analogue.  h_idx indexes
    the row shift h = h_idx/M and must lie in [0, M].  The tables of f are
    the context's; those of the difference D1(h)f are built here.
    """
    ctx = FieldContext.of(f)
    f = ctx.field
    if not 0 <= h_idx <= f.m:
        raise ValueError(f"h_idx must lie in [0, {f.m}], got {h_idx}")
    if h_idx % f.m == 0:
        return {"mixed_min_margin": 0.0, "iso_min_margin": 0.0, "h_idx": h_idx}
    a = f.samples
    g = Grid2(np.roll(a, -h_idx, axis=0) - a)

    tf = ctx.mixed(p)
    tg = modulus_mixed(g, p)
    bound = 2.0 * np.minimum(tf.values, tf.values[h_idx, :][None, :])
    mixed_margin = float(np.min(bound - tg.values))

    sf = ctx.iso(p)
    sg = modulus_iso_2d(g, p)
    # the smallest delta = k/K whose ball reaches the row shift h: k M // K >= h_idx
    k_h = -(-h_idx * (sf.values.size - 1) // f.m)
    iso_bound = 2.0 * np.minimum(sf.values, sf.values[k_h])
    iso_margin = float(np.min(iso_bound - sg.values))

    return {"mixed_min_margin": mixed_margin, "iso_min_margin": iso_margin, "h_idx": h_idx}
