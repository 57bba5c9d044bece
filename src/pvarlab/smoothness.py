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

from .grid import Exponent, Grid1, Grid2, _freeze
from .modulus import ModulusTable1D, ModulusTable2D, modulus_iso_2d, modulus_mixed
from .pvar1d import _pvar_rows

__all__ = [
    "Enclosure",
    "Decomposition",
    "decompose_lp0",
    "FieldContext",
    "integral_J",
    "integral_K",
    "integral_I",
    "EstimateBracket",
    "estimate_bracket",
    "chain_check",
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


@dataclass(frozen=True)
class Decomposition:
    """f = core + marginal_x(x) + marginal_y(y) with a doubly mean-free core."""

    core: Grid2
    marginal_x: Grid1
    marginal_y: Grid1


def decompose_lp0(f: Grid2) -> Decomposition:
    """Split off the marginal averages; the core has zero row and column means."""
    a = f.samples
    phi1 = a.mean(axis=1)
    grand = float(a.mean())
    phi2 = a.mean(axis=0) - grand
    core = a - phi1[:, None] - phi2[None, :]
    return Decomposition(Grid2(core), Grid1(phi1), Grid1(phi2))


class FieldContext:
    """One field and what the estimates derive from it, each computed on first use.

    .core is the context of the doubly mean-free core; .mixed(p) and .iso(p)
    are the field's mixed and isotropic modulus tables; .sections(p, axis)
    holds v_p of every row section (axis 0) or column section (axis 1).  A
    context holds its results for as long as it lives, so callers keep one
    only as long as they work on that field (run_suite: one call).
    """

    def __init__(self, field: Grid2):
        self.field = field
        self._memo: dict[tuple, Any] = {}

    @classmethod
    def of(cls, f: Grid2 | FieldContext) -> FieldContext:
        """f itself if it is a context, else a fresh context of the field f."""
        return f if isinstance(f, FieldContext) else cls(f)

    @cached_property
    def core(self) -> FieldContext:
        return FieldContext(decompose_lp0(self.field).core)

    def _held(self, key: tuple, make: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def mixed(self, p: Exponent) -> ModulusTable2D:
        return self._held(("mixed", p.p), lambda: modulus_mixed(self.field, p))

    def iso(self, p: Exponent) -> ModulusTable1D:
        return self._held(("iso", p.p), lambda: modulus_iso_2d(self.field, p))

    def sections(self, p: Exponent, axis: int) -> np.ndarray:
        """v_p of every row section (axis 0) or column section (axis 1), read-only."""
        if axis not in (0, 1):
            raise ValueError(f"axis must be 0 (rows) or 1 (columns), got {axis!r}")
        a = self.field.samples.T if axis else self.field.samples
        return self._held(("sections", p.p, axis), lambda: _freeze(_pvar_rows(a, p)))


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
    ju = integral_J(table.slice_u(), u_min)
    jv = integral_J(table.slice_v(), v_min)
    return Enclosure(
        ju.lo + jv.lo,
        ju.hi + jv.hi,
        {
            "domain": {
                "u_min": ju.meta["domain"]["t_min"],
                "v_min": jv.meta["domain"]["t_min"],
                "t_max": 1.0,
            },
            "p": table.p.p,
        },
    )


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
    integrals share one truncation domain.
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
