"""Section-variation profiles, the mixed-norm functional W_p and the section
checks; each reads v_p(f_x) and v_p(f_y) from one FieldContext's .sections."""

from __future__ import annotations

import numpy as np

from .grid import Exponent, Grid1, Grid2
from .pvar1d import _pvar_rows, pvar_cyclic
from .smoothness import FieldContext, estimate_bracket
from .vitali2d import certified_vitali

__all__ = [
    "phi_profile",
    "psi_profile",
    "w_p",
    "section_lipschitz_check",
    "hardy_section_check",
    "w_p_estimate_check",
]


def phi_profile(f: Grid2 | FieldContext, p: Exponent) -> Grid1:
    """x -> v_p(f_x), computed exactly per row."""
    return Grid1(FieldContext.of(f).sections(p, 0))


def psi_profile(f: Grid2 | FieldContext, p: Exponent) -> Grid1:
    """y -> v_p(f_y), computed exactly per column."""
    return Grid1(FieldContext.of(f).sections(p, 1))


def w_p(f: Grid2 | FieldContext, p: Exponent) -> float:
    """v_p of both section-variation profiles, summed."""
    ctx = FieldContext.of(f)
    vx, _ = pvar_cyclic(phi_profile(ctx, p), p)
    vy, _ = pvar_cyclic(psi_profile(ctx, p), p)
    return vx + vy


def section_lipschitz_check(f: Grid2 | FieldContext, p: Exponent) -> dict:
    """|v_p(f_x'') - v_p(f_x')| <= 2 v_p(difference section), all row pairs."""
    ctx = FieldContext.of(f)
    a = ctx.field.samples
    rows_var = ctx.sections(p, 0)
    i, j = np.triu_indices(ctx.field.m, 1)  # every row pair, in row-major order
    bounds = 2.0 * _pvar_rows(a[j] - a[i], p)
    margins = bounds - np.abs(rows_var[j] - rows_var[i])
    k = int(np.argmin(margins))
    return {"pair": (int(i[k]), int(j[k])), "margin": float(margins[k]), "bound": float(bounds[k])}


def hardy_section_check(f: Grid2 | FieldContext, p: Exponent) -> list[dict]:
    """Section bound v_p(f_x) <= v_p(f_{x0}) + 2^(1-1/p) v2 for every section.

    The two-row cyclic net over {x0, x} carries each increment of the
    difference section twice, which gives v_p(f_x - f_{x0}) <= 2^(-1/p) v2;
    the section-Lipschitz bound then adds the factor 2.  v2 is
    certified_vitali(f, p): the oracle on grids up to ORACLE_MAX_SIDE, the
    exact finest-net value at p = 1, an ascent lower bound otherwise.  A
    lower bound only shrinks the right side, so a passing row is conclusive.
    The reference sections x0 and y0 are the ones of minimal variation.
    Rows come axis x first, then axis y, each in index order.
    """
    ctx = FieldContext.of(f)
    v2 = certified_vitali(ctx.field, p)
    coeff = 2.0 ** (1.0 - 1.0 / p.p)
    out = []
    for axis, name in enumerate("xy"):
        var = ctx.sections(p, axis).tolist()
        bound = coeff * v2 + min(var)
        out.extend({"axis": name, "index": k, "lhs": v, "rhs": bound, "margin": bound - v}
                   for k, v in enumerate(var))
    return out


def w_p_estimate_check(f: Grid2 | FieldContext, p: Exponent) -> dict:
    """Measured constant for the W_p estimate, applied to the mean-free core.

    The ratio W_p(core) / [omega(1,1) + K/(pp') + I/(pp')^2] is recorded;
    enclosure uppers stand in for the integrals.  Degenerate zero brackets
    are flagged and skipped.
    """
    if p.p == 1.0:
        raise ValueError("the W_p estimate requires p > 1")
    core = FieldContext.of(f).core
    bracket = estimate_bracket(core.mixed(p)).total
    if bracket == 0.0:
        return {"skip": True, "bracket": 0.0, "w_p": 0.0, "a_obs": None}
    w = w_p(core, p)
    return {"skip": False, "bracket": bracket, "w_p": w, "a_obs": w / bracket}
