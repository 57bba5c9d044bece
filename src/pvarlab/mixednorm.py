"""Section-variation profiles, the mixed-norm functional W_p and the
section-Lipschitz check; each reads v_p(f_x) and v_p(f_y) from one
FieldContext's .sections."""

from __future__ import annotations

import numpy as np

from .grid import Exponent, Grid2
from .pvar1d import _pvar_rows
from .smoothness import FieldContext, estimate_bracket

__all__ = [
    "phi_profile",
    "psi_profile",
    "w_p",
    "section_lipschitz_check",
    "w_p_estimate_check",
]


def phi_profile(f: Grid2 | FieldContext, p: Exponent) -> np.ndarray:
    """x -> v_p(f_x), pvar_cyclic of each row; the context's read-only array."""
    return FieldContext.of(f).sections(p, 0)


def psi_profile(f: Grid2 | FieldContext, p: Exponent) -> np.ndarray:
    """y -> v_p(f_y), pvar_cyclic of each column; the context's read-only array."""
    return FieldContext.of(f).sections(p, 1)


def w_p(f: Grid2 | FieldContext, p: Exponent) -> float:
    """v_p of both section-variation profiles, summed.

    Each profile is a lane of _pvar_rows, bit for bit pvar_cyclic of the same
    samples, so profiles above Grid1's 2^1021 sample bound are accepted.
    """
    ctx = FieldContext.of(f)
    vx = _pvar_rows(phi_profile(ctx, p)[None, :], p)[0]
    vy = _pvar_rows(psi_profile(ctx, p)[None, :], p)[0]
    return float(vx + vy)


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


def w_p_estimate_check(f: Grid2 | FieldContext, p: Exponent) -> dict:
    """Measured constant for the W_p estimate, applied to the mean-free core.

    The ratio W_p(core) / [omega(1,1) + K/(pp') + I/(pp')^2] is recorded;
    enclosure uppers stand in for the integrals, read off the core's mixed
    table, which is f's (FieldContext).  Degenerate zero brackets
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
