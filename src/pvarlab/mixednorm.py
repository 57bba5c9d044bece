"""Section-variation profiles and the mixed-norm functional W_p."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Exponent, Grid1, Grid2
from .pvar1d import _pvar_rows, pvar_cyclic
from .smoothness import FieldContext, estimate_bracket

__all__ = [
    "SectionProfile",
    "phi_profile",
    "psi_profile",
    "w_p",
    "section_lipschitz_check",
    "w_p_estimate_check",
]


@dataclass(frozen=True)
class SectionProfile:
    """values[k] = p-variation of the k-th section along the given axis."""

    values: Grid1
    axis: str  # "x": sections f_x (rows), "y": sections f_y (columns)
    p: Exponent


def phi_profile(f: Grid2, p: Exponent) -> SectionProfile:
    """x -> v_p(f_x), computed exactly per row."""
    return SectionProfile(Grid1(_pvar_rows(f.samples, p)), "x", p)


def psi_profile(f: Grid2, p: Exponent) -> SectionProfile:
    """y -> v_p(f_y), computed exactly per column."""
    return SectionProfile(Grid1(_pvar_rows(f.samples.T, p)), "y", p)


def w_p(f: Grid2, p: Exponent) -> float:
    """v_p of both section-variation profiles, summed."""
    vx, _ = pvar_cyclic(phi_profile(f, p).values, p)
    vy, _ = pvar_cyclic(psi_profile(f, p).values, p)
    return vx + vy


def section_lipschitz_check(f: Grid2, p: Exponent) -> dict:
    """|v_p(f_x'') - v_p(f_x')| <= 2 v_p(difference section), all row pairs."""
    a = f.samples
    rows_var = _pvar_rows(a, p)
    i, j = np.triu_indices(f.m, 1)  # every row pair, in row-major order
    bounds = 2.0 * _pvar_rows(a[j] - a[i], p)
    margins = bounds - np.abs(rows_var[j] - rows_var[i])
    k = int(np.argmin(margins))
    return {"pair": (int(i[k]), int(j[k])), "margin": float(margins[k]), "bound": float(bounds[k])}


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
    w = w_p(core.field, p)
    return {"skip": False, "bracket": bracket, "w_p": w, "a_obs": w / bracket}
