"""Section-variation profiles and the mixed-norm functional W_p."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Exponent, Grid1, Grid2
from .modulus import modulus_mixed
from .pvar1d import pvar_cyclic
from .smoothness import decompose_lp0, estimate_bracket

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
    vals = np.array([pvar_cyclic(f.row(i), p)[0] for i in range(f.m)])
    return SectionProfile(Grid1(vals), "x", p)


def psi_profile(f: Grid2, p: Exponent) -> SectionProfile:
    """y -> v_p(f_y), computed exactly per column."""
    vals = np.array([pvar_cyclic(f.col(j), p)[0] for j in range(f.n)])
    return SectionProfile(Grid1(vals), "y", p)


def w_p(f: Grid2, p: Exponent) -> float:
    """v_p of both section-variation profiles, summed."""
    vx, _ = pvar_cyclic(phi_profile(f, p).values, p)
    vy, _ = pvar_cyclic(psi_profile(f, p).values, p)
    return vx + vy


def section_lipschitz_check(f: Grid2, p: Exponent) -> dict:
    """|v_p(f_x'') - v_p(f_x')| <= 2 v_p(difference section), all row pairs."""
    rows_var = [pvar_cyclic(f.row(i), p)[0] for i in range(f.m)]
    worst = None
    for i in range(f.m):
        for j in range(i + 1, f.m):
            d = Grid1(f.samples[j] - f.samples[i])
            bound = 2.0 * pvar_cyclic(d, p)[0]
            margin = bound - abs(rows_var[j] - rows_var[i])
            if worst is None or margin < worst["margin"]:
                worst = {"pair": (i, j), "margin": margin, "bound": bound}
    assert worst is not None
    return worst


def w_p_estimate_check(f: Grid2, p: Exponent) -> dict:
    """Measured constant for the W_p estimate, applied to the mean-free core.

    The ratio W_p(core) / [omega(1,1) + K/(pp') + I/(pp')^2] is recorded;
    enclosure uppers stand in for the integrals.  Degenerate zero brackets
    are flagged and skipped.
    """
    if p.p == 1.0:
        raise ValueError("the W_p estimate requires p > 1")
    core = decompose_lp0(f).core
    bracket = estimate_bracket(modulus_mixed(core, p)).total
    if bracket == 0.0:
        return {"skip": True, "bracket": 0.0, "w_p": 0.0, "a_obs": None}
    w = w_p(core, p)
    return {"skip": False, "bracket": bracket, "w_p": w, "a_obs": w / bracket}
