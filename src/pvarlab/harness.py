"""Corpus assembly, inequality suites, sharpness sweeps and report persistence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from .grid import (
    Exponent,
    Grid1,
    Grid2,
    gen_cumulative,
    gen_product,
    gen_series_f,
    gen_sine,
    gen_staircase,
    gen_tent_scaled,
    gen_trigpoly,
)
from .mixednorm import section_lipschitz_check, w_p, w_p_estimate_check
from .modulus import (
    MIXED_TABLE_CAP,
    lp_norm,
    modulus_1d,
    modulus_mixed,
    averaged_modulus_check,
    diff_modulus_bound_check,
    omega_sandwich_check,
    _shift_norm_table,
)
from .pvar1d import pvar_cyclic, pvar_oracle
from .smoothness import (
    FieldContext,
    chain_check,
    estimate_bracket,
    integral_I,
    integral_J,
    integral_K,
)
from .vitali2d import (
    certified_vitali,
    staircase_net_bound,
    vitali_ascent,
    vitali_finest,
    vitali_oracle,
)

__all__ = [
    "SWEEP_FAMILIES",
    "CheckReport",
    "run_suite",
    "hardy_littlewood_check",
    "embedding_1d_check",
    "main_estimate_check",
    "sharpness_sweep",
    "random_corpus_1d",
    "random_corpus_2d",
    "sweep_rows_to_csv",
]

TOL = 1e-9

# The suite's fixed inputs: its exponents (all above 1), the corpus sizes
# and the sizes of its oracle cross-checks.  _meta records the first three.
P_GRID = (1.1, 1.5, 2.0, 3.0, 8.0)
SIZE_1D = 64  # a multiple of 16: tents up to n = 8 and sines up to n = 4 align
SIZE_2D = 32  # a multiple of 16: the tnxt1 sweep's orders 1, 2, 4 align
N_RANDOM_1D = 6
N_RANDOM_2D = 4
ORACLE_N_1D = 10  # largest 1-D oracle grid, at most pvar1d.ORACLE_MAX_N
ORACLE_SIDE_2D = 5  # side of the 2-D oracle grids, at most vitali2d.ORACLE_MAX_SIDE
ORACLE_TRIALS = 40  # 1-D oracle grids; the 2-D check draws a quarter as many

# Sweep family -> the (p values, n values) of its preset sweep.
SWEEP_FAMILIES = {
    "t1xt1": ((1.01, 1.1, 1.5, 2.0, 10.0, 50.0), (1,)),
    "tnxt1": ((1.5, 2.0, 4.0), (1, 2, 4)),
    "tnxtn": ((1.5, 2.0, 4.0), (1, 2, 4)),
    "trigpoly": ((1.0, 2.0, 4.0, 8.0), (1, 2, 3, 4)),
}


@dataclass
class CheckReport:
    meta: dict
    checks: list = field(default_factory=list, init=False)
    sweeps: list = field(default_factory=list, init=False)

    def add(self, id: str, anchor: str, inputs: str, lhs: float, rhs: float,
            tolerance: float = TOL) -> None:
        margin = rhs - lhs
        self.checks.append(
            {
                "id": id,
                "paper_anchor": anchor,
                "inputs": inputs,
                "lhs": lhs,
                "rhs": rhs,
                "margin": margin,
                "tolerance": tolerance,
                "pass": bool(margin >= -tolerance),
            }
        )

    def add_failure(self, id: str, anchor: str, inputs: str, message: str) -> None:
        self.checks.append(
            {
                "id": id,
                "paper_anchor": anchor,
                "inputs": inputs,
                "lhs": None,
                "rhs": None,
                "margin": None,
                "tolerance": TOL,
                "pass": False,
                "error": message,
            }
        )

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        return {"meta": self.meta, "checks": self.checks, "sweeps": self.sweeps}


# ---------------------------------------------------------------- corpora


def random_corpus_1d(rng: np.random.Generator, n: int, count: int) -> list[tuple[str, Grid1]]:
    """Seeded piecewise-constant and piecewise-linear functions with few jumps."""
    out = []
    for k in range(count):
        jumps = int(rng.integers(2, 7))
        pos = np.sort(rng.choice(n, size=jumps, replace=False))
        levels = rng.normal(size=jumps)
        vals = np.zeros(n)
        for j in range(jumps):
            lo = pos[j]
            hi = pos[(j + 1) % jumps] if j + 1 < jumps else n
            vals[lo:hi] = levels[j]
        vals[: pos[0]] = levels[-1]
        if k % 2:  # piecewise linear variant: integrate and recentre
            vals = np.cumsum(vals - vals.mean()) / n
        out.append((f"random1d_{k}", Grid1(vals)))
    return out


def random_corpus_2d(rng: np.random.Generator, m: int, n: int, count: int) -> list[tuple[str, Grid2]]:
    """Sums of a few random rectangles (piecewise-constant fields)."""
    out = []
    for k in range(count):
        a = np.zeros((m, n))
        for _ in range(int(rng.integers(3, 7))):
            i0, i1 = np.sort(rng.integers(0, m, size=2))
            j0, j1 = np.sort(rng.integers(0, n, size=2))
            a[i0 : i1 + 1, j0 : j1 + 1] += rng.normal()
        out.append((f"random2d_{k}", Grid2(a)))
    return out


def _corpus_1d(rng: np.random.Generator) -> list[tuple[str, Grid1]]:
    n = SIZE_1D
    out = [(f"tent{k}", gen_tent_scaled(k, n)) for k in (1, 2, 4, 8)]
    out += [(f"sine{k}", gen_sine(k, n)) for k in (1, 2, 4)]
    out.append(("step", Grid1(np.r_[np.ones(n // 2), -np.ones(n // 2)])))
    out += random_corpus_1d(rng, n, N_RANDOM_1D)
    return out


def _corpus_2d(rng: np.random.Generator) -> list[tuple[str, Grid2]]:
    n = SIZE_2D
    out = [
        ("t1xt1", gen_product(gen_sine(1, n), gen_sine(1, n))),
        ("tent2xsine1", gen_product(gen_tent_scaled(2, n), gen_sine(1, n))),
        ("staircase", gen_staircase(n)),
        ("series_m3", gen_series_f(3, Exponent(2.0), n)),
    ]
    out += random_corpus_2d(rng, n, n, N_RANDOM_2D)
    return out


# ---------------------------------------------------------------- checks


def hardy_littlewood_check(f: Grid2) -> dict:
    """sup over grid shifts of omega(u,v)_1 / (uv) against the finest-net 1-variation.

    The sup of the prefix-max table over (u, v) equals the sup of the raw
    shift-norm ratios ||D(s,t)||_1 / (u v), u = s/M and v = t/N over the
    nonzero shifts, so one array division and max replace the table.
    """
    m, n = f.m, f.n
    raw = _shift_norm_table(f.samples, 1.0, mixed=True)
    u = np.arange(1, m) / m
    v = np.arange(1, n) / n
    s_best = max(0.0, float((raw[1:m, 1:n] / (u[:, None] * v[None, :])).max()))
    v1 = vitali_finest(f, Exponent(1.0))
    gap = abs(s_best - v1) / v1 if v1 > 0 else 0.0
    return {
        "sup_ratio": s_best,
        "v1_finest": v1,
        "relative_gap": gap,
        "le_margin": v1 - s_best,
    }


def embedding_1d_check(g: Grid1, p: Exponent) -> dict:
    """Measured constants for the 1D sup-norm and variation embeddings."""
    if p.p == 1.0:
        raise ValueError("the 1D embedding estimates require p > 1")
    table = modulus_1d(g, p)
    j_hi = integral_J(table).hi
    c = 1.0 / (p.p * p.conj)
    sup = lp_norm(g, math.inf)
    bracket_inf = lp_norm(g, p) + c * j_hi
    var, _ = pvar_cyclic(g, p)
    bracket_var = float(table.values[-1]) + c * j_hi
    out: dict = {"skip": bracket_var == 0.0 and bracket_inf == 0.0}
    out["a_obs_inf"] = sup / bracket_inf if bracket_inf > 0 else None
    out["a_obs_var"] = var / bracket_var if bracket_var > 0 else None
    return out


def main_estimate_check(f: Grid2 | FieldContext, p: Exponent) -> dict:
    """Measured constants for the main Vitali-variation and sup-norm estimates.

    Applied to the doubly mean-free core against smoothness.estimate_bracket.
    The Vitali value is vitali2d.certified_vitali (the oracle on grids up to
    ORACLE_MAX_SIDE, an ascent lower bound otherwise), so the recorded ratios
    are lower bounds on the sharp constant.
    """
    if p.p == 1.0:
        raise ValueError("the main estimate requires p > 1")
    core = FieldContext.of(f).core
    terms = estimate_bracket(core.mixed(p))
    if terms.total == 0.0:
        return {"skip": True}
    v2 = certified_vitali(core.field, p)
    c = 1.0 / (p.p * p.conj)
    j_hi = integral_J(core.iso(p)).hi
    bracket_inf = lp_norm(core.field, p) + c * j_hi + terms.i_term
    return {
        "skip": False,
        "a_obs": v2 / terms.total,
        "a_obs_inf": lp_norm(core.field, math.inf) / bracket_inf,
        "terms": terms._asdict(),
    }


# ---------------------------------------------------------------- sweeps


def _sweep_row(f: Grid2, p: Exponent, family: str, n: int, m: int) -> dict:
    """One sweep row: the certified v_p^(2), omega(1,1), the K and I
    enclosures and the sharpness ratios of f.

    The row's k_term is K.hi/p and its i_term is I.hi/p^2.  These are not
    the terms of smoothness.EstimateBracket, which are K.hi/(p p') and
    I.hi/(p p')^2; the sweep CSV keeps its own definitions.
    """
    table = modulus_mixed(f, p)
    omega11 = float(table.values[-1, -1])
    v2 = certified_vitali(f, p)
    values = {"v2_lower": v2, "omega11": omega11}
    if p.p > 1.0:
        k = integral_K(table)
        i = integral_I(table)
        pc = p.conj
        values.update(
            k_lo=k.lo, k_hi=k.hi, i_lo=i.lo, i_hi=i.hi,
            ratio_smallp=v2 * pc**2 / i.hi if i.hi > 0 else None,
            k_term=k.hi / p.p, i_term=i.hi / p.p**2,
        )
    norm = lp_norm(f, p)
    values["norm_p"] = norm
    if norm > 0:
        values["ratio_oskolkov"] = v2 / ((n * m) ** (1.0 / p.p) * norm)
    return {"family": family, "p": p.p, "n": n, "m": m, "values": values}


def sharpness_sweep(
    family: str,
    p_grid: tuple[float, ...],
    n_grid: tuple[int, ...],
    size: int = 64,
    seed: int = 0,
) -> list[dict]:
    """Diagnostic ratios behind the sharpness remarks, per (p, n) pair.

    Families (the keys of SWEEP_FAMILIES): t1xt1, tnxt1, tnxtn (sine
    products) and trigpoly (seeded random coefficients of degree (n, m)).
    t1xt1 has the single order n = 1; size is at most MIXED_TABLE_CAP.
    """
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"unknown sweep family {family!r}")
    if any(n < 1 for n in n_grid):
        raise ValueError(f"sweep orders must be at least 1, got {list(n_grid)}")
    if family == "t1xt1" and tuple(n_grid) != (1,):
        raise ValueError(f"t1xt1 has the single order n = 1, got {list(n_grid)}")
    if size > MIXED_TABLE_CAP:
        raise ValueError(f"sweep size {size} exceeds the mixed-table limit {MIXED_TABLE_CAP}")
    exponents = [Exponent(p) for p in p_grid]
    rows = []
    rng = np.random.default_rng(seed)
    for pe in exponents:
        if family == "trigpoly":
            for n in n_grid:
                for m in n_grid:
                    if size <= 2 * n or size <= 2 * m:
                        raise ValueError(f"size {size} misaligned for degree ({n},{m})")
                    shape = (n + 1, m + 1)
                    coef = [rng.normal(size=shape) for _ in range(4)]
                    f, _ = gen_trigpoly(*coef, size, size)
                    rows.append(_sweep_row(f, pe, family, n, m))
        else:  # t1xt1, tnxt1, tnxtn: the second frequency is 1 or n
            for n in n_grid:
                if size % (4 * n):
                    raise ValueError(f"size {size} misaligned for sine frequency {n}")
                m = 1 if family == "tnxt1" else n
                f = gen_product(gen_sine(n, size), gen_sine(m, size))
                rows.append(_sweep_row(f, pe, family, n, m))
    return rows


def sweep_rows_to_csv(rows: list[dict]) -> str:
    lines = ["family,p,n,key,value"]
    for r in rows:
        tag = r["n"] if r["n"] == r["m"] else f"{r['n']}x{r['m']}"
        for key, value in sorted(r["values"].items()):
            if value is None:
                continue
            lines.append(f"{r['family']},{r['p']},{tag},{key},{value!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- suite


def _meta(seed: int) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "timestamp": "1970-01-01T00:00:00Z",
        "size_1d": SIZE_1D,
        "size_2d": SIZE_2D,
        "p_grid": list(P_GRID),
    }


class _Run(NamedTuple):
    """What the checks of one run_suite call share; they draw from rng in table order.

    A check body is a generator of report rows (id, anchor, inputs, lhs, rhs
    [, tolerance]).
    """

    rng: np.random.Generator
    corpus1: list[tuple[str, Grid1]]
    corpus2: list[tuple[str, FieldContext]]
    sweeps: list[dict]


# 1. generator sanity: closed-form variation of aligned generators
def _generator_sanity(run: _Run):
    n = SIZE_1D
    for p in (1.0, 2.0):
        pe = Exponent(p)
        for k in (1, 2, 4):
            v, _ = pvar_cyclic(gen_tent_scaled(k, n), pe)
            exact = 2.0 ** (1.0 / p - 1.0) * k ** (1.0 / p)
            yield (f"tent_formula_p{p}_n{k}", "v_p(tent_n) = 2^(1/p-1) n^(1/p)",
                   f"tent n={k} N={n}", abs(v - exact), 0.0, 1e-12)


# 1b. mixed-derivative Bernstein bound for trigonometric polynomials
def _bernstein(run: _Run):
    n = SIZE_2D
    worst = 0.0
    for _ in range(4):
        deg_x, deg_y = int(run.rng.integers(1, 5)), int(run.rng.integers(1, 5))
        coef = [run.rng.normal(size=(deg_x + 1, deg_y + 1)) for _ in range(4)]
        T, D = gen_trigpoly(*coef, n, n)
        for p in P_GRID:
            denom = 4.0 * math.pi**2 * deg_x * deg_y * lp_norm(T, p)
            if denom > 0:
                worst = max(worst, lp_norm(D, p) / denom)
    yield ("bernstein_mixed_derivative", "||D1D2 T||_p <= 4 pi^2 n m ||T||_p",
           f"random degrees <= 4 on {n}x{n}", worst, 1.0, 1e-12)


# 2. 1D oracle equivalence
def _pvar_equiv(run: _Run):
    worst = 0.0
    for trial in range(ORACLE_TRIALS):
        n = int(run.rng.integers(2, ORACLE_N_1D + 1))
        g = Grid1(run.rng.normal(size=n))
        pe = Exponent((1.0, 1.5, 2.0, 3.0)[trial % 4])
        worst = max(worst, abs(pvar_cyclic(g, pe)[0] - pvar_oracle(g, pe)))
    yield ("pvar_oracle_equivalence", "sup over all partitions attained by the anchored chain DP",
           f"{ORACLE_TRIALS} random grids, N <= {ORACLE_N_1D}", worst, 0.0, 0.0)


# 3. 2D oracle equivalence + ascent dominance
def _vitali_equiv(run: _Run):
    worst_eq = 0.0
    worst_exceed = 0.0
    side = ORACLE_SIDE_2D
    for trial in range(ORACLE_TRIALS // 4):
        f = Grid2(run.rng.normal(size=(side, side)))
        pe = Exponent((1.0, 1.5, 2.0, 3.0)[trial % 4])
        vo = vitali_oracle(f, pe)
        va = vitali_ascent(f, pe).value
        worst_exceed = max(worst_exceed, va - vo)
        if pe.p == 1.0:
            worst_eq = max(worst_eq, abs(vitali_finest(f, pe) - vo))
    inputs = f"random {side}x{side} grids"
    yield ("vitali_ascent_le_oracle", "every net evaluation is a lower bound for the net supremum",
           inputs, worst_exceed, 0.0, 1e-12)
    yield ("vitali_finest_p1_exact",
           "refinement never decreases a 1-variation of mixed differences",
           inputs, worst_eq, 0.0, 0.0)


# 4. Golubov identity for the double primitive
def _golubov(run: _Run):
    for name, f in run.corpus2[:2] + random_corpus_2d(run.rng, SIZE_2D, SIZE_2D, 1):
        core = FieldContext.of(f).core.field
        lhs = vitali_finest(gen_cumulative(core), Exponent(1.0))
        rhs = float(np.mean(np.abs(core.samples)))
        yield (f"golubov_identity_{name}",
               "v_1^(2) of the double primitive equals the L^1 norm of the density",
               name, abs(lhs - rhs), 0.0, 1e-12)


# 5. modulus invariants
def _modulus_invariants(run: _Run):
    for name, g in run.corpus1:
        for p in (1.0, 2.0):
            pe = Exponent(p)
            sw = omega_sandwich_check(g, pe)
            t = sw["table"].values
            mono = float(np.min(np.diff(t)))
            yield (f"modulus_monotone_{name}_p{p}", "omega nondecreasing", name, -mono, 0.0)
            half = (t.size - 1) // 2  # t[k] = omega(k/N) for k = 0..N, so 2k <= N
            doubling = min((2 * t[k] - t[2 * k] for k in range(1, half + 1)), default=0.0)
            yield (f"modulus_doubling_{name}_p{p}", "omega(2 delta) <= 2 omega(delta)",
                   name, -doubling, 0.0, 1e-12)
            yield (f"omega_sandwich_{name}_p{p}", "Omega_p <= omega(1)_p <= 2 Omega_p",
                   name, -min(sw["lower_margin"], sw["upper_margin"]), 0.0)
    for name, ctx in run.corpus2[:3]:
        t = ctx.mixed(Exponent(2.0)).values
        ratio_worst = 0.0
        for k2 in range(1, t.shape[0] - 1):
            for k1 in range(k2, t.shape[0]):
                viol = t[k1, -1] / k1 - 2.0 * t[k2, -1] / k2
                ratio_worst = max(ratio_worst, viol)
        yield (f"modulus_ratio_bound_{name}", "omega(u1,v)/u1 <= 2 omega(u2,v)/u2",
               name, ratio_worst, 0.0)


# 6. difference-modulus and averaged-modulus lemmas
def _lemma_checks(run: _Run):
    for name, g in run.corpus1[:6]:
        r = averaged_modulus_check(g, Exponent(2.0))
        yield (f"averaged_modulus_{name}", "omega(delta) <= (3/delta) integral of shift norms",
               name, -r["min_margin"], 0.0)
    for name, ctx in run.corpus2[:3]:
        f = ctx.field
        for p in (1.5, 2.0):
            r = diff_modulus_bound_check(f, max(1, f.m // 8), Exponent(p))
            yield (f"diff_modulus_{name}_p{p}",
                   "omega(D1(h)f; u,v) <= 2 min(omega(f;u,v), omega(f;h,v))",
                   name, -min(r["mixed_min_margin"], r["iso_min_margin"]), 0.0)


# 7. integral inequality chain
def _chain(run: _Run):
    for name, ctx in run.corpus2:
        for p in P_GRID:
            for row in chain_check(ctx, Exponent(p)):
                yield (f"chain_{row['id']}_{name}_p{p}",
                       "K <= 4I/p'; omega(1,1) <= 4I/p'^2; J(core) <= 3K(core)",
                       name, row["lhs"], row["rhs"])


# 8. Hardy-Littlewood p=1
def _hardy_littlewood(run: _Run):
    n = SIZE_2D
    r = hardy_littlewood_check(gen_product(gen_sine(1, n), gen_sine(1, n)))
    yield ("hardy_littlewood_gap", "v_1^(2) equals the sup of omega(u,v)_1/(uv)",
           f"t1xt1 N={n}", r["relative_gap"], 0.05)
    yield ("hardy_littlewood_le", "omega(u,v)_1 <= v_1^(2) uv",
           f"t1xt1 N={n}", -r["le_margin"], 0.0)


# 9. measured constants: finite and stable
def _measured_constants(run: _Run):
    n = SIZE_1D
    worst = 0.0
    for k in (1, 2, 4):
        r = embedding_1d_check(gen_sine(k, n), Exponent(2.0))
        for key in ("a_obs_inf", "a_obs_var"):
            if r[key] is not None:
                worst = max(worst, r[key])
    yield ("embedding_1d_bounded", "sup-norm and variation embeddings with measured constants",
           f"sine family N={n}", worst, 50.0)
    worst2 = 0.0
    for name, ctx in run.corpus2[:3]:
        for p in P_GRID:
            r = main_estimate_check(ctx, Exponent(p))
            if not r["skip"]:
                worst2 = max(worst2, r["a_obs"], r["a_obs_inf"])
    yield ("main_estimate_bounded", "v_p^(2) and sup-norm controlled by omega(1,1), K and I",
           "corpus", worst2, 50.0)


# 10. W_p checks and the separation constructions
def _wp_checks(run: _Run):
    for name, ctx in run.corpus2[:3]:
        for p in (1.0, 2.0):
            r = section_lipschitz_check(ctx, Exponent(p))
            yield (f"section_lipschitz_{name}_p{p}",
                   "|v_p(f_x'') - v_p(f_x')| <= 2 v_p(difference section)",
                   name, -r["margin"], 0.0)
    worst_a = 0.0
    for name, ctx in run.corpus2[:3]:
        for p in (1.1, 2.0, 8.0):
            r = w_p_estimate_check(ctx, Exponent(p))
            if not r["skip"]:
                worst_a = max(worst_a, r["a_obs"])
    yield ("wp_estimate_bounded", "W_p of the core controlled by omega(1,1), K and I",
           "corpus, p in {1.1, 2, 8}", worst_a, 50.0)
    p2 = Exponent(2.0)
    for n in (2, 4, 8, 16):
        yield (f"staircase_net_bound_n{n}",
               "offset-net mixed sum of the staircase is at least n^(1/p)",
               f"n={n}", n ** 0.5, staircase_net_bound(n, p2))
    # desk-scale separation: W_p of the staircase is resolution-free
    w16 = w_p(gen_staircase(16), p2)
    w32 = w_p(gen_staircase(32), p2)
    yield ("staircase_wp_stable",
           "section-variation profiles of the staircase are constant off "
           "the degenerate grid sections",
           "N=16 vs N=32", abs(w16 - w32), 0.0, 1e-12)
    fin4, fin5 = (vitali_finest(gen_series_f(m, p2, 2 ** (m + 1) * 2), p2) for m in (4, 5))
    yield ("series_finest_bounded", "Vitali value of the dyadic series stays bounded",
           "M=4 vs M=5", fin5, fin4 * 1.05)


# 11. sharpness sweeps
def _sweeps(run: _Run):
    run.sweeps.extend(sharpness_sweep("t1xt1", P_GRID, (1,), size=SIZE_2D))
    run.sweeps.extend(sharpness_sweep("tnxt1", (max(P_GRID),), (1, 2, 4), size=SIZE_2D))
    for row in run.sweeps:
        v = row["values"]
        if row["family"] == "t1xt1" and "i_hi" in v:
            pc = Exponent(row["p"]).conj
            yield (f"sweep_smallp_{row['family']}_p{row['p']}_n{row['n']}",
                   "I_p(t1 x t1) <= 4 pi^2 p'^2",
                   f"{row['family']} p={row['p']}", v["i_hi"], 4.0 * math.pi**2 * pc**2)


# (check id, paper anchor of its failure row, body), in run order
_CHECKS = (
    ("generator_sanity", "closed-form variation of aligned generators", _generator_sanity),
    ("bernstein_mixed_derivative", "mixed Bernstein bound", _bernstein),
    ("pvar_oracle_equivalence", "1D supremum", _pvar_equiv),
    ("vitali_oracle_equivalence", "2D supremum", _vitali_equiv),
    ("golubov_identity", "double primitive identity", _golubov),
    ("modulus_invariants", "modulus table invariants", _modulus_invariants),
    ("lemma_checks", "first-difference modulus bounds", _lemma_checks),
    ("chain_check", "integral chain", _chain),
    ("hardy_littlewood", "p=1 characterization", _hardy_littlewood),
    ("measured_constants", "measured embedding constants", _measured_constants),
    ("wp_checks", "mixed-norm checks", _wp_checks),
    ("sharpness_sweeps", "sharpness diagnostics", _sweeps),
)


def run_suite(seed: int) -> CheckReport:
    """Run every check of _CHECKS on the corpus drawn from seed.

    The report's bytes depend on seed alone.  The checks run in order on
    one _Run, whose 2-D corpus is wrapped in FieldContexts that live for
    this call only.  An exception in a check is recorded as a failed check
    after the rows it already yielded; the report passes iff every check
    passes.
    """
    report = CheckReport(meta=_meta(seed))
    rng = np.random.default_rng(seed)
    corpus1 = _corpus_1d(rng)
    contexts = [(name, FieldContext(f)) for name, f in _corpus_2d(rng)]
    run = _Run(rng, corpus1, contexts, report.sweeps)
    for check_id, anchor, body in _CHECKS:
        try:
            for row in body(run):
                report.add(*row)
        except Exception as exc:  # noqa: BLE001 - a panic becomes a failed check
            report.add_failure(check_id, anchor, "-", f"{type(exc).__name__}: {exc}")
    return report
