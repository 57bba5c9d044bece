"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Criterion 10 includes an assertion that cannot hold on any finite periodic
grid (see the test's docstring); it is implemented as stated and reports a
FAIL line rather than being weakened.
"""

import math
import sys
import time

import numpy as np
import pytest

import pvarlab.cli as cli
from pvarlab import (
    Exponent,
    Grid1,
    Grid2,
    chain_check,
    decompose_lp0,
    gen_cumulative,
    gen_product,
    gen_series_f,
    gen_sine,
    gen_staircase,
    gen_tent_scaled,
    integral_I,
    integral_J,
    integral_K,
    modulus_1d,
    modulus_iso_2d,
    modulus_mixed,
    phi_profile,
    pvar_cyclic,
    pvar_oracle,
    staircase_net_bound,
    vitali_ascent,
    vitali_finest,
    vitali_oracle,
    w_p,
)
from pvarlab.harness import hardy_littlewood_check, random_corpus_1d, sharpness_sweep
from pvarlab.modulus import (
    ModulusTable1D,
    ModulusTable2D,
    averaged_modulus_check,
    diff_modulus_bound_check,
    omega_sandwich_check,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} — {label}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_pvar_oracle_bitwise():
    """1000 seeded random grids, N <= 12: DP equals brute force bit-for-bit."""
    rng = np.random.default_rng(2024)
    ps = (1.0, 1.5, 2.0, 3.0)
    t0 = time.time()
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(2, 13))
        g = Grid1(rng.normal(size=n))
        pe = Exponent(ps[trial % 4])
        if pvar_cyclic(g, pe)[0] != pvar_oracle(g, pe):
            mismatches += 1
    elapsed = time.time() - t0
    _report(
        1,
        "1D oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches in 1000 trials, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_tent_closed_form():
    """v_p of the frequency-n tent equals 2^(1/p-1) n^(1/p) to 1e-12."""
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        for n in (1, 2, 4, 8):
            v, _ = pvar_cyclic(gen_tent_scaled(n, 48), Exponent(p))
            worst = max(worst, abs(v - 2.0 ** (1.0 / p - 1.0) * n ** (1.0 / p)))
    _report(2, "tent closed form", worst <= 1e-12, f"worst error {worst:.2e}, tol 1e-12")


def test_criterion_03_vitali_oracle_equivalence():
    """Ascent <= oracle always, equality >= 99% on 500 random 6x6 fields at
    p in {1.5, 2, 3} and on all product instances; finest = oracle at p = 1
    on 200 random 5x5 fields.  Budget 60 s."""
    rng = np.random.default_rng(7)
    ps = (1.5, 2.0, 3.0)
    t0 = time.time()
    exceed = 0
    equal = 0
    for trial in range(500):
        f = Grid2(rng.normal(size=(6, 6)))
        pe = Exponent(ps[trial % 3])
        vo = vitali_oracle(f, pe)
        va = vitali_ascent(f, pe).value
        if va > vo + 1e-12:
            exceed += 1
        if va == vo:
            equal += 1
    prod_equal = True
    for p in ps:
        pe = Exponent(p)
        f = gen_product(gen_tent_scaled(1, 6), gen_sine(1, 4))
        prod_equal &= vitali_ascent(f, pe).value == vitali_oracle(f, pe)
    p1_exact = all(
        vitali_finest(g, Exponent(1.0)) == vitali_oracle(g, Exponent(1.0))
        for g in (Grid2(rng.normal(size=(5, 5))) for _ in range(200))
    )
    elapsed = time.time() - t0
    ok = exceed == 0 and equal >= 495 and prod_equal and p1_exact and elapsed < 60.0
    _report(
        3,
        "2D oracle equivalence",
        ok,
        f"{exceed} exceedances, {equal}/500 equal (need 495), products {prod_equal}, "
        f"p=1 exact {p1_exact}, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_04_product_identity():
    """Vitali value of a separable function equals the product of 1D values."""
    pairs = [
        (gen_tent_scaled(1, 6), gen_tent_scaled(2, 4)),
        (gen_sine(1, 4), gen_tent_scaled(1, 6)),
        (gen_sine(1, 4), gen_sine(1, 4)),
    ]
    worst = 0.0
    for g, h in pairs:
        for p in (1.0, 1.5, 2.0, 3.0):
            pe = Exponent(p)
            expect = pvar_cyclic(g, pe)[0] * pvar_cyclic(h, pe)[0]
            got = vitali_oracle(gen_product(g, h), pe)
            worst = max(worst, abs(got - expect))
    _report(4, "product identity", worst <= 1e-9, f"worst error {worst:.2e}, tol 1e-9")


def test_criterion_05_double_primitive_identity():
    """1-variation of the double primitive equals the mean absolute density."""
    rng = np.random.default_rng(11)
    worst = 0.0
    fields = [Grid2(rng.normal(size=(s, s))) for s in (8, 16, 32)]
    fields.append(gen_product(gen_sine(1, 16), gen_sine(2, 16)))
    for f in fields:
        core = decompose_lp0(f).core
        lhs = vitali_finest(gen_cumulative(core), Exponent(1.0))
        rhs = float(np.mean(np.abs(core.samples)))
        worst = max(worst, abs(lhs - rhs))
    _report(5, "double-primitive identity", worst <= 1e-12,
            f"worst error {worst:.2e}, tol 1e-12, grids up to 32x32")


def test_criterion_06_hardy_littlewood_p1():
    """sup of omega(u,v)_1/(uv) matches the 1-variation on sine products."""
    details = []
    ok = True
    for size, tol in ((64, 0.05), (256, 0.02)):
        f = gen_product(gen_sine(1, size), gen_sine(1, size))
        r = hardy_littlewood_check(f)
        ok &= r["relative_gap"] <= tol and r["le_margin"] >= -1e-12
        details.append(f"N={size}: gap {r['relative_gap']:.4f} (tol {tol}), "
                       f"<=-margin {r['le_margin']:.1e}")
    _report(6, "p=1 characterization", ok, "; ".join(details))


def _small_corpus(rng):
    out = [Grid2(rng.normal(size=(int(rng.integers(3, 8)), int(rng.integers(3, 8)))))
           for _ in range(10)]
    out.append(gen_product(gen_sine(1, 4), gen_tent_scaled(1, 6)))
    out.append(gen_staircase(6))
    return out


def _corpus_32(rng):
    out = [
        gen_product(gen_sine(1, 32), gen_sine(1, 32)),
        gen_product(gen_tent_scaled(2, 32), gen_sine(1, 32)),
        gen_staircase(32),
        gen_series_f(3, Exponent(2.0), 32),
    ]
    for _ in range(3):
        out.append(Grid2(rng.normal(size=(32, 32))))
    return out


def test_criterion_07_inequality_chain():
    """omega(u,v) <= v2 (uv)^(1/p) at oracle sizes; K.lo <= (4/p') I.hi,
    omega(1,1) <= (4/p'^2) I.hi, J.lo(core) <= 3 K.hi(core) corpus-wide."""
    rng = np.random.default_rng(23)
    violations = 0
    for f in _small_corpus(rng):
        for p in (1.0, 1.1, 1.5, 2.0, 3.0, 8.0):
            pe = Exponent(p)
            v2 = vitali_oracle(f, pe)
            t = modulus_mixed(f, pe).values
            scale = max(1.0, v2)
            for k in range(1, f.m + 1):
                for l in range(1, f.n + 1):
                    bound = v2 * (k / f.m) ** (1 / p) * (l / f.n) ** (1 / p)
                    if t[k, l] > bound + 1e-12 * scale:
                        violations += 1
    for f in _corpus_32(rng):
        for p in (1.1, 1.5, 2.0, 3.0, 8.0):
            for row in chain_check(f, Exponent(p)):
                if not row["pass"]:
                    violations += 1
    _report(7, "inequality chain", violations == 0, f"{violations} violations")


def test_criterion_08_modulus_invariants():
    """Monotonicity, doubling, ratio bound, first-difference bounds,
    averaged-modulus bound and the averaged-variation sandwich."""
    rng = np.random.default_rng(31)
    corpus1 = [g for _, g in random_corpus_1d(rng, 32, 8)]
    corpus1 += [gen_sine(2, 32), gen_tent_scaled(4, 32),
                Grid1(np.r_[np.ones(16), -np.ones(16)])]
    violations = 0
    for g in corpus1:
        for p in (1.0, 1.5, 2.0, 3.0):
            pe = Exponent(p)
            t = modulus_1d(g, pe).values
            if np.min(np.diff(t)) < -1e-15:
                violations += 1
            if any(t[2 * k] > 2 * t[k] + 1e-12 for k in range(1, (t.size - 1) // 2 + 1)):
                violations += 1
            if any(t[k1] / (k1 / 32) > 2 * t[k2] / (k2 / 32) + 1e-9
                   for k2 in range(1, 32) for k1 in range(k2, 33)):
                violations += 1
            if averaged_modulus_check(g, pe)["min_margin"] < -1e-12:
                violations += 1
            sw = omega_sandwich_check(g, pe)
            if min(sw["lower_margin"], sw["upper_margin"]) < -1e-12:
                violations += 1
    corpus2 = [gen_product(gen_sine(1, 16), gen_tent_scaled(1, 16)),
               gen_staircase(16), Grid2(rng.normal(size=(16, 16)))]
    for f in corpus2:
        for p in (1.5, 2.0):
            for h_idx in (1, 3):
                r = diff_modulus_bound_check(f, h_idx, Exponent(p))
                if min(r["mixed_min_margin"], r["iso_min_margin"]) < -1e-12:
                    violations += 1
    _report(8, "modulus invariants", violations == 0, f"{violations} violations")


def test_criterion_09_sharpness():
    """Small-p and large-p envelopes for the sine product, certified Vitali
    lower bound >= 1, and a uniformly bounded normalized ratio for random
    trigonometric polynomials of degree up to (4, 4)."""
    f = gen_product(gen_sine(1, 64), gen_sine(1, 64))
    ok = True
    details = []
    for p in (1.01, 1.1, 1.5, 10.0, 50.0):
        pe = Exponent(p)
        table = modulus_mixed(f, pe)
        i_hi = integral_I(table).hi
        k_hi = integral_K(table).hi
        pc = pe.conj
        if p < 2.0:
            ok &= i_hi <= 4.0 * math.pi**2 * pc**2
        else:
            ok &= k_hi <= 16.0 * math.pi**2 * p
            ok &= i_hi <= 16.0 * math.pi**2 * p * p
        v2 = vitali_ascent(f, pe).value
        ok &= v2 >= 1.0
        details.append(f"p={p}: v2>={v2:.2f}")
    rows = sharpness_sweep("trigpoly", (1.0, 2.0, 4.0, 8.0), (1, 2, 3, 4),
                           size=32, seed=0)
    ratios = [r["values"]["ratio_oskolkov"] for r in rows]
    ok &= max(ratios) <= 50.0
    details.append(f"normalized ratio in [{min(ratios):.2f}, {max(ratios):.2f}], cap 50")
    _report(9, "sharpness envelopes", ok, "; ".join(details))


def test_criterion_10_separation_constructions():
    """Staircase: W_p = 0 and offset-net bound >= n^(1/p); dyadic series:
    bounded Vitali value but growing profile variation.

    The W_p = 0 half cannot hold for the sampled staircase: its N grid
    sections per axis are indicators of nested arcs whose sizes take N
    consecutive integer values, so one section per axis is constant (all
    ones or all zeros) and each profile has a single dip to zero, giving
    W_p = 2 * 4^(1/p) at every resolution.  The assertion is kept as stated
    and this criterion reports FAIL.
    """
    p2 = Exponent(2.0)
    net_ok = all(
        staircase_net_bound(n, Exponent(p)) >= n ** (1.0 / p) - 1e-12
        for n in (2, 4, 8, 16)
        for p in (1.0, 2.0, 3.0)
    )
    wp_val = w_p(gen_staircase(16), p2)
    wp_zero = abs(wp_val) <= 1e-12

    # matched resolution N = 2^(M+1) * 2: the finest aligned sampling of the
    # truncation, doubled once; at a fixed N the p = 2 full-net value scales
    # with the resolution rather than the truncation order
    series_ok = True
    prev = None
    for M in range(1, 6):
        f = gen_series_f(M, p2, 2 ** (M + 1) * 2)
        fin = vitali_finest(f, p2)
        if prev is not None and M == 5:
            series_ok &= fin <= 1.05 * prev
        prev = fin
        phi = phi_profile(gen_series_f(M, p2, 128), p2)
        amp = float(np.max(phi.samples))
        series_ok &= pvar_cyclic(phi, p2)[0] >= 0.9 * amp * (2 * M) ** 0.5
    ok = net_ok and wp_zero and series_ok
    _report(
        10,
        "separation constructions",
        ok,
        f"net bounds {net_ok}, series {series_ok}, W_p(staircase)={wp_val:.3f} "
        "but the criterion requires 0: unattainable on a sampled grid, "
        "one section per axis is necessarily constant",
    )


def test_criterion_11_enclosure_refinement():
    """Halving the quadrature cells at fixed sampling nests every enclosure
    and contracts its width by a measured factor <= 0.6."""
    ok = True
    worst_ratio = 0.0
    for g in (gen_sine(1, 128), gen_sine(2, 128), gen_tent_scaled(2, 128)):
        for p in (1.5, 2.0, 3.0):
            pe = Exponent(p)
            fine = modulus_1d(g, pe)
            coarse = ModulusTable1D(fine.values[::2], pe, 2.0 * fine.step)
            ec, ef = integral_J(coarse), integral_J(fine, t_min=coarse.step)
            ok &= ef.lo >= ec.lo - 1e-12 and ef.hi <= ec.hi + 1e-12
            worst_ratio = max(worst_ratio, ef.width / ec.width)
    f = gen_product(gen_sine(1, 64), gen_tent_scaled(1, 64))
    for p in (1.5, 2.0):
        pe = Exponent(p)
        fine = modulus_mixed(f, pe)
        coarse = ModulusTable2D(fine.values[::2, ::2], pe,
                                (2 * fine.steps[0], 2 * fine.steps[1]))
        for fn in (integral_K, integral_I):
            ec = fn(coarse)
            ef = fn(fine, coarse.steps[0], coarse.steps[1])
            ok &= ef.lo >= ec.lo - 1e-12 and ef.hi <= ec.hi + 1e-12
            worst_ratio = max(worst_ratio, ef.width / ec.width)
    ok &= worst_ratio <= 0.6
    _report(11, "enclosure refinement", ok,
            f"worst width ratio {worst_ratio:.3f} (cap 0.6), nesting slack 1e-12")


def test_criterion_12_deterministic_reports(tmp_path):
    """Two full verification runs with one seed emit byte-identical reports."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1 = cli.main(["verify", "--suite", "all", "--seed", "7", "--out", str(a)])
    code2 = cli.main(["verify", "--suite", "all", "--seed", "7", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    _report(12, "deterministic verification", code1 == 0 and code2 == 0 and identical,
            f"exit codes ({code1}, {code2}), byte-identical {identical}")
