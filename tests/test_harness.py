"""Verification harness: corpus suites, report schema and determinism."""

import hashlib
import json
import sys
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest

import pvarlab.harness as harness
from pvarlab import (
    Exponent,
    embedding_1d_check,
    gen_product,
    gen_sine,
    hardy_littlewood_check,
    main_estimate_check,
    run_suite,
    sharpness_sweep,
    w_p_estimate_check,
)
from pvarlab.harness import random_corpus_1d, random_corpus_2d, sweep_rows_to_csv

SEED = 11

REQUIRED_KEYS = {"id", "paper_anchor", "inputs", "lhs", "rhs", "margin", "tolerance", "pass"}


def _report_bytes(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def seed_report():
    """One run_suite(SEED) report, shared by the tests that only read it."""
    return run_suite(SEED)


class TestCorpora:
    def test_random_1d_reproducible(self):
        a = random_corpus_1d(np.random.default_rng(5), 32, 4)
        b = random_corpus_1d(np.random.default_rng(5), 32, 4)
        for (na, ga), (nb, gb) in zip(a, b):
            assert na == nb
            assert np.array_equal(ga.samples, gb.samples)

    def test_random_2d_shapes(self):
        fields = random_corpus_2d(np.random.default_rng(0), 6, 9, 3)
        assert all(f.samples.shape == (6, 9) for _, f in fields)


class TestSuite:
    def test_fast_config_all_pass(self, seed_report):
        failed = [c for c in seed_report.checks if not c["pass"]]
        assert not failed, failed

    def test_schema(self, seed_report):
        for c in seed_report.checks:
            assert REQUIRED_KEYS <= set(c)
            assert isinstance(c["paper_anchor"], str) and c["paper_anchor"]
        payload = seed_report.to_dict()
        assert set(payload) == {"meta", "checks", "sweeps"}
        json.dumps(payload)  # must be serializable

    def test_deterministic_for_fixed_seed(self, seed_report):
        assert _report_bytes(run_suite(SEED)) == _report_bytes(seed_report)

    def test_environment_does_not_reach_the_report(self, seed_report, monkeypatch):
        monkeypatch.setenv("PVARLAB_TIMESTAMP", "2001-02-03T04:05:06Z")
        assert _report_bytes(run_suite(SEED)) == _report_bytes(seed_report)

    def test_seed_changes_random_corpus_checks(self, seed_report):
        la = [c["lhs"] for c in seed_report.checks if "random" in c["id"]]
        lb = [c["lhs"] for c in run_suite(SEED + 1).checks if "random" in c["id"]]
        assert la and la != lb

    def test_exception_becomes_failed_check(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness, "pvar_oracle", boom)
        # only the first three checks, the third of which calls pvar_oracle
        monkeypatch.setattr(harness, "_CHECKS", harness._CHECKS[:3])
        report = run_suite(SEED)
        bad = [c for c in report.checks if c.get("error")]
        assert len(bad) == 1 and not report.all_pass
        assert report.checks[-1] is bad[0] and bad[0]["id"] == "pvar_oracle_equivalence"
        assert "synthetic failure" in bad[0]["error"]


class TestDerivedOnce:
    def test_each_core_and_iso_table_computed_once(self, monkeypatch):
        """run_suite derives each (field, p) core, isotropic table and mixed
        table once, and makes at most 54 mixed tables.  A mixed table is
        built again only by the sweeps (_sweep_row), whose t1xt1 field is a
        corpus field; none is built on a core, whose mixed tables are its
        parent's."""
        from pvarlab import modulus, smoothness

        seen = defaultdict(list)  # (function, shape, digest, p) -> the callers
        cores = set()

        def _key(f):
            return f.samples.shape, hashlib.sha256(f.samples.tobytes()).hexdigest()

        def counted(fn):
            def wrapper(f, *args, **kwargs):
                p = args[0].p if args else None
                seen[fn.__name__, *_key(f), p].append(sys._getframe(1).f_code.co_name)
                out = fn(f, *args, **kwargs)
                if fn.__name__ == "decompose_lp0":
                    cores.add(_key(out))
                return out
            return wrapper

        names = ((smoothness, "decompose_lp0"), (modulus, "modulus_iso_2d"),
                 (modulus, "modulus_mixed"))
        for module, name in names:
            original = getattr(module, name)
            wrapper = counted(original)
            for mod in list(sys.modules.values()):
                in_package = getattr(mod, "__name__", "").startswith("pvarlab")
                if in_package and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
        assert run_suite(7).all_pass
        assert {key[0] for key in seen} == {name for _, name in names}
        repeated = {key: callers for key, callers in seen.items() if len(callers) > 1}
        assert all(key[0] == "modulus_mixed" and callers.count("_sweep_row") == len(callers) - 1
                   for key, callers in repeated.items()), repeated
        mixed = {key[1:]: len(callers) for key, callers in seen.items()
                 if key[0] == "modulus_mixed"}
        assert sum(mixed.values()) <= 54, sum(mixed.values())
        assert not cores & {key[:2] for key in mixed}

    def test_modulus_invariants_compute_each_1d_table_once(self, monkeypatch):
        """Check 5 reads its table checks and its sandwich off one 1-D
        modulus table per (grid, p)."""
        from pvarlab import modulus

        original = modulus.modulus_1d
        calls = []

        def counted(g, p):
            calls.append(p.p)
            return original(g, p)

        for mod in list(sys.modules.values()):
            in_package = getattr(mod, "__name__", "").startswith("pvarlab")
            if in_package and getattr(mod, "modulus_1d", None) is original:
                monkeypatch.setattr(mod, "modulus_1d", counted)
        rng = np.random.default_rng(0)
        corpus1 = harness._corpus_1d(rng)
        run = harness._Run(rng, corpus1, [], [])
        rows = list(harness._modulus_invariants(run))
        assert len(rows) == 3 * 2 * len(corpus1)
        assert sorted(calls) == sorted([1.0, 2.0] * len(corpus1))


class TestChecks:
    def test_hardy_littlewood_on_product(self):
        r = hardy_littlewood_check(gen_product(gen_sine(1, 32), gen_sine(1, 32)))
        assert r["le_margin"] >= -1e-12
        assert r["relative_gap"] <= 0.05

    def test_embedding_requires_p_gt_1(self):
        with pytest.raises(ValueError):
            embedding_1d_check(gen_sine(1, 16), Exponent(1.0))

    def test_main_estimate_skips_degenerate(self):
        from pvarlab import Grid2

        r = main_estimate_check(Grid2(np.zeros((4, 4))), Exponent(2.0))
        assert r["skip"]

    def test_main_estimate_terms(self):
        f = gen_product(gen_sine(1, 16), gen_sine(1, 16))
        r = main_estimate_check(f, Exponent(2.0))
        assert not r["skip"]
        assert r["a_obs"] > 0.0
        assert set(r["terms"]) == {"omega11", "k_term", "i_term"}

    def test_main_estimate_bracket_matches_wp_estimate(self):
        f = random_corpus_2d(np.random.default_rng(3), 8, 8, 1)[0][1]
        t = main_estimate_check(f, Exponent(2.0))["terms"]
        w = w_p_estimate_check(f, Exponent(2.0))
        assert t["omega11"] + t["k_term"] + t["i_term"] == w["bracket"]


class TestSweeps:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            sharpness_sweep("nope", (2.0,), (1,))

    def test_misaligned_size_rejected(self):
        with pytest.raises(ValueError):
            sharpness_sweep("tnxt1", (2.0,), (3,), size=16)

    @pytest.mark.parametrize(
        "family, n_grid, size, message",
        [
            ("tnxt1", (1, 3), 16, "size 16 misaligned for sine frequency 3"),
            ("trigpoly", (1, 4), 8, r"size 8 misaligned for degree \(1,4\)"),
        ],
    )
    def test_misalignment_raised_before_any_row(self, family, n_grid, size, message):
        """The first order or pair in loop order is valid, so a check made in
        the loop would raise only after computing its row."""
        with mock.patch.object(harness, "_sweep_row", wraps=harness._sweep_row) as row:
            with pytest.raises(ValueError, match=message):
                sharpness_sweep(family, (2.0,), n_grid, size=size)
        assert row.call_count == 0

    def test_rows_and_csv(self):
        rows = sharpness_sweep("tnxt1", (2.0,), (1, 2), size=16)
        assert len(rows) == 2
        for r in rows:
            assert r["values"]["v2_lower"] > 0.0
        text = sweep_rows_to_csv(rows)
        assert text.startswith("family,p,n,key,value\n")
        assert "tnxt1,2.0,2x1,v2_lower," in text

    def test_p1_uses_exact_finest(self):
        rows = sharpness_sweep("trigpoly", (1.0,), (1,), size=8, seed=3)
        assert rows[0]["values"]["v2_lower"] > 0.0
        assert "i_hi" not in rows[0]["values"]
