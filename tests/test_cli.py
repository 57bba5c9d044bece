"""Command-line interface: subcommands, formats and exit codes."""

import json

import numpy as np
import pytest

import pvarlab.cli as cli
from pvarlab import CheckReport, Grid2, gen_sine, load_csv, pvar1d, save_csv, smoothness
from pvarlab.cli import main
from pvarlab.harness import SWEEP_FAMILIES


@pytest.fixture
def sine_csv(tmp_path):
    path = tmp_path / "sine.csv"
    save_csv(gen_sine(1, 32), path)
    return str(path)


@pytest.fixture
def stair_csv(tmp_path):
    assert main(["gen", "--family", "staircase", "--N", "8",
                 "--out", str(tmp_path / "st.csv")]) == 0
    return str(tmp_path / "st.csv")


class TestPvar:
    def test_value_and_partition(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["pvar", "--grid", sine_csv, "--p", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == pytest.approx(2.0 * np.sqrt(2.0))
        assert sorted(payload["partition"]) == [8, 24]

    def test_oracle_limit(self, sine_csv):
        assert main(["pvar", "--grid", sine_csv, "--oracle"]) == 2

    def test_needs_1d(self, stair_csv):
        assert main(["pvar", "--grid", stair_csv]) == 2

    def test_missing_file(self):
        assert main(["pvar", "--grid", "/no/such/file.csv"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_samples(self, tmp_path, capsys):
        """Samples above 2^1021 are refused at load (a usage error); at
        2^1021 an overflowing sum is a runtime error, not a usage error."""
        path = tmp_path / "big.csv"
        path.write_text("# pvarlab grid 1 3\n1.7e308,-1.7e308,0\n")
        assert main(["pvar", "--grid", str(path), "--p", "1", "--oracle"]) == 2
        assert "2^1021" in capsys.readouterr().err
        big = repr(2.0**1021)
        path.write_text(f"# pvarlab grid 1 4\n{big},-{big},{big},-{big}\n")
        assert main(["pvar", "--grid", str(path), "--p", "1", "--oracle"]) == 1
        assert "OverflowError" in capsys.readouterr().err


class TestVitali:
    def test_auto_small_uses_oracle(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        assert main(["gen", "--family", "staircase", "--N", "6", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["vitali", "--grid", str(path), "--p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "oracle"

    def test_auto_large_p1_uses_finest(self, stair_csv, capsys):
        assert main(["vitali", "--grid", stair_csv, "--p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "finest" and payload["exact"]

    def test_ascent_reports_net(self, stair_csv, capsys):
        assert main(["vitali", "--grid", stair_csv, "--p", "2", "--method", "ascent"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] and payload["cols"]

    def test_oracle_refuses_large(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        assert main(["gen", "--family", "staircase", "--N", "16", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["vitali", "--grid", str(path), "--method", "oracle"]) == 2
        assert "got 16x16" in capsys.readouterr().err


class TestModulusAndIntegrals:
    def test_modulus_csv_shape(self, stair_csv, capsys):
        assert main(["modulus", "--grid", stair_csv, "--p", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 9 and len(lines[0].split(",")) == 9

    def test_modulus_json_1d(self, sine_csv, capsys):
        assert main(["modulus", "--grid", sine_csv, "--p", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["values"][0]) == 33

    def test_integrals_p1_is_usage_error(self, stair_csv, capsys):
        assert main(["integrals", "--grid", stair_csv, "--p", "1"]) == 2
        assert "p must exceed 1" in capsys.readouterr().err

    def test_integrals_payload(self, stair_csv, capsys):
        assert main(["integrals", "--grid", stair_csv, "--p", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"]["lo"] <= payload["K"]["hi"]
        assert {"K", "I", "J_iso"} <= set(payload)

    def test_cap_enforced(self, stair_csv, capsys):
        assert main(["modulus", "--grid", stair_csv, "--p", "2", "--cap", "4"]) == 2
        assert capsys.readouterr().err == "error: grid 8x8 exceeds cap 4; pass a larger cap\n"
        assert main(["modulus", "--grid", stair_csv, "--p", "2", "--cap", "8"]) == 0

    def test_integrals_cap_enforced(self, stair_csv, capsys):
        assert main(["integrals", "--grid", stair_csv, "--p", "2", "--cap", "4"]) == 2
        assert capsys.readouterr().err == "error: grid 8x8 exceeds cap 4; pass a larger cap\n"


class TestWpAndGen:
    def test_wp_staircase(self, stair_csv, capsys):
        assert main(["wp", "--grid", stair_csv, "--p", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["w_p"] == pytest.approx(4.0)

    def test_wp_one_section_dp_per_axis(self, tmp_path, monkeypatch, capsys):
        """w_p and both printed profiles share one context: one section DP
        per axis, plus one pvar_cyclic lane per profile."""
        sections, lanes = [], []

        def counted_rows(a, p):
            sections.append(a.shape)
            return pvar_rows(a, p)

        def counted_lanes(a, p):
            lanes.append(a.shape[0])
            return pvar_lanes(a, p)

        pvar_rows, pvar_lanes = smoothness._pvar_rows, pvar1d._pvar_lanes
        monkeypatch.setattr(smoothness, "_pvar_rows", counted_rows)
        monkeypatch.setattr(pvar1d, "_pvar_lanes", counted_lanes)
        path = tmp_path / "g.csv"
        save_csv(Grid2(np.random.default_rng(1).normal(size=(6, 9))), path)
        assert main(["wp", "--grid", str(path), "--p", "1.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (len(payload["phi"]), len(payload["psi"])) == (6, 9)
        assert sections == [(6, 9), (9, 6)]
        assert sorted(lanes) == [1, 1, 6, 9]

    def test_gen_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        assert main(["gen", "--family", "tent", "--n", "2", "--N", "16",
                     "--out", str(path)]) == 0
        g = load_csv(path)
        assert g.n == 16

    def test_gen_misaligned_is_usage_error(self, tmp_path):
        assert main(["gen", "--family", "sine", "--n", "3", "--N", "16",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_gen_sineprod_bad_m_is_usage_error(self, m, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["gen", "--family", "sineprod", "--m", m, "--N", "16",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --m must be at least 1, got {m}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, m, flag", [("1", "3", "--m 3"), ("3", "1", "4n=12")])
    def test_gen_sineprod_misaligned_names_its_frequency(self, n, m, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["gen", "--family", "sineprod", "--n", n, "--m", m, "--N", "16",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: N=16 must be a multiple of") and flag in err
        assert not out.exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSweep:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--family", "tnxt1", "--p-list", "2", "--n-list", "1,2",
                     "--size", "16", "--out", str(out)]) == 0
        assert out.read_text().startswith("family,p,n,key,value")

    def test_bad_p_rejected(self):
        assert main(["sweep", "--family", "t1xt1", "--p-list", "0.5", "--size", "16"]) == 2

    @pytest.mark.parametrize("family, flags", [
        ("tnxt1", ["--p-list", "abc"]),
        ("tnxt1", ["--n-list", "x"]),
        ("tnxt1", ["--n-list", "0"]),
        ("trigpoly", ["--n-list", "-1"]),
        ("t1xt1", ["--n-list", "3"]),
    ], ids=["p-not-a-number", "n-not-a-number", "n-zero", "n-negative", "t1xt1-n-not-1"])
    def test_malformed_lists_are_usage_errors(self, family, flags, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--family", family, *flags, "--size", "16",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, text", [("--p-list", "1.5,x"), ("--n-list", "1,y")])
    def test_malformed_list_error_names_its_flag(self, flag, text, capsys):
        assert main(["sweep", "--family", "tnxt1", flag, text, "--size", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.rstrip().endswith(f"'{text[-1]}'")

    def test_size_over_table_cap_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--family", "t1xt1", "--size", "256", "--p-list", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "256" in err and "128" in err and "pass a larger cap" not in err
        assert not out.exists()

    def test_lists_default_to_family_preset(self, capsys):
        assert main(["sweep", "--family", "tnxtn", "--size", "16", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        p_grid, n_grid = SWEEP_FAMILIES["tnxtn"]
        assert [(r["p"], r["n"], r["m"]) for r in rows] == [
            (p, n, n) for p in p_grid for n in n_grid
        ]


class TestVerify:
    def test_exit_zero_and_deterministic(self, tmp_path, capsys):
        """The report depends on --seed alone: --suite all is the default."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--seed", "7", "--out", str(a)]) == 0
        assert main(["verify", "--suite", "all", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suite", ["nosuch", "generators", "random,sweeps"])
    def test_unknown_suite_is_usage_error(self, suite, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["verify", "--suite", suite, "--seed", "7", "--out", str(out)]) == 2
        assert "unknown suite" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_check_exits_one(self, tmp_path, monkeypatch):
        report = CheckReport(meta={"version": "test", "seed": 0, "timestamp": "-"})
        report.add("synthetic", "forced failure", "-", 1.0, 0.0)
        monkeypatch.setattr(cli, "run_suite", lambda seed: report)
        assert main(["verify", "--out", str(tmp_path / "r.json")]) == 1


class TestSeed:
    """A negative --seed is a usage error on every command that takes one,
    whatever the grid (small vitali grids never seed an rng)."""

    @pytest.mark.parametrize("command", ["verify", "vitali", "sweep"])
    def test_negative_seed_exits_2(self, command, stair_csv, capsys):
        args = {
            "verify": ["verify"],
            "vitali": ["vitali", "--grid", stair_csv, "--method", "ascent"],
            "sweep": ["sweep", "--family", "t1xt1", "--size", "16"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"pvarlab {command}: error: argument --seed: "
            "must be a non-negative integer, got '-1'\n"
        )
        assert "Traceback" not in err
