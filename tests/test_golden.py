"""Golden byte gate: the standing outputs of the command line, recomputed
and compared byte for byte with the committed sets under tests/golden/.

The outputs are the verify reports for seeds 7 and 11, the four sweep
CSVs and pvar on the N = 32 sine at p = 1, 1.5 and 2.  Their bits depend
on the SIMD dispatch of numpy's float64 power, so each set is keyed by the
numpy version and the enabled AVX512_* and X86_V* CPU features; a host with
no matching set skips.  On AVX-512 hosts the outputs are also recomputed in
a subprocess with the AVX-512 power loops disabled, against a second set.

A report change on purpose raises harness.SCHEMA and rewrites every set
the host can produce with one command:

    PYTHONPATH=src python tests/test_golden.py

On an AVX-512 host that writes both sets, the second from a subprocess
without the AVX-512 power loops (_without_avx512_power).  Sets of other
keys are left as they are.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from helpers import AVX512_ON, other_dispatch_env
from pvarlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEPS = ("t1xt1", "tnxt1", "tnxtn", "trigpoly")
SINE_P = ("1", "1.5", "2")


def _dispatch_key() -> str:
    """numpy version and the enabled AVX512_* and X86_V* features."""
    enabled = sorted(
        name
        for name, on in __cpu_features__.items()
        if on and name.startswith(("AVX512_", "X86_V"))
    )
    return f"numpy-{np.__version__}_{'-'.join(enabled) or 'none'}"


def _write_outputs(out: Path) -> None:
    """Every golden output, as cli.main writes it, into the directory out."""
    out.mkdir(parents=True, exist_ok=True)
    runs = [["verify", "--seed", s, "--out", str(out / f"verify_seed{s}.json")] for s in ("7", "11")]
    runs += [["sweep", "--family", f, "--out", str(out / f"sweep_{f}.csv")] for f in SWEEPS]
    with tempfile.TemporaryDirectory() as tmp:
        sine = str(Path(tmp) / "sine.csv")
        runs.insert(0, ["gen", "--family", "sine", "--n", "1", "--N", "32", "--out", sine])
        runs += [["pvar", "--grid", sine, "--p", p, "--out", str(out / f"pvar_sine32_p{p}.json")]
                 for p in SINE_P]
        for argv in runs:
            assert cli.main(argv) == 0, argv


def _differing_keys(got: dict, want: dict) -> list[str]:
    """The keys whose values differ, or that only one side has, in want's
    order and then got's; a dict on both sides is compared key by key, its
    keys named as key.subkey."""
    out = []
    for k in dict.fromkeys([*want, *got]):
        g, w = got.get(k), want.get(k)
        if isinstance(g, dict) and isinstance(w, dict):
            out += [f"{k}.{sub}" for sub in _differing_keys(g, w)]
        elif k not in got or k not in want or g != w:
            out.append(k)
    return out


def _first_differences(name: str, got: str, want: str, limit: int = 5) -> list[str]:
    """The first differing check ids, meta keys and sweep rows with their
    keys (reports), or lines (everything else)."""
    if name.startswith("verify_"):
        g, w = json.loads(got), json.loads(want)
        g_checks = {c["id"]: c for c in g["checks"]}
        w_checks = {c["id"]: c for c in w["checks"]}
        ids = [i for i in dict.fromkeys([*w_checks, *g_checks]) if g_checks.get(i) != w_checks.get(i)]
        out = [f"{len(ids)} checks differ: {ids[:limit]}"] * bool(ids)
        if [c["id"] for c in g["checks"]] != [c["id"] for c in w["checks"]]:
            out.append("check order differs")
        meta = _differing_keys(g.get("meta", {}), w.get("meta", {}))
        out += [f"meta keys differ: {meta}"] * bool(meta)
        g_rows, w_rows = g.get("sweeps", []), w.get("sweeps", [])
        rows = []
        for i, (a, b) in enumerate(zip(g_rows, w_rows)):
            if a != b:
                name = " ".join(f"{k}={v}" for k, v in b.items() if not isinstance(v, dict))
                rows.append(f"row {i} ({name}): {_differing_keys(a, b)}")
        if rows:
            out.append(f"{len(rows)} sweep rows differ: " + "; ".join(rows[:limit]))
        if len(g_rows) != len(w_rows):
            out.append(f"{len(g_rows)} sweep rows, want {len(w_rows)}")
        return out
    g_lines, w_lines = got.splitlines(), want.splitlines()
    diffs = [
        f"line {i + 1}: got {a!r}, want {b!r}"
        for i, (a, b) in enumerate(zip(g_lines, w_lines))
        if a != b
    ]
    if len(g_lines) != len(w_lines):
        diffs.append(f"{len(g_lines)} lines, want {len(w_lines)}")
    return diffs[:limit]


def _mismatches(got: Path, want: Path) -> list[str]:
    out = []
    for path in sorted(want.iterdir()):
        fresh, text = got / path.name, path.read_text()
        if not fresh.exists():
            out.append(f"{path.name}: not written")
        elif fresh.read_text() != text:
            diffs = _first_differences(path.name, fresh.read_text(), text)
            out.append(f"{path.name}: " + "; ".join(diffs))
    return out


def _without_avx512_power(out: Path) -> subprocess.Popen | None:
    """On an AVX-512 host, a subprocess that writes the outputs into out
    with numpy's power on its non-AVX-512 loops (other bits at p other
    than 1 and 2) and prints its key; None elsewhere."""
    if not AVX512_ON:
        return None
    env = other_dispatch_env(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, __file__, str(out)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _every_dispatch(out: Path) -> dict[Path, str]:
    """The outputs of this process in out/host and, on AVX-512 hosts, of a
    subprocess without the AVX-512 power loops in out/child (run
    alongside), as {directory: key}."""
    child = _without_avx512_power(out / "child")
    runs = {out / "host": _dispatch_key()}
    try:
        _write_outputs(out / "host")
        if child is not None:
            stdout, err = child.communicate(timeout=600)
            assert child.returncode == 0, err
            runs[out / "child"] = stdout.strip()
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.communicate()
    return runs


def test_first_differences_name_meta_keys_and_sweep_rows():
    """A report whose meta and sweeps moved, as a schema bump moves them, is
    reported by key and by row, not as "meta differs"."""
    want = {
        "meta": {"schema": 1, "seed": 7},
        "checks": [{"id": "a", "pass": True}],
        "sweeps": [
            {"family": "t1xt1", "p": 1.5, "values": {"k_lo": 1.0, "k_term": 2.0}},
            {"family": "t1xt1", "p": 2.0, "values": {"k_lo": 1.0, "k_term": 3.0}},
        ],
    }
    got = json.loads(json.dumps(want))
    got["meta"]["schema"] = 2
    got["meta"]["host"] = "x"
    got["sweeps"][1]["values"] = {"k_lo": 1.5, "k_hi_over_p": 3.0}
    diffs = _first_differences("verify_seed7.json", json.dumps(got), json.dumps(want))
    assert diffs == [
        "meta keys differ: ['schema', 'host']",
        "1 sweep rows differ: row 1 (family=t1xt1 p=2.0): "
        "['values.k_lo', 'values.k_term', 'values.k_hi_over_p']",
    ]
    got["sweeps"].pop()
    assert _first_differences("verify_seed7.json", json.dumps(got), json.dumps(want))[-1] == (
        "1 sweep rows, want 2"
    )


def test_outputs_match_the_golden_sets(tmp_path):
    """Every output of _every_dispatch against the set of its own key.
    Skips when a key has no committed set and nothing differs."""
    mismatches, missing = [], []
    for got, key in _every_dispatch(tmp_path).items():
        if (GOLDEN / key).is_dir():
            mismatches += [f"{key}: {m}" for m in _mismatches(got, GOLDEN / key)]
        else:
            missing.append(key)
    assert not mismatches, "\n".join(mismatches)
    if missing:
        known = sorted(p.name for p in GOLDEN.iterdir())
        pytest.skip(f"no golden set for the dispatch {missing}; committed: {known}")


if __name__ == "__main__":
    # With a directory (the subprocess of _without_avx512_power): write the
    # outputs there and print this process's key.  Without: rewrite every
    # golden set this host can produce.
    if len(sys.argv) > 1:
        _write_outputs(Path(sys.argv[1]))
        print(_dispatch_key())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            for got, key in _every_dispatch(Path(tmp)).items():
                shutil.rmtree(GOLDEN / key, ignore_errors=True)
                shutil.copytree(got, GOLDEN / key)
                print(f"wrote {GOLDEN / key}")
