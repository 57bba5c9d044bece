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
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from pvarlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# The AVX-512 features whose loops numpy 2.x dispatches float64 power to.
_AVX512_POWER = ("AVX512_ICL", "AVX512_SPR", "X86_V4")

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


def _first_differences(name: str, got: str, want: str, limit: int = 5) -> list[str]:
    """The first differing check ids (reports) or lines (everything else)."""
    if name.startswith("verify_"):
        g, w = json.loads(got), json.loads(want)
        g_checks = {c["id"]: c for c in g["checks"]}
        w_checks = {c["id"]: c for c in w["checks"]}
        ids = [i for i in dict.fromkeys([*w_checks, *g_checks]) if g_checks.get(i) != w_checks.get(i)]
        keys = [k for k in ("meta", "sweeps") if g.get(k) != w.get(k)]
        if [c["id"] for c in g["checks"]] != [c["id"] for c in w["checks"]]:
            keys.append("check order")
        return [f"{len(ids)} checks differ: {ids[:limit]}"] * bool(ids) + [f"{k} differs" for k in keys]
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
    off = [f for f in _AVX512_POWER if __cpu_features__.get(f)]
    if not off:
        return None
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
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
