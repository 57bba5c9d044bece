"""Check the tracer and the workload design across all three workloads.

    python3 perfbench/check_tracer.py [--seed N]

Makes one traced run per workload (one pass pair each) and fails unless:
  - every run is correct, which includes byte-identical traced and
    untraced outputs and a complete swap and restore of every binding;
  - every function listed in BENCHMARK.json records calls on some workload;
  - crosscheck makes no modulus calls;
  - large repeats no modulus input (distinct_frac = 1 for every table);
  - suite repeats modulus_mixed inputs (distinct_frac < 1).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite", "crosscheck", "large")
TABLES = ("modulus.modulus_mixed", "modulus.modulus_iso_2d", "modulus.modulus_1d")


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    seed = ap.parse_args().seed
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {w: traced(w, seed) for w in WORKLOADS}
    value = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in runs.items()}
    failures = [f"{w}: run not correct ({r['failed']} of {r['attempted']} checks failed)"
                for w, r in runs.items() if not r["correct"]]
    for m in bench["per_layer"]:
        if m["name"].endswith(".calls") and not any(value[w][m["name"]] for w in WORKLOADS):
            failures.append(f"{m['name']} is zero on every workload")
    failures += [f"crosscheck: {k} = {v}" for k, v in value["crosscheck"].items()
                 if k.startswith("modulus.") and k.endswith(".calls") and v]
    failures += [f"large: {t}.distinct_frac = {value['large'][t + '.distinct_frac']}"
                 for t in TABLES if value["large"][t + ".distinct_frac"] != 1.0]
    mixed = value["suite"]["modulus.modulus_mixed.distinct_frac"]
    if not mixed < 1.0:
        failures.append(f"suite: modulus.modulus_mixed.distinct_frac = {mixed}, expected < 1")
    for w in WORKLOADS:
        fracs = ", ".join(f"{k.split('.')[1]} {value[w][k]:.3f}"
                          for k in sorted(value[w]) if k.endswith("distinct_frac"))
        print(f"{w}: {runs[w]['attempted']} checks, {runs[w]['failed']} failed; distinct_frac: {fracs}")
    for f in failures:
        print(f"FAIL {f}")
    print("tracer check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
