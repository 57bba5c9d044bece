"""pvarlab benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload {suite,crosscheck,large} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; pvarlab is imported from `src/`.
Set-up (imports and seeded input generation) is timed in this process and
in six more fresh processes, and `setup_s` is the median.  The timed phase
then repeats passes over fresh inputs while the next pass is expected to
end within S seconds (at least one pass), and checks every output.
Bounded pass and item timings are CPU time (see workloads.cpu_time)
divided by the machine's current speed, which `reference.Sampler`
measures with a fixed kernel run from a timer during the timed phase.
The raw CPU timings and the median pass wall time print on the
human-readable lines.

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json.  With --trace 1 each pass runs twice,
untraced and then under `tracer.Tracer`; the two outputs must be identical,
and the JSON holds every per-layer metric (per-pass means) instead.
Lines before the last one print every metric by name and unit, the full
per-function trace, and the machine the run was made on.
"""

import os
import time

_T0 = time.perf_counter()
_C0 = time.process_time()
# Pin thread pools before numpy loads, so each kernel runs on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 6
# Stop starting passes once the run could overrun this, whatever --seconds says.
HARD_LIMIT_S = 150.0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("suite", "crosscheck", "large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used by the run itself)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def import_pvarlab():
    """Import pvarlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "pvarlab" / "__init__.py").is_file():
        sys.exit(f"error: no pvarlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pvarlab

    if Path(pvarlab.__file__).resolve().parent != SRC / "pvarlab":
        sys.exit(f"error: imported pvarlab from {pvarlab.__file__}, not {SRC}")


# ---------------------------------------------------------------- machine


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            return _read(index / "size")
    return None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    maps = _read(Path("/proc/self/maps")) or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree (read directly, no git call)."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def machine(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
                if line.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------- phases


def probe_setups(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        out.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def keep_going(k: int, wl, t_start: float, seconds: float, last: float) -> bool:
    """Start pass k only if, taking as long as the last one, it ends in time."""
    now = time.perf_counter()
    if k >= wl.max_passes or now - _T0 + last > HARD_LIMIT_S:
        return False
    return k == 0 or now + last - t_start <= seconds


def timed_phase(wl, ops, seconds: float, cpu_time, sampler) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of each pass, both net of the reference runs inside it."""
    def net_cpu() -> float:
        return cpu_time() - sampler.spent

    ops.clock = net_cpu
    times: list[float] = []
    cpu: list[float] = []
    last = 0.0  # wall time of the last pass, kernel runs included
    t_start = time.perf_counter()
    with sampler:
        while keep_going(len(times), wl, t_start, seconds, last):
            t0, s0, c0 = time.perf_counter(), sampler.spent, net_cpu()
            wl.run_pass(len(times), ops)
            cpu.append(net_cpu() - c0)
            last = time.perf_counter() - t0
            times.append(last - (sampler.spent - s0))
    return times, cpu


def traced_phase(wl, ops, seconds: float, tracer_mod):
    """Untraced then traced run of each pass; returns tracer, pass pairs."""
    tr = tracer_mod.Tracer()
    pairs: list[tuple[float, float]] = []
    t_start = time.perf_counter()
    while keep_going(len(pairs), wl, t_start, seconds, sum(pairs[-1]) if pairs else 0.0):
        k = len(pairs)
        t0 = time.perf_counter()
        plain = wl.run_pass(k, ops)
        t1 = time.perf_counter()
        try:
            with tr:
                traced = wl.run_pass(k, ops)
        except RuntimeError as exc:
            ops.check(f"tracer bindings: {exc}", False)
            break
        t2 = time.perf_counter()
        tr.end_pass()
        ops.check(f"pass {k}: traced output identical to untraced", traced == plain)
        pairs.append((t1 - t0, t2 - t1))
    return tr, pairs


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between samples (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------- report


def print_trace(tr, computed: dict, wall: float, pairs: int, layers) -> None:
    print(f"{pairs} pass pairs; traced pass {wall:.3f} s; per pass, by self time:")
    print(f"  {'function':<38} {'calls':>10} {'busy_s':>10} {'self_s':>10} {'share':>7}")
    for q in sorted(tr.stats, key=lambda q: -computed[f"{q}.self_s"]):
        if computed[f"{q}.calls"]:
            print(f"  {q:<38} {computed[q + '.calls']:>10.1f} {computed[q + '.busy_s']:>10.4f} "
                  f"{computed[q + '.self_s']:>10.4f} {computed[q + '.self_s'] / wall:>7.1%}")
    for layer in layers:
        print(f"  module {layer:<31} share of traced pass {computed[layer + '.self_s'] / wall:.1%}")


def emit(bench: dict, key: str, computed: dict, ops) -> None:
    listed = bench[key]
    notes = []
    metrics = {}
    for m in listed:
        value = computed.get(m["name"])
        if value is None:
            notes.append(f"{m['name']}: not produced by this program, reported as 0")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name, v in metrics.items():
        print(f"  {name:<48} {v['value']!r:>24} {v['unit']}")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_pvarlab()
    import numpy as np

    import reference
    import tracer
    import workloads

    scratch_root = ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup = time.process_time() - _C0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        setups = [setup] + probe_setups(args)
        ops = workloads.Ops()
        print("machine:", json.dumps(machine(np), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        if args.trace:
            tr, pairs = traced_phase(wl, ops, args.seconds, tracer)
            computed = tr.metrics(max(1, len(pairs)))
            computed["trace_overhead_s"] = (
                statistics.median(t - u for u, t in pairs) if pairs else 0.0)
            if pairs:
                print_trace(tr, computed, statistics.median(t for _, t in pairs), len(pairs),
                            tracer.LAYERS)
            key = "per_layer"
        else:
            sampler = reference.Sampler()
            times, cpu = timed_phase(wl, ops, args.seconds, workloads.cpu_time, sampler)
            items = ops.latencies() or [0.0]  # no item finished: the run is not correct
            speed = sampler.speed()
            raw = {
                "cpu_s": statistics.median(cpu),
                "item_p50_ms": 1e3 * statistics.median(items),
                "item_p90_ms": 1e3 * quantile(items, 90),
            }
            computed = {f"norm_{k}": v / speed for k, v in raw.items()}
            computed["setup_s"] = statistics.median(setups)
            computed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"{len(times)} passes; {sum(map(len, ops.items.values()))} items of "
                  f"{len(ops.items)} kinds; {len(setups)} set-ups; "
                  f"{len(sampler.samples)} reference runs")
            print(f"  {'speed':<48} {speed!r:>24} x (median reference run / "
                  f"{reference.NOMINAL_S} s)")
            for k, v in raw.items():
                print(f"  {k:<48} {v!r:>24} {k.rsplit('_', 1)[1]} (not normalized)")
            print(f"  {'wall_s':<48} {statistics.median(times)!r:>24} s (median pass)")
            print(f"  {'ops_failed_frac':<48} {ops.failed / max(1, ops.attempted)!r:>24} "
                  f"fraction (of ops_total {ops.attempted})")
            key = "end_to_end"
        emit(bench, key, computed, ops)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
