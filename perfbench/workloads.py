"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload generates the inputs of all its passes from the seed during
set-up, and a pass never reuses another pass's inputs, so no cache that
outlives one pass can make a later pass cheaper.  The checks hold for every
seed: they compare independent algorithms or closed forms and store no
per-seed reference values.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pvarlab import cli, grid, harness, modulus, pvar1d, vitali2d
from pvarlab.grid import Exponent, Grid1, Grid2


@dataclass
class Ops:
    """Output checks of one run, and the latency of each item."""

    attempted: int = 0
    failed: int = 0
    items: dict = field(default_factory=dict)  # CPU seconds per item, by kind of item
    clock: object = None  # CPU clock for items; cpu_time when None

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"check failed: {what}\n")

    def guarded(self, what: str, fn) -> object:
        """Run one item; an exception counts as a failed check, not a crash."""
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failing item is a measured outcome
            self.check(f"{what}: {type(exc).__name__}: {exc}", False)
            return None

    def timed(self, fn, kind: str = "item"):
        clock = self.clock or cpu_time
        c0 = clock()
        out = fn()
        self.items.setdefault(kind, []).append(clock() - c0)
        return out

    def latencies(self) -> list:
        """Item latencies; with several kinds of item, the median of each kind."""
        if len(self.items) == 1:
            return sorted(*self.items.values())
        return sorted(statistics.median(v) for v in self.items.values())


def cpu_time() -> float:
    """CPU seconds of this process and its waited-for children.

    Unlike wall time it leaves out the time the host gives this CPU to
    someone else, which on a shared machine is the main source of noise.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _digest(a: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).hexdigest()


# ---------------------------------------------------------------- suite

# Passes after the first use seed + k * stride, so each pass verifies new corpora.
SUITE_SEED_STRIDE = 100_003


class Suite:
    name = "suite"
    max_passes = 16

    def __init__(self, seed: int, scratch: Path):
        self.seeds = [seed + k * SUITE_SEED_STRIDE for k in range(self.max_passes)]
        self.scratch = scratch

    def run_pass(self, k: int, ops: Ops) -> bytes:
        out = self.scratch / f"suite-{k}.json"
        argv = ["verify", "--suite", "all", "--seed", str(self.seeds[k]), "--out", str(out)]
        rc = ops.timed(lambda: cli.main(argv))
        ops.check(f"suite seed {self.seeds[k]}: exit code {rc}", rc == 0)
        if not out.exists():
            ops.check(f"suite seed {self.seeds[k]}: report written", False)
            return b""
        data = out.read_bytes()
        out.unlink()
        checks = json.loads(data)["checks"]
        ops.check(f"suite seed {self.seeds[k]}: report holds checks", bool(checks))
        for c in checks:
            ops.check(f"suite seed {self.seeds[k]}: {c['id']}", c["pass"] is True)
        return data


# ---------------------------------------------------------------- crosscheck

VITALI_P = (1.5, 2.0, 3.0)
PVAR_P = (1.0, 1.5, 2.0, 3.0)


class Crosscheck:
    """Bodies of acceptance criteria 1 and 3 on fresh seeded inputs."""

    name = "crosscheck"
    max_passes = 120
    fields_6 = 6   # per pass, 6x6, oracle vs ascent, p cycling over VITALI_P
    fields_5 = 2   # per pass, 5x5, finest vs oracle at p = 1
    # per pass, one 1-D grid of each size, DP vs oracle, p cycling over PVAR_P.
    # Fixed sizes: the oracle's cost doubles with N, so random sizes would
    # make the pass cost a matter of the seed.
    sizes_1d = (2, 4, 6, 8, 9, 10, 11, 12)

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.passes = []
        for _ in range(self.max_passes):
            six = [Grid2(rng.normal(size=(6, 6))) for _ in range(self.fields_6)]
            five = [Grid2(rng.normal(size=(5, 5))) for _ in range(self.fields_5)]
            one = [Grid1(rng.normal(size=n)) for n in self.sizes_1d]
            self.passes.append((six, five, one))

    def run_pass(self, k: int, ops: Ops) -> bytes:
        six, five, one = self.passes[k]
        out = []
        for i, f in enumerate(six):
            p = Exponent(VITALI_P[i % len(VITALI_P)])

            def item(f=f, p=p):
                vo = vitali2d.vitali_oracle(f, p)
                va = vitali2d.vitali_ascent(f, p).value
                return vo, va

            res = ops.guarded("vitali 6x6", lambda: ops.timed(item))
            if res is not None:
                vo, va = res
                ops.check(f"pass {k} field {i}: ascent {va!r} <= oracle {vo!r}", va <= vo)
                out.append((vo, va))
        p1 = Exponent(1.0)
        for i, f in enumerate(five):
            res = ops.guarded(
                "vitali 5x5", lambda f=f: (vitali2d.vitali_finest(f, p1), vitali2d.vitali_oracle(f, p1))
            )
            if res is not None:
                ops.check(f"pass {k} 5x5 field {i}: finest {res[0]!r} == oracle {res[1]!r}",
                          res[0] == res[1])
                out.append(res)
        for i, g in enumerate(one):
            p = Exponent(PVAR_P[i % len(PVAR_P)])
            res = ops.guarded(
                "pvar 1-D", lambda g=g, p=p: (pvar1d.pvar_cyclic(g, p)[0], pvar1d.pvar_oracle(g, p))
            )
            if res is not None:
                ops.check(f"pass {k} grid {i} N={g.n}: dp {res[0]!r} == oracle {res[1]!r}",
                          res[0] == res[1])
                out.append(res)
        return repr(out).encode()


# ---------------------------------------------------------------- large

LARGE_N_1D = 4096
LARGE_ASCENT_SIDE = 64
LARGE_TABLE_SIDE = 128
# Fixed exponents: numpy squares through a fast path, so p = 2 tables cost
# about half of p = 1.5 ones; a p drawn from the seed would read as noise.
LARGE_TABLE_P = (2.0, 1.5)
LARGE_TENT_P = 1.5
LARGE_ASCENT_P = 2.0
TENT_FREQUENCIES = (1, 2, 4, 8, 16, 32)


def _mixed_cell_l1(a: np.ndarray) -> float:
    """Sum of |doubly cyclic mixed differences|, computed apart from pvarlab."""
    return float(np.abs(np.roll(np.roll(a, -1, 0), -1, 1) - np.roll(a, -1, 0)
                        - np.roll(a, -1, 1) + a).sum())


class Large:
    """A few big calls per pass, each on an input no other call of the pass sees."""

    name = "large"
    max_passes = 6

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        n, s = LARGE_N_1D, LARGE_TABLE_SIDE
        self.staircase = grid.gen_staircase(LARGE_ASCENT_SIDE)
        self.passes = []
        for _ in range(self.max_passes):
            tent_k = int(rng.choice(TENT_FREQUENCIES))
            g, h = Grid1(rng.normal(size=s)), Grid1(rng.normal(size=s))
            hl = rng.normal(size=(s, s))
            self.passes.append({
                "tent_k": tent_k,
                "tent": grid.gen_tent_scaled(tent_k, n),
                "walk": Grid1(np.cumsum(rng.normal(size=n))),
                "field": Grid2(rng.normal(size=(LARGE_ASCENT_SIDE, LARGE_ASCENT_SIDE))),
                "g": g,
                "h": h,
                "product": grid.gen_product(g, h),
                "iso": Grid2(rng.normal(size=(s, s))),
                # scaled to a 1-variation near 1, so rounding stays far below 1e-12
                "hl": Grid2(hl / _mixed_cell_l1(hl)),
            })

    def run_pass(self, k: int, ops: Ops) -> bytes:
        inp = self.passes[k]
        out: list = []

        def step(what, fn):
            res = ops.guarded(what, lambda: ops.timed(fn, what))
            if res is not None:
                out.append(res[0])
                for desc, ok in res[1]:
                    ops.check(f"pass {k} {what}: {desc}", ok)

        def tent():
            kf, p = inp["tent_k"], Exponent(LARGE_TENT_P)
            v, _ = pvar1d.pvar_cyclic(inp["tent"], p)
            exact = 2.0 ** (1.0 / p.p - 1.0) * kf ** (1.0 / p.p)
            return v, [(f"tent n={kf}: {v!r} vs closed form {exact!r}", abs(v - exact) <= 1e-12)]

        def walk():
            g, p = inp["walk"], Exponent(1.0)
            v, _ = pvar1d.pvar_cyclic(g, p)
            finest = pvar1d.pvar_sum(g, pvar1d.CyclicPartition(tuple(range(g.n))), p)
            return v, [(f"p=1 dp {v!r} == all-indices sum {finest!r}", v == finest)]

        def ascent(f, floor_name, floor):
            p = Exponent(LARGE_ASCENT_P)
            r = vitali2d.vitali_ascent(f, p)
            on_net = vitali2d.vitali_sum(f, r.net, p)
            low = floor(f, p)
            return r.value, [
                (f"value {r.value!r} == its net's sum {on_net!r}", r.value == on_net),
                (f"value {r.value!r} >= {floor_name} {low!r}", r.value >= low * (1.0 - 1e-12)),
            ]

        def product(p):
            pe = Exponent(p)
            table = modulus.modulus_mixed(inp["product"], pe).values
            outer = np.outer(modulus.modulus_1d(inp["g"], pe).values,
                             modulus.modulus_1d(inp["h"], pe).values)
            err = float(np.max(np.abs(table - outer)))
            scale = float(np.max(table))
            return _digest(table), [(f"p={p} separable table error {err!r} <= 1e-12 * {scale!r}",
                                     err <= 1e-12 * scale)]

        def iso(p):
            t = modulus.modulus_iso_2d(inp["iso"], Exponent(p)).values
            return _digest(t), [(f"p={p} iso table starts at 0, nondecreasing",
                                 t[0] == 0.0 and bool(np.all(np.diff(t) >= 0.0)))]

        def hardy():
            r = harness.hardy_littlewood_check(inp["hl"])
            return r["le_margin"], [(f"le_margin {r['le_margin']!r} >= -1e-12",
                                     r["le_margin"] >= -1e-12)]

        staircase_side = LARGE_ASCENT_SIDE // 2
        step("pvar tent", tent)
        step("pvar walk", walk)
        step("ascent random", lambda: ascent(inp["field"], "finest net", vitali2d.vitali_finest))
        step("ascent staircase", lambda: ascent(
            self.staircase, "offset net",
            lambda f, p: vitali2d.staircase_net_bound(staircase_side, p, f.n)))
        for p in LARGE_TABLE_P:
            step(f"mixed p={p}", lambda p=p: product(p))
        for p in LARGE_TABLE_P:
            step(f"iso p={p}", lambda p=p: iso(p))
        step("hardy-littlewood", hardy)
        return repr(out).encode()


WORKLOADS = {w.name: w for w in (Suite, Crosscheck, Large)}
