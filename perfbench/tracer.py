"""Per-layer call tracing for pvarlab, applied from outside the package.

`Tracer` wraps every public function of each layer module and replaces
every module-level binding of it inside the package, including the
`from .modulus import modulus_mixed` style copies held by other modules and
by `pvarlab/__init__`.  Python resolves globals at call time, so calls
between modules and within one module both go through the wrappers.
Leaving the `with` block restores the original bindings.

For each wrapped function `<module>.<function>` it records the number of
calls, the inclusive time (`busy_s`, outermost activations only) and the
self time (`self_s`, inclusive time minus the time of wrapped calls made
from inside it).  A few functions also get work counters, see `_OBSERVERS`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("grid", "pvar1d", "vitali2d", "modulus", "smoothness", "mixednorm", "harness", "cli")
PACKAGE = "pvarlab"


def public_functions(module) -> dict:
    """Functions defined in `module` under a public name (its `__all__` when present)."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return {
        n: obj
        for n in names
        if inspect.isfunction(obj := getattr(module, n, None)) and obj.__module__ == module.__name__
    }


def _input_key(grid, p) -> tuple:
    """Identity of a (samples, p) input: shape, content digest and exponent."""
    a = grid.samples
    digest = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
    return a.shape, digest, float(p.p)


class _Stat:
    __slots__ = ("calls", "busy_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Context manager that traces every public function of the pvarlab layers."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.keys: dict[str, set] = defaultdict(set)  # inputs seen in the current pass
        self.distinct: dict[str, int] = defaultdict(int)
        self.vitali_values: dict[str, dict] = {"oracle": {}, "ascent": {}}
        self.eq_oracle = 0
        self._stack: list[list[float]] = []
        self._swapped: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}

    # ------------------------------------------------------------ bindings

    def _package_modules(self) -> list:
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def __enter__(self) -> "Tracer":
        by_original = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                by_original[id(fn)] = self._wrap(f"{layer}.{name}", fn)
                self._originals[id(fn)] = fn
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = by_original.get(id(value))
                if wrapper is not None and value is self._originals[id(value)]:
                    setattr(module, attr, wrapper)
                    self._swapped.append((module, attr, value))
        self._wrappers = {id(w): w for w in by_original.values()}
        left = self._bindings_of(self._originals)
        if left:
            self.__exit__(None, None, None)
            raise RuntimeError(f"tracer left original bindings in place: {left}")
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()
        left = self._bindings_of(self._wrappers)
        if left:
            raise RuntimeError(f"tracer left wrappers bound after restore: {left}")

    def _bindings_of(self, objects: dict) -> list[str]:
        return [
            f"{module.__name__}.{attr}"
            for module in self._package_modules()
            for attr, value in vars(module).items()
            if objects.get(id(value)) is value
        ]

    # ------------------------------------------------------------ recording

    def _wrap(self, qualname: str, fn):
        stat = self.stats[qualname]
        observe = _OBSERVERS.get(qualname)
        signature = inspect.signature(fn) if observe else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - child[0]
                if stat.depth == 0:
                    stat.busy_s += elapsed
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                observe(self, qualname, bound.arguments, result, elapsed)
            if stack:
                stack[-1][0] += clock() - t0
            return result

        return wrapper

    def end_pass(self) -> None:
        """Close one pass: distinct inputs and oracle pairs count within a pass."""
        oracle, ascent = self.vitali_values["oracle"], self.vitali_values["ascent"]
        for key, values in ascent.items():
            if key in oracle:
                self.eq_oracle += sum(v == oracle[key] for v in values)
        for qualname, seen in self.keys.items():
            self.distinct[qualname] += len(seen)
        for d in (self.keys, oracle, ascent):
            d.clear()

    # ------------------------------------------------------------ report

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass means of every counter, keyed by per-layer metric name."""
        self.end_pass()
        out: dict[str, float] = {}
        module_self: dict[str, float] = defaultdict(float)
        for qualname, s in sorted(self.stats.items()):
            out[f"{qualname}.calls"] = s.calls / passes
            out[f"{qualname}.busy_s"] = s.busy_s / passes
            out[f"{qualname}.self_s"] = s.self_s / passes
            module_self[qualname.split(".")[0]] += s.self_s / passes
        for layer in LAYERS:
            out[f"{layer}.self_s"] = module_self[layer]
        for name, value in self.counters.items():
            out[name] = value / passes
        for qualname in _DISTINCT:
            calls = self.stats[qualname].calls
            # with no calls there is nothing a cache could save
            out[f"{qualname}.distinct_frac"] = self.distinct[qualname] / calls if calls else 1.0
        calls = self.stats["vitali2d.vitali_ascent"].calls
        out["vitali2d.vitali_ascent.eq_oracle_frac"] = self.eq_oracle / calls if calls else 0.0
        return out


# ---------------------------------------------------------------- observers


def _modulus(grid_arg: str, two_d: bool):
    def observe(tr, qualname, args, result, elapsed):
        grid, p = args[grid_arg], args["p"]
        tr.keys[qualname].add(_input_key(grid, p))
        tr.counters[f"{qualname}.shift_norms"] += grid.m * grid.n if two_d else grid.n
        if qualname == "modulus.modulus_mixed":
            tr.counters[f"{qualname}.busy_s.{'p2' if p.p == 2.0 else 'pnot2'}"] += elapsed
    return observe


def _pvar_cyclic(tr, qualname, args, result, elapsed):
    tr.keys[qualname].add(_input_key(args["g"], args["p"]))
    tr.counters[f"{qualname}.dp_cells"] += args["g"].n ** 2


def _vitali(kind: str):
    def observe(tr, qualname, args, result, elapsed):
        f = args["f"]
        value = result if kind == "oracle" else result.value
        key = _input_key(f, args["p"])
        if kind == "ascent":
            tr.vitali_values[kind].setdefault(key, []).append(value)
        else:
            tr.vitali_values[kind][key] = value
            tr.counters[f"{qualname}.nets"] += (2 ** f.m - 1) * (2 ** f.n - 1)
    return observe


COUNTERS = (
    "modulus.modulus_mixed.shift_norms",
    "modulus.modulus_iso_2d.shift_norms",
    "modulus.modulus_1d.shift_norms",
    "modulus.modulus_mixed.busy_s.p2",
    "modulus.modulus_mixed.busy_s.pnot2",
    "pvar1d.pvar_cyclic.dp_cells",
    "vitali2d.vitali_oracle.nets",
)
_DISTINCT = ("modulus.modulus_mixed", "modulus.modulus_iso_2d", "modulus.modulus_1d",
             "pvar1d.pvar_cyclic")

_OBSERVERS = {
    "modulus.modulus_mixed": _modulus("f", True),
    "modulus.modulus_iso_2d": _modulus("f", True),
    "modulus.modulus_1d": _modulus("g", False),
    "pvar1d.pvar_cyclic": _pvar_cyclic,
    "vitali2d.vitali_oracle": _vitali("oracle"),
    "vitali2d.vitali_ascent": _vitali("ascent"),
}
