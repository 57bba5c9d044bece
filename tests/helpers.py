"""Code that several test modules share: the other SIMD dispatch of numpy's
power, and an exact two-sum for references that share no code with src/."""

import os

import pytest
from numpy._core._multiarray_umath import __cpu_features__

# The AVX-512 features whose loops numpy 2.x dispatches float64 power to,
# and those of them that the CPU enables.
AVX512_POWER = ("AVX512_ICL", "AVX512_SPR", "X86_V4")
AVX512_ON = tuple(f for f in AVX512_POWER if __cpu_features__.get(f))

needs_avx512 = pytest.mark.skipif(
    not AVX512_ON, reason="the host has none of the AVX-512 power features to disable")


def other_dispatch_env(**extra: str) -> dict[str, str]:
    """os.environ and extra, with AVX512_ON disabled: a child process started
    with it runs numpy's power on its other loops (ROADMAP item 12)."""
    return dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_ON), **extra)


def two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as an exact head/tail pair (Knuth's two-sum)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)
