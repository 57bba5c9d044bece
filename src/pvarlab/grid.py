"""Periodic sampled functions on uniform grids, generators and CSV I/O.

The sample array *is* the function: every functional downstream is defined
on the grid, with periodic (modulo-N) index semantics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Exponent",
    "Grid1",
    "Grid2",
    "gen_tent_scaled",
    "gen_sine",
    "gen_gn",
    "gen_series_f",
    "gen_staircase",
    "gen_product",
    "gen_trigpoly",
    "gen_cumulative",
    "load_csv",
    "save_csv",
]


@dataclass(frozen=True)
class Exponent:
    """Variation/integrability index p >= 1 with its conjugate p' = p/(p-1)."""

    p: float

    def __post_init__(self):
        if isinstance(self.p, bool) or not (
            isinstance(self.p, numbers.Real) and math.isfinite(self.p)
        ):
            raise ValueError(f"p must be a finite real, got {self.p!r}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        object.__setattr__(self, "p", float(self.p))

    @property
    def conj(self) -> float:
        """Conjugate exponent p'; +inf when p == 1."""
        if self.p == 1.0:
            return math.inf
        return self.p / (self.p - 1.0)


# Largest sample magnitude a grid accepts.  Below it every sample
# difference (at most 2^1022) and every mixed cell a - b - c + d (at most
# 2^1023) is finite; the comparison also refuses NaN and +-inf.
_MAX_ABS_SAMPLE = 2.0**1021


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous float copy of a, so neither the caller's array
    nor a view of it is frozen or shared."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid1:
    """Uniformly sampled 1-periodic function; samples[k] is the value at x = k/N."""

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("Grid1 needs at least 2 samples")
        if not np.all(np.abs(a) <= _MAX_ABS_SAMPLE):
            raise ValueError("Grid1 samples must be finite, of magnitude at most 2^1021")
        object.__setattr__(self, "samples", _freeze(a))

    @property
    def n(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Grid2:
    """Doubly 1-periodic function sampled on an M x N grid; entry (i, j) is f(i/M, j/N)."""

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=float)
        if a.ndim != 2 or a.shape[0] < 2 or a.shape[1] < 2:
            raise ValueError("Grid2 needs an M x N array with M, N >= 2")
        if not np.all(np.abs(a) <= _MAX_ABS_SAMPLE):
            raise ValueError("Grid2 samples must be finite, of magnitude at most 2^1021")
        object.__setattr__(self, "samples", _freeze(a))

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]


def dist_to_integer(x):
    """The 1-periodic tent: distance from x to the nearest integer."""
    x = np.asarray(x, dtype=float)
    r = x - np.floor(x)
    return np.minimum(r, 1.0 - r)


def gen_tent_scaled(n: int, N: int) -> Grid1:
    """Tent of frequency n sampled on N points; N must be a multiple of 2n.

    The alignment condition puts all breakpoints of the scaled tent on grid
    points, so closed-form variation values hold exactly.
    """
    if n < 1 or N < 2:
        raise ValueError("need n >= 1 and N >= 2")
    if N % (2 * n) != 0:
        raise ValueError(f"N={N} must be a multiple of 2n={2 * n}")
    k = np.arange(N)
    return Grid1(dist_to_integer(n * k / N))


def gen_sine(n: int, N: int) -> Grid1:
    """sin(2*pi*n*x) sampled on N points; N must be a multiple of 4n (extrema on-grid)."""
    if n < 1 or N < 2:
        raise ValueError("need n >= 1 and N >= 2")
    if N % (4 * n) != 0:
        raise ValueError(f"N={N} must be a multiple of 4n={4 * n}")
    k = np.arange(N)
    return Grid1(np.sin(2.0 * np.pi * n * k / N))


def _gn_values(n: int, x: np.ndarray) -> np.ndarray:
    """Tent bump supported on [2^-n, 2^-n+1] within one period, zero elsewhere."""
    t = np.ldexp(x, n) - 1.0  # 2^n x - 1
    inside = (t >= 0.0) & (t <= 1.0)
    return np.where(inside, dist_to_integer(t), 0.0)


def gen_gn(n: int, N: int) -> Grid1:
    """The n-th dyadic tent bump on N points; N must be a multiple of 2^(n+1)."""
    if n < 1 or N < 2:
        raise ValueError("need n >= 1 and N >= 2")
    if N % (1 << (n + 1)) != 0:
        raise ValueError(f"N={N} must be a multiple of 2^(n+1)={1 << (n + 1)}")
    k = np.arange(N)
    return Grid1(_gn_values(n, k / N))


def gen_series_f(M: int, p: Exponent, N: int) -> Grid2:
    """Truncated dyadic-bump series sum_{n=1..M} 2^(-n/p) g_n(x) tent(2^n y).

    N must be a multiple of 2^(M+1) so every retained term is grid-aligned.
    The dropped tail has sup norm at most 2^(-M/p)/4 (the bump supports are
    pairwise disjoint).
    """
    if M < 1:
        raise ValueError("need M >= 1")
    if (1 << (M + 1)) > N:
        raise ValueError(f"M={M} too large for N={N}: need 2^(M+1) <= N")
    if N % (1 << (M + 1)) != 0:
        raise ValueError(f"N={N} must be a multiple of 2^(M+1)={1 << (M + 1)}")
    x = np.arange(N) / N
    y = np.arange(N) / N
    out = np.zeros((N, N))
    for n in range(1, M + 1):
        gx = _gn_values(n, x)
        hy = dist_to_integer(np.ldexp(y, n))
        out += 2.0 ** (-n / p.p) * np.outer(gx, hy)
    return Grid2(out)


def gen_staircase(N: int) -> Grid2:
    """Indicator of {0 < x <= y <= 1} on an N x N grid; grid point 0 represents 1."""
    if N < 2:
        raise ValueError("need N >= 2")
    idx = np.arange(N, dtype=float)
    rep = np.where(idx == 0, float(N), idx) / N  # representative in (0, 1]
    out = (rep[:, None] <= rep[None, :]).astype(float)
    return Grid2(out)


def gen_product(g: Grid1, h: Grid1) -> Grid2:
    """Separable function g(x) h(y)."""
    return Grid2(np.outer(g.samples, h.samples))


def gen_trigpoly(a, b, c, d, M: int, N: int) -> tuple[Grid2, Grid2]:
    """Bivariate trigonometric polynomial and its exact mixed derivative.

    Coefficient matrices a, b, c, d have shape (n+1, m+1) and multiply
    cos*cos, cos*sin, sin*cos, sin*sin terms of frequencies (j, k).  Returns
    (T, D1D2T) sampled on the M x N grid; requires M > 2n and N > 2m.
    """
    a, b, c, d = (np.asarray(u, dtype=float) for u in (a, b, c, d))
    if not (a.shape == b.shape == c.shape == d.shape) or a.ndim != 2:
        raise ValueError("coefficient matrices must share one 2-d shape")
    deg_x, deg_y = a.shape[0] - 1, a.shape[1] - 1
    if M <= 2 * deg_x or N <= 2 * deg_y:
        raise ValueError(
            f"grid {M}x{N} cannot resolve degree ({deg_x},{deg_y}); need M > 2n, N > 2m"
        )
    x = np.arange(M) / M
    y = np.arange(N) / N
    T = np.zeros((M, N))
    D = np.zeros((M, N))
    for j in range(deg_x + 1):
        cj, sj = np.cos(2 * np.pi * j * x), np.sin(2 * np.pi * j * x)
        xs = (cj, sj), (-2 * np.pi * j * sj, 2 * np.pi * j * cj)  # (cos, sin), then derivatives
        for k in range(deg_y + 1):
            ck, sk = np.cos(2 * np.pi * k * y), np.sin(2 * np.pi * k * y)
            ys = (ck, sk), (-2 * np.pi * k * sk, 2 * np.pi * k * ck)
            for out, (cx, sx), (cy, sy) in zip((T, D), xs, ys):
                out += (
                    a[j, k] * np.outer(cx, cy)
                    + b[j, k] * np.outer(cx, sy)
                    + c[j, k] * np.outer(sx, cy)
                    + d[j, k] * np.outer(sx, sy)
                )
    return Grid2(T), Grid2(D)


CUMULATIVE_TOL = 1e-9


def gen_cumulative(f: Grid2) -> Grid2:
    """Discrete double primitive F(i,j) = (1/MN) sum_{s<i,t<j} f(s,t).

    Requires all row means and column means of f to vanish (within
    CUMULATIVE_TOL times max(1, max |f|)), so that F is doubly periodic.
    """
    a = f.samples
    tol = CUMULATIVE_TOL * max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a.mean(axis=1))) > tol or np.max(np.abs(a.mean(axis=0))) > tol:
        raise ValueError("gen_cumulative needs zero row means and column means")
    c = np.zeros((f.m, f.n))
    inner = np.cumsum(np.cumsum(a, axis=0), axis=1)
    c[1:, 1:] = inner[:-1, :-1]
    return Grid2(c / (f.m * f.n))


_HEADER = "# pvarlab grid"


def save_csv(grid: Grid1 | Grid2, path) -> None:
    """Row-major CSV with a one-line `# pvarlab grid M N` header."""
    if isinstance(grid, Grid1):
        m, n = 1, grid.n
        rows = grid.samples[None, :]
    else:
        m, n = grid.m, grid.n
        rows = grid.samples
    with open(path, "w") as fh:
        fh.write(f"{_HEADER} {m} {n}\n")
        for r in rows:
            fh.write(",".join(repr(float(v)) for v in r) + "\n")


def load_csv(path) -> Grid1 | Grid2:
    """Inverse of save_csv; a 1 x N file loads as a Grid1."""
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        if parts[: len(_HEADER.split())] != _HEADER.split() or len(parts) != 5:
            raise ValueError(f"malformed header: {header!r}")
        try:
            m, n = int(parts[3]), int(parts[4])
        except ValueError as exc:
            raise ValueError(f"malformed header: {header!r}") from exc
        data = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                data.append([float(v) for v in cells])
            except ValueError as exc:
                raise ValueError(f"non-numeric cell in row {len(data)}") from exc
    arr = np.asarray(data, dtype=float) if data else np.zeros((0, 0))
    if arr.shape != (m, n):
        raise ValueError(f"header promises {m}x{n}, file holds {arr.shape}")
    if m == 1:
        return Grid1(arr[0])
    return Grid2(arr)
