"""Metamorphic relations of the brute-force oracles, the chain DP and the
modulus tables.

Fields and samples are small integers and p is an integer, so every cell,
difference, power and partial sum is an integer below 2^53 and exact in
floats: each relation holds with == (or <= for refinement), with no
tolerance, in whatever order a sum is taken.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarlab import (
    Exponent,
    Grid1,
    Grid2,
    modulus_iso_2d,
    modulus_mixed,
    pvar_cyclic,
    pvar_oracle,
    vitali_oracle,
)

P_INT = (1.0, 2.0, 3.0)


def _ints(size: int, bound: int) -> st.SearchStrategy:
    return st.lists(st.integers(-bound, bound), min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=float)
    )


@st.composite
def _field_and_images(draw) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """An integer field of sides 2-7 and its images under every relation."""
    m, n = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    a = draw(_ints(m * n, 3)).reshape(m, n)
    phi, psi = draw(_ints(m, 5)), draw(_ints(n, 5))
    return a, {
        "row roll": np.roll(a, draw(st.integers(1, m - 1)), axis=0),
        "column roll": np.roll(a, draw(st.integers(1, n - 1)), axis=1),
        "row reversal": a[::-1],
        "column reversal": a[:, ::-1],
        "transposition": a.T,
        "negation": -a,
        "added marginals": a + phi[:, None] + psi[None, :],
    }


@st.composite
def _samples_and_images(draw) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Integer samples, N = 2-14, and their images under every relation."""
    g = draw(st.integers(2, 14).flatmap(lambda n: _ints(n, 5)))
    return g, {
        "roll": np.roll(g, draw(st.integers(1, len(g) - 1))),
        "reversal": g[::-1],
        "negation": -g,
        "added constant": g + draw(st.integers(-10, 10)),
    }


@settings(max_examples=100, deadline=None)
@given(_field_and_images(), st.sampled_from(P_INT))
def test_vitali_oracle_relations(field_images, p):
    a, images = field_images
    pe = Exponent(p)
    base = vitali_oracle(Grid2(a), pe)
    for name, image in images.items():
        assert vitali_oracle(Grid2(image), pe) == base, name


@settings(max_examples=100, deadline=None)
@given(_samples_and_images(), st.sampled_from(P_INT))
def test_pvar_relations(samples_images, p):
    g, images = samples_images
    pe = Exponent(p)
    for value in (pvar_oracle, lambda h, q: pvar_cyclic(h, q)[0]):
        base = value(Grid1(g), pe)
        for name, image in images.items():
            assert value(Grid1(image), pe) == base, name


@st.composite
def _samples_and_refinement(draw) -> tuple[np.ndarray, np.ndarray]:
    """Integer samples g, N = 2-64, |x| <= 4, and 2N integer samples h
    with h[::2] == g."""
    g = draw(st.integers(2, 64).flatmap(lambda n: _ints(n, 4)))
    h = np.empty(2 * len(g))
    h[::2], h[1::2] = g, draw(_ints(len(g), 4))
    return g, h


@settings(max_examples=300, deadline=None)
@given(_samples_and_refinement(), st.sampled_from(P_INT))
def test_pvar_cyclic_refinement(samples, p):
    """A partition of g is one of h through the even indices, with the same
    sum, so the p-variation of g is at most that of h."""
    g, h = samples
    pe = Exponent(p)
    assert pvar_cyclic(Grid1(g), pe)[0] <= pvar_cyclic(Grid1(h), pe)[0]


@st.composite
def _table_field(draw, square: bool) -> np.ndarray:
    """An integer field of sides 9-64, square or not: noise of |x| <= 1, 3
    or 50, or a double cumsum of steps in {-1, 0, 1}, smooth, whose table
    bounds leave most shifts out."""
    m = draw(st.integers(9, 64))
    n = m if square else draw(st.integers(9, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.sampled_from((1, 3, 50, None)))
    if bound is None:
        steps = rng.integers(-1, 2, size=(m, n))
        return np.cumsum(np.cumsum(steps, axis=0), axis=1).astype(float)
    return rng.integers(-bound, bound + 1, size=(m, n)).astype(float)


@settings(max_examples=100, deadline=None)
@given(_table_field(square=False), st.data(), st.sampled_from(P_INT))
def test_modulus_mixed_relations(a, data, p):
    """The mixed table is unchanged by rolls and reversals of either axis,
    negation and added marginals, and transposes under transposition."""
    m, n = a.shape
    pe = Exponent(p)
    phi, psi = data.draw(_ints(m, 5)), data.draw(_ints(n, 5))
    images = {
        "row roll": np.roll(a, data.draw(st.integers(1, m - 1)), axis=0),
        "column roll": np.roll(a, data.draw(st.integers(1, n - 1)), axis=1),
        "row reversal": a[::-1],
        "column reversal": a[:, ::-1],
        "negation": -a,
        "added marginals": a + phi[:, None] + psi[None, :],
    }
    base = modulus_mixed(Grid2(a), pe).values
    for name, image in images.items():
        assert (modulus_mixed(Grid2(image), pe).values == base).all(), name
    assert (modulus_mixed(Grid2(a.T), pe).values == base.T).all(), "transposition"


@settings(max_examples=100, deadline=None)
@given(_table_field(square=True), st.data(), st.sampled_from(P_INT))
def test_modulus_iso_2d_relations(a, data, p):
    """On square fields the isotropic table is unchanged by rolls,
    negation, an added constant, transposition and the joint reversal,
    which maps each shift to itself.  A single-axis reversal maps (s, t)
    to (-s, t), which the table leaves out (the strict xfail
    test_iso_table_is_the_sup_over_the_ball), so it is not asserted."""
    m = a.shape[0]
    pe = Exponent(p)
    images = {
        "row roll": np.roll(a, data.draw(st.integers(1, m - 1)), axis=0),
        "column roll": np.roll(a, data.draw(st.integers(1, m - 1)), axis=1),
        "negation": -a,
        "added constant": a + data.draw(st.integers(-10, 10)),
        "transposition": a.T,
        "joint reversal": a[::-1, ::-1],
    }
    base = modulus_iso_2d(Grid2(a), pe).values
    for name, image in images.items():
        assert (modulus_iso_2d(Grid2(image), pe).values == base).all(), name
