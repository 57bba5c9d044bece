"""Metamorphic relations of the brute-force oracles and the chain DP.

Fields and samples are small integers and p is an integer, so every cell,
difference, power and partial sum is an integer below 2^53 and exact in
floats: each relation holds with == (or <= for refinement), with no
tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarlab import Exponent, Grid1, Grid2, pvar_cyclic, pvar_oracle, vitali_oracle

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
