"""Hypothesis strategies that more than one test module draws from.

Each module binds its own defaults (``functools.partial``), so that its
draws stay as they were: word lengths, coefficient ranges and rings."""

from hypothesis import strategies as st

from tmss.algebra import RATIONALS, AlgebraElement


def words(q: int, max_len: int, signs=(1, -1)):
    """Words of at most ``max_len`` letters over x0..x_{q-1}, not reduced."""
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from(signs))
    return st.lists(letter, max_size=max_len).map(tuple)


def elements(q: int, max_terms: int, max_len: int, coeff: int, mode="B",
             ring=RATIONALS):
    """Elements of at most ``max_terms`` terms, each a word of at most
    ``max_len`` letters (positive letters only in mode A) with a
    coefficient in -coeff..coeff."""
    signs = (1, -1) if mode == "B" else (1,)
    term = st.tuples(words(q, max_len, signs), st.integers(-coeff, coeff))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: AlgebraElement(ring, q, mode, terms))
