"""Hypothesis strategies that more than one test module draws from.

Each module binds its own defaults (``functools.partial``), so that its
draws stay as they were: word lengths, coefficient ranges and rings."""

from hypothesis import strategies as st

from tmss.algebra import RATIONALS, AlgebraElement
from tmss.group import Permutation, WreathElement, WreathRecursion


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


@st.composite
def user_recursions(draw, q: int, max_letters: int = 1, rooted=(), fixed=()):
    """A recursion with random root permutations and sections of at most
    ``max_letters`` letters, of either sign, except that the generators in
    ``rooted`` have only empty sections and those in ``fixed`` have the
    identity permutation."""
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from((1, -1)))
    section = st.lists(letter, max_size=max_letters).map(tuple)
    images = {}
    for i in range(q):
        sections = tuple(() if i in rooted else draw(section) for _ in range(q))
        perm = (tuple(range(q)) if i in fixed
                else tuple(draw(st.permutations(range(q)))))
        images[i] = WreathElement(sections, Permutation(perm))
    return WreathRecursion(q, images)
