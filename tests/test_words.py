"""Word-level substitution machinery.

The fixed-point prefix has an independent oracle: the letter at position n
is the base-q digit sum of n, reduced mod q.  The frozen prefixes below
were computed from that rule by hand before the implementation existed.
"""

import re
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import strategies
from tmss.algebra import RATIONALS, AlgebraElement, parse_element
from tmss.group import WreathRecursion
from tmss.words import (
    InvalidLetterError,
    _gamma_letters,
    check_alphabet,
    check_word,
    commutator,
    free_reduce,
    gamma,
    inverse,
    parse_word,
    power,
    render_word,
    theta,
    theta_iter,
    tm_prefix,
)


def digit_sum_letter(q: int, n: int) -> int:
    total = 0
    while n:
        total += n % q
        n //= q
    return total % q


words = partial(strategies.words, max_len=10)


# -- frozen values ------------------------------------------------------------


def test_prefix_frozen_q2():
    assert tm_prefix(2, 8) == (0, 1, 1, 0, 1, 0, 0, 1)


def test_prefix_frozen_q3():
    assert tm_prefix(3, 9) == (0, 1, 2, 1, 2, 0, 2, 0, 1)


def test_prefix_single_letter():
    for q in (2, 3, 5):
        assert tm_prefix(q, 1) == (0,)
    assert tm_prefix(2, 0) == ()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_prefix_matches_digit_sum_oracle(q):
    prefix = tm_prefix(q, 200)
    for n, letter in enumerate(prefix):
        assert letter == digit_sum_letter(q, n)


def test_theta_single_letters():
    assert theta(((0, 1),), 2) == ((0, 1), (1, 1))
    assert theta(((1, 1),), 2) == ((1, 1), (0, 1))
    assert theta(((1, 1),), 3) == ((1, 1), (2, 1), (0, 1))
    assert theta((), 5) == ()


def test_theta_inverse_letter():
    assert theta(((0, -1),), 2) == ((1, -1), (0, -1))
    assert theta(((1, -1),), 3) == ((0, -1), (2, -1), (1, -1))


def test_gamma_examples():
    assert gamma(((0, 1), (2, 1)), 1, 3) == ((1, 1), (0, 1))
    assert gamma(((0, 1), (1, 1), (1, 1)), 1, 2) == ((1, 1), (0, 1), (0, 1))
    w = ((0, 1), (1, -1))
    assert gamma(w, 2, 2) == w


def test_free_reduce_examples():
    assert free_reduce(((0, 1), (0, -1))) == ()
    assert free_reduce(((1, 1), (0, 1), (0, -1), (1, 1))) == ((1, 1), (1, 1))
    already = ((0, 1), (1, 1))
    assert free_reduce(already) == already


def test_check_word_rejects_out_of_range():
    with pytest.raises(InvalidLetterError):
        check_word(((2, 1),), 2)
    with pytest.raises(InvalidLetterError):
        theta(((3, 1),), 3)


@pytest.mark.parametrize("enter", [
    check_alphabet,
    lambda q: tm_prefix(q, 3),
    lambda q: parse_word("x0", q),
    lambda q: parse_element("x0 -", RATIONALS, q),  # read after q is checked
    lambda q: AlgebraElement.one(RATIONALS, q),
    WreathRecursion.thue_morse,
], ids=["check_alphabet", "tm_prefix", "parse_word", "parse_element",
        "AlgebraElement", "WreathRecursion"])
@pytest.mark.parametrize("q", [1, 0, -1])
def test_every_entry_point_rejects_an_alphabet_below_2(enter, q):
    # the alphabet is named before any letter is read against it
    with pytest.raises(ValueError, match="alphabet size must be at least 2") as info:
        enter(q)
    assert not isinstance(info.value, InvalidLetterError)


@pytest.mark.parametrize("enter", [
    lambda: check_word(((2, 1),), 2),
    lambda: parse_word("x0 x2^-1", 2),
    lambda: parse_element("1 - x0 x2", RATIONALS, 2),
    lambda: AlgebraElement.monomial(RATIONALS, 2, ((0, 1), (2, -1))),
    lambda: AlgebraElement.monomial(RATIONALS, 2, ((2, 1),), mode="A"),
    lambda: WreathRecursion.thue_morse(2).decompose(((2, 1),)),
], ids=["check_word", "parse_word", "parse_element", "AlgebraElement",
        "AlgebraElement-mode-A", "WreathRecursion"])
def test_every_entry_point_names_a_letter_outside_the_alphabet(enter):
    with pytest.raises(InvalidLetterError, match="letter x2 is outside x0..x1"):
        enter()


def test_power_and_inverse():
    w = ((0, 1), (1, -1))
    assert power(w, 2) == w + w
    assert power(w, 0) == ()
    assert power(w, -1) == inverse(w) == ((1, 1), (0, -1))


def test_commutator_of_commuting_words_reduces():
    w = ((0, 1),)
    assert free_reduce(commutator(w, w)) == ()


# -- parsing and rendering ------------------------------------------------------


def test_parse_render_examples():
    assert parse_word("x0 x1^-1 x2", 3) == ((0, 1), (1, -1), (2, 1))
    assert parse_word("1", 2) == ()
    assert parse_word("x1^3", 2) == ((1, 1),) * 3
    assert parse_word("x0^-2", 2) == ((0, -1), (0, -1))
    assert render_word(((0, 1), (1, -1), (1, -1))) == "x0 x1^-2"
    assert render_word(()) == "1"


def test_parse_rejects_bad_tokens():
    with pytest.raises(InvalidLetterError):
        parse_word("x2", 2)
    with pytest.raises(ValueError):
        parse_word("y0", 2)


@pytest.mark.parametrize("token", ["x0^10000000000000000000",
                                   "x1^-10000000000000000000"])
def test_parse_names_a_token_whose_exponent_overflows(token):
    with pytest.raises(ValueError,
                       match=re.escape(f"word token '{token}' is too large")):
        parse_word(f"x0 {token}", 2)


@given(st.integers(2, 5), st.data())
def test_parse_render_roundtrip(q, data):
    w = free_reduce(data.draw(words(q)))
    assert parse_word(render_word(w), q) == w


# -- algebraic laws --------------------------------------------------------------


@given(st.integers(2, 4), st.data())
def test_theta_is_an_endomorphism(q, data):
    u = data.draw(words(q))
    v = data.draw(words(q))
    assert theta(u + v, q) == theta(u, q) + theta(v, q)


@given(st.integers(2, 4), st.integers(0, 4))
def test_theta_iterate_length(q, k):
    assert len(theta_iter(((0, 1),), q, k)) == q ** k


@given(st.integers(2, 4), st.integers(1, 120), st.integers(1, 120))
def test_prefix_property(q, n, m):
    small, large = sorted((n, m))
    assert tm_prefix(q, large)[:small] == tm_prefix(q, small)


@given(st.integers(2, 4), st.integers(0, 6), st.integers(0, 6), st.data())
def test_gamma_composes_additively(q, a, b, data):
    w = data.draw(words(q))
    assert gamma(gamma(w, a, q), b, q) == gamma(w, (a + b) % q, q)


@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_gamma_commutes_with_theta(q, shift, data):
    w = data.draw(words(q))
    assert gamma(theta(w, q), shift, q) == theta(gamma(w, shift, q), q)


@given(st.integers(2, 4), st.data())
def test_free_reduce_idempotent_and_shrinking(q, data):
    w = data.draw(words(q))
    reduced = free_reduce(w)
    assert free_reduce(reduced) == reduced
    assert len(reduced) <= len(w)


@given(st.integers(2, 4), st.data())
def test_inverse_cancels(q, data):
    w = data.draw(words(q))
    assert free_reduce(w + inverse(w)) == ()


# -- letter tables against the tuple-building maps ------------------------------


def _gamma_by_tuples(word, shift, q):
    """The oracle: ``gamma`` as it was written, a new letter per letter."""
    return tuple(((i + shift) % q, sign) for i, sign in word)


def _theta_by_tuples(word, q):
    """The oracle: ``theta`` as it was written, a new letter per letter."""
    check_word(word, q)
    out = []
    for i, sign in word:
        if sign == 1:
            out.extend(((i + k) % q, 1) for k in range(q))
        else:
            out.extend(((i + k) % q, -1) for k in range(q - 1, -1, -1))
    return tuple(out)


@given(st.integers(2, 6), st.integers(-20, 20), st.data())
def test_gamma_matches_the_tuple_building_map(q, shift, data):
    # letters outside the alphabet too: gamma reduces every index mod q
    letter = st.tuples(st.integers(-3 * q, 3 * q), st.sampled_from((1, -1)))
    word = data.draw(st.lists(letter, max_size=12).map(tuple))
    assert gamma(word, shift, q) == _gamma_by_tuples(word, shift, q)


@given(st.integers(2, 6), st.data())
def test_theta_matches_the_tuple_building_map(q, data):
    word = data.draw(words(q))
    assert theta(word, q) == _theta_by_tuples(word, q)
    bad = word + ((q, 1),)
    with pytest.raises(InvalidLetterError) as expected:
        _theta_by_tuples(bad, q)
    with pytest.raises(InvalidLetterError, match=re.escape(str(expected.value))):
        theta(bad, q)


def test_mapped_words_share_their_letters():
    word = ((0, 1), (1, -1), (0, 1))
    rotated, again = gamma(word, 1, 3), gamma(word[::-1], 1, 3)
    assert rotated[0] is rotated[2] is again[0]
    blocks = theta(word, 3)
    assert all(a is b for a, b in zip(blocks[:3], blocks[6:]))


def test_gamma_reads_only_the_letters_it_meets():
    # a table filled on first use: nothing of size q for a large alphabet
    q = 10 ** 12
    assert gamma(((0, 1), (q - 1, -1)), 1, q) == ((1, 1), (0, -1))
    assert len(_gamma_letters(1, q)) == 2
