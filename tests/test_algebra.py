"""Matrix recursion on the group algebra: phi, zero testing, sigma, omega."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tmss.algebra import (
    INTEGERS,
    RATIONALS,
    AlgebraElement,
    PrimeField,
    UnsupportedModeError,
    big_product_word,
    contraction_depth,
    is_zero,
    mat_mul,
    omega_enumerate,
    omega_generator,
    parse_element,
    phi,
    phi_iterate,
    row_col_bound_profile,
    sigma,
)
from tmss.group import WreathElement, WreathRecursion
from tmss.words import gamma, theta


def gen(q, i, ring=RATIONALS, mode="B"):
    return AlgebraElement.generator(ring, q, i, mode=mode)


def one(q, ring=RATIONALS, mode="B"):
    return AlgebraElement.one(ring, q, mode=mode)


def elements(q, max_terms=3, max_len=4, mode="B"):
    sign = (1, -1) if mode == "B" else (1,)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from(sign))
    word = st.lists(letter, max_size=max_len).map(tuple)
    coeff = st.integers(-3, 3).map(Fraction)
    term = st.tuples(word, coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: AlgebraElement(RATIONALS, q, mode,
                                     dict_sum(terms)))


def dict_sum(terms):
    acc = {}
    for word, coeff in terms:
        acc[word] = acc.get(word, 0) + coeff
    return acc


# -- ring scaffolding ----------------------------------------------------------


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_inversion():
    field = PrimeField(5)
    for x in range(1, 5):
        assert field.coerce(x * field.invert(x)) == 1
    with pytest.raises(ZeroDivisionError):
        field.invert(0)


def test_integers_only_invert_units():
    assert INTEGERS.invert(-1) == -1
    with pytest.raises(ValueError):
        INTEGERS.invert(2)


def test_integer_ring_rejects_proper_fractions():
    with pytest.raises(ValueError):
        AlgebraElement.monomial(INTEGERS, 2, ((0, 1),), coeff=Fraction(1, 2))


def test_positive_mode_rejects_inverse_letters():
    with pytest.raises(UnsupportedModeError):
        AlgebraElement.monomial(RATIONALS, 2, ((0, -1),), mode="A")
    with pytest.raises(UnsupportedModeError):
        gen(2, 0, mode="A").star()


def test_involutive_mode_free_reduces_words():
    elem = AlgebraElement.monomial(RATIONALS, 2, ((0, 1), (0, -1), (1, 1)))
    assert elem == gen(2, 1)


# -- generator matrices under phi ----------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5])
def test_phi_of_x0(q):
    block = phi(gen(q, 0))
    for a in range(q):
        for b in range(q):
            entry = block[a][b]
            if b == (a - 1) % q:
                assert entry == gen(q, a)
            else:
                assert entry.is_zero_literal


@pytest.mark.parametrize("q", [2, 3, 5])
def test_phi_of_high_generators(q):
    for i in range(1, q):
        block = phi(gen(q, i))
        for a in range(q):
            for b in range(q):
                entry = block[a][b]
                if b == (a - 1) % q:
                    assert entry == one(q)
                else:
                    assert entry.is_zero_literal


def test_phi_of_x0_inverse():
    q = 3
    block = phi(AlgebraElement.monomial(RATIONALS, q, ((0, -1),)))
    for b in range(q):
        for c in range(q):
            entry = block[b][c]
            if c == (b + 1) % q:
                assert entry == AlgebraElement.monomial(
                    RATIONALS, q, (((b + 1) % q, -1),))
            else:
                assert entry.is_zero_literal


def unreduced_words(q, max_chunks=8):
    """Words in which cancelling pairs x x^-1 are common."""
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from((1, -1)))
    chunk = st.one_of(letter.map(lambda x: (x,)),
                      letter.map(lambda x: (x, (x[0], -x[1]))))
    return st.lists(chunk, max_size=max_chunks).map(
        lambda chunks: tuple(x for c in chunks for x in c))


@given(st.sampled_from(("thue_morse", "inverted_variant", "transposed_variant")),
       st.integers(2, 4), st.data())
def test_phi_and_decompose_follow_one_wreath_fold(preset, q, data):
    word = data.draw(unreduced_words(q))
    # oracle: the product of the single-letter decompositions, letter by letter
    rec = getattr(WreathRecursion, preset)(q)
    expected = WreathElement.identity(q)
    for letter in word:
        expected = expected * rec.decompose((letter,))
    assert rec.decompose(word) == expected
    # phi of a monomial is the matrix of its Thue-Morse decomposition
    tm = WreathRecursion.thue_morse(q)
    positive = tuple((i, 1) for i, _ in word)
    for mode, w in (("B", word), ("A", positive)):
        el = tm.decompose(w)
        block = phi(AlgebraElement.monomial(RATIONALS, q, w, mode=mode))
        for a in range(q):
            for b in range(q):
                if b == el.perm(a):
                    assert block[a][b] == AlgebraElement.monomial(
                        RATIONALS, q, el.sections[a], mode=mode)
                else:
                    assert block[a][b].is_zero_literal


@given(st.sampled_from((2, 3)), st.data())
def test_phi_is_a_homomorphism(q, data):
    s = data.draw(elements(q))
    t = data.draw(elements(q))
    left = phi(s * t)
    right = mat_mul(phi(s), phi(t))
    assert left == right
    assert phi(s + t) == tuple(
        tuple(phi(s)[i][j] + phi(t)[i][j] for j in range(q)) for i in range(q))


@given(st.sampled_from((2, 3)), st.data())
def test_phi_of_substitution_is_diagonal(q, data):
    s = data.draw(elements(q))
    block = phi(s.theta_map())
    for i in range(q):
        for j in range(q):
            if i == j:
                assert block[i][j] == s.gamma_map(i)
            else:
                assert block[i][j].is_zero_literal


def test_high_generators_share_one_image():
    q = 4
    images = [phi(gen(q, i)) for i in range(1, q)]
    assert all(m == images[0] for m in images)
    assert is_zero(gen(q, 2) - gen(q, 1)).is_zero
    assert is_zero(gen(q, 3) - gen(q, 1)).is_zero


def test_collapse_high_letters_preserves_sign():
    q = 3
    elem = AlgebraElement.monomial(RATIONALS, q, ((2, -1), (0, 1)))
    assert elem.collapse_high_letters() == AlgebraElement.monomial(
        RATIONALS, q, ((1, -1), (0, 1)))


# -- star --------------------------------------------------------------------


@given(st.data())
def test_star_is_an_anti_involution(data):
    q = 2
    s = data.draw(elements(q))
    t = data.draw(elements(q))
    assert s.star().star() == s
    assert (s * t).star() == t.star() * s.star()
    assert (s + t).star() == s.star() + t.star()


def test_star_reverses_and_inverts():
    elem = AlgebraElement.monomial(RATIONALS, 2, ((0, 1), (1, -1)),
                                   coeff=Fraction(3))
    assert elem.star() == AlgebraElement.monomial(
        RATIONALS, 2, ((1, 1), (0, -1)), coeff=Fraction(3))


# -- sigma -------------------------------------------------------------------


def test_sigma_arity_is_checked():
    with pytest.raises(ValueError):
        sigma(one(2))


def test_sigma_example_is_diagonal():
    q = 2
    s0 = one(q) - gen(q, 0) * gen(q, 1)
    block = phi(sigma(s0, AlgebraElement.zero(RATIONALS, q)))
    assert block[0][0] == s0
    assert block[1][1] == one(q) - gen(q, 1) * gen(q, 0)
    assert block[0][1].is_zero_literal and block[1][0].is_zero_literal


@given(st.sampled_from((2, 3)), st.data())
def test_sigma_block_structure(q, data):
    parts = [data.draw(elements(q, max_terms=2, max_len=3)) for _ in range(q)]
    block = phi(sigma(*parts))
    for i in range(q):
        for j in range(q):
            assert block[i][j] == parts[(i - j) % q].gamma_map(j)


def test_big_product_word():
    assert big_product_word(3) == ((0, 1), (1, 1), (2, 1))


# -- zero testing ----------------------------------------------------------------


def test_relation_x1_power_q():
    for q in (2, 3):
        verdict = is_zero(gen(q, 1) ** q - one(q))
        assert verdict.is_zero and verdict.depth == 1


def test_relation_commuting_powers():
    for q in (2, 3):
        a = AlgebraElement.monomial(RATIONALS, q, ((0, 1), (1, -1))) ** q
        b = AlgebraElement.monomial(RATIONALS, q, ((1, -1), (0, 1))) ** q
        verdict = is_zero((a - one(q)) * (b - one(q)))
        assert verdict.is_zero and verdict.depth == 2


def test_nonzero_certificate():
    verdict = is_zero(gen(2, 0) - one(2))
    assert verdict.is_nonzero
    assert verdict.witness_scalar == Fraction(-1)
    assert verdict.witness_row == (0,) * len(verdict.witness_row)
    assert len(verdict.witness_row) == verdict.depth
    assert "scalar" in str(verdict)


def test_zero_literal_shortcut():
    verdict = is_zero(AlgebraElement.zero(RATIONALS, 2))
    assert verdict.is_zero and verdict.depth == 0


def test_unknown_when_capped():
    verdict = is_zero(one(2) - gen(2, 0) ** 2, cap_depth=1)
    assert verdict.is_unknown and verdict.cap == 1


def test_omega_generators_are_not_certified_zero():
    # these have positive spread value, so the zero test must not accept them
    elem = omega_generator(RATIONALS, 2, 0, 1)
    assert not is_zero(elem, cap_depth=6).is_zero


@given(st.sampled_from((2, 3)), st.data())
@settings(max_examples=30, deadline=None)
def test_zero_verdicts_respect_products(q, data):
    s = data.draw(elements(q, max_terms=2, max_len=3))
    relation = gen(q, 1) ** q - one(q)
    assert is_zero(relation * s, cap_depth=8).is_zero
    assert is_zero(s * relation, cap_depth=8).is_zero


# -- explicit iterates ----------------------------------------------------------------


def test_phi_iterate_matches_blockwise_expansion():
    q = 2
    s = one(q) - gen(q, 0) * gen(q, 1) ** 2
    for n in (0, 1, 2, 3):
        sparse = phi_iterate(s, n)
        oracle = {(0, 0): s}
        for _ in range(n):
            grown = {}
            for (u, v), entry in oracle.items():
                block = phi(entry)
                for i in range(q):
                    for j in range(q):
                        if not block[i][j].is_zero_literal:
                            grown[(u * q + i, v * q + j)] = block[i][j]
            oracle = grown
        assert sparse == oracle


def test_contraction_depth_of_tower_element():
    q = 2
    elem = one(q) - gen(q, 0) ** q
    assert contraction_depth(elem) == 2
    assert contraction_depth(one(q) - gen(q, 0)) == 0
    assert contraction_depth(gen(q, 0) * gen(q, 1)) == 1


def test_contraction_depth_cap():
    from tmss.verdict import Unknown
    result = contraction_depth(one(2) - gen(2, 0) ** 4, cap_depth=0)
    assert isinstance(result, Unknown)


def test_row_col_bounds_for_monomials():
    q = 2
    profile = row_col_bound_profile(gen(q, 0), 5)
    assert profile == [(1, 1)] * 6
    wide = row_col_bound_profile(one(q) + gen(q, 0), 3)
    assert wide[0] == (1, 1)
    assert all(r <= 2 and c <= 2 for r, c in wide)


# -- omega family ------------------------------------------------------------------


def test_omega_generator_shape():
    q = 3
    elem = omega_generator(RATIONALS, q, 1, 0)
    expected = one(q) - AlgebraElement.monomial(
        RATIONALS, q, gamma(big_product_word(q), 1, q))
    assert elem == expected


def test_omega_level_zero_count():
    base = omega_enumerate(RATIONALS, 2, 0, k_max=2)
    # zero plus one generator per shift and exponent level
    assert len(base) == 1 + 2 * 3
    assert AlgebraElement.zero(RATIONALS, 2) in base


def test_omega_enumerate_is_deterministic():
    first = omega_enumerate(RATIONALS, 2, 1, k_max=1, size_cap=64)
    second = omega_enumerate(RATIONALS, 2, 1, k_max=1, size_cap=64)
    assert first == second
    assert len(first) <= 64


def test_omega_level_one_contains_sigma_images():
    base = omega_enumerate(RATIONALS, 2, 0, k_max=1)
    level = omega_enumerate(RATIONALS, 2, 1, k_max=1, size_cap=4096)
    w = omega_generator(RATIONALS, 2, 0, 1)
    assert sigma(w, w) in level
    assert sigma(w, AlgebraElement.zero(RATIONALS, 2)) in level
    assert len(level) >= len(base)


# -- parsing and rendering ------------------------------------------------------------


def test_parse_element_pins():
    q = 2
    assert parse_element("1 - x0", RATIONALS, q) == one(q) - gen(q, 0)
    assert parse_element("-x0", RATIONALS, q) == -gen(q, 0)
    assert parse_element("2*x0 x1^-1", RATIONALS, q) == AlgebraElement.monomial(
        RATIONALS, q, ((0, 1), (1, -1)), coeff=Fraction(2))
    assert parse_element("x0 1", RATIONALS, q) == gen(q, 0)
    assert parse_element("1/2", RATIONALS, q) == one(q).scale(Fraction(1, 2))


def test_parse_element_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("x5", RATIONALS, 2)
    with pytest.raises(ValueError):
        parse_element("x0 +", RATIONALS, 2)
    with pytest.raises(ValueError):
        parse_element("", RATIONALS, 2)
    with pytest.raises(ValueError):
        parse_element("y0", RATIONALS, 2)


@given(st.sampled_from((2, 3)), st.data())
def test_render_parse_roundtrip(q, data):
    s = data.draw(elements(q))
    assert parse_element(s.render(), RATIONALS, q) == s


def test_to_json_shape():
    payload = (one(2) - gen(2, 0)).to_json()
    assert payload["q"] == 2 and payload["mode"] == "B"
    assert len(payload["terms"]) == 2


# -- algebra laws ------------------------------------------------------------------


@given(st.sampled_from((2, 3)), st.data())
def test_ring_axioms_sampled(q, data):
    a = data.draw(elements(q))
    b = data.draw(elements(q))
    c = data.draw(elements(q))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == AlgebraElement.zero(RATIONALS, q)
    assert a * one(q) == a and one(q) * a == a


@given(st.sampled_from((2, 3)), st.data())
def test_scaled_keys_identify_lines(q, data):
    s = data.draw(elements(q))
    if s.is_zero_literal:
        return
    assert s.scale(Fraction(7, 3)).key() == s.key()
    assert (-s).key() == s.key()
    assert s.key(scale=False) != s.scale(Fraction(2)).key(scale=False)


@given(st.sampled_from((2, 3)), st.data())
def test_substitution_and_shift_commute(q, data):
    s = data.draw(elements(q))
    assert s.theta_map().gamma_map(1) == s.gamma_map(1).theta_map()
    assert s.gamma_map(1).gamma_map(q - 1) == s


def test_power_matches_repeated_product():
    s = one(2) + gen(2, 0)
    assert s ** 3 == s * s * s
    assert s ** 0 == one(2)
    with pytest.raises(ValueError):
        s ** -1
