"""Matrix recursion on the group algebra: phi, zero testing, sigma, omega."""

import math
import re
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import strategies
from tmss.algebra import (
    INTEGERS,
    RATIONALS,
    AlgebraElement,
    PrimeField,
    UnsupportedModeError,
    _class_key,
    _closure,
    _collapsed_thue_morse,
    _grid,
    _phi_cells,
    _thue_morse,
    big_product_word,
    contraction_depth,
    is_zero,
    mat_mul,
    omega_enumerate,
    omega_generator,
    parse_element,
    phi_iterate,
    row_col_bound_profile,
    sigma,
)
from tmss import algebra, words
from tmss.group import Permutation, WreathElement, WreathRecursion, canonical
from tmss.verdict import Verdict
from tmss.words import free_reduce, gamma, parse_word, shared_letters, theta


def gen(q, i, ring=RATIONALS, mode="B"):
    return AlgebraElement.generator(ring, q, i, mode=mode)


def one(q, ring=RATIONALS, mode="B"):
    return AlgebraElement.one(ring, q, mode=mode)


elements = partial(strategies.elements, max_terms=3, max_len=4, coeff=3)


# -- ring scaffolding ----------------------------------------------------------


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_decides_primality_by_miller_rabin():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, n))

    assert ([n for n in range(-2, 1500) if algebra._is_prime(n)]
            == [n for n in range(-2, 1500) if by_trial_division(n)])
    # strong pseudoprimes to the first 4, 9 and 12 primes as bases
    for factors in ((151, 751, 28351), (149491, 747451, 34233211),
                    (399165290221, 798330580441)):
        n = math.prod(factors)
        assert not algebra._is_prime(n)
        with pytest.raises(ValueError, match=f"{n} is not prime"):
            PrimeField(n)
    # a 19-digit prime, which trial division takes seconds to certify, and
    # the largest prime below the proven bound
    for p in (10 ** 18 + 3, algebra._PROVEN - 168):
        assert PrimeField(p).p == p


@given(st.integers(0, algebra._PROVEN - 1))
@settings(deadline=None)  # the first example imports sympy
def test_miller_rabin_matches_sympy_below_the_proven_bound(n):
    sympy = pytest.importorskip("sympy")
    assert algebra._is_prime(n) == sympy.isprime(n)
    if n > 2:
        assert algebra._is_prime(sympy.prevprime(n))


def test_prime_field_refuses_a_modulus_past_the_proven_bound():
    # the bound is the least composite that passes all 13 bases, and a
    # 401-digit modulus is too large for a float square root; a float
    # modulus would make every coefficient a float
    assert algebra._PROVEN == 1287836182261 * 2575672364521
    assert algebra._is_prime(algebra._PROVEN)
    for p in (algebra._PROVEN, 10 ** 400 + 1, 7.0, 43.0):
        with pytest.raises(ValueError,
                           match="a prime modulus must be an integer below"):
            PrimeField(p)


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


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("word", [((0, 2),), ((1, 0),), ((0, 1), (1, -2))])
def test_constructor_rejects_letter_signs_other_than_plus_minus_one(mode, word):
    with pytest.raises(ValueError, match="letter sign must be"):
        AlgebraElement.monomial(RATIONALS, 2, word, mode=mode)


def test_involutive_mode_free_reduces_words():
    elem = AlgebraElement.monomial(RATIONALS, 2, ((0, 1), (0, -1), (1, 1)))
    assert elem == gen(2, 1)


def test_constructor_reduces_sums_of_reduced_words_in_the_ring():
    x0, x0_inv = (0, 1), (0, -1)
    elem = AlgebraElement(PrimeField(5), 2, "B", {(x0, x0_inv): 2, (): 3})
    assert elem == AlgebraElement.zero(PrimeField(5), 2)
    assert elem.is_zero_literal and elem.render() == "0"
    assert is_zero(elem) == Verdict("zero", depth=0)
    field = PrimeField(7)
    elem = AlgebraElement(field, 2, "B", [((x0, x0_inv), 5), ((), 3), ((x0,), 6)])
    assert elem.terms == {(): 1, (x0,): 6}


# -- generator matrices under phi ----------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5])
def test_phi_of_x0(q):
    block = gen(q, 0).phi()
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
        block = gen(q, i).phi()
        for a in range(q):
            for b in range(q):
                entry = block[a][b]
                if b == (a - 1) % q:
                    assert entry == one(q)
                else:
                    assert entry.is_zero_literal


def test_phi_of_x0_inverse():
    q = 3
    block = AlgebraElement.monomial(RATIONALS, q, ((0, -1),)).phi()
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
    expected = WreathElement(((),) * q, Permutation.identity(q))
    for letter in word:
        expected = expected * rec.decompose((letter,))
    assert rec.decompose(word) == expected
    # phi of a monomial is the matrix of its Thue-Morse decomposition
    tm = WreathRecursion.thue_morse(q)
    positive = tuple((i, 1) for i, _ in word)
    for mode, w in (("B", word), ("A", positive)):
        el = tm.decompose(w)
        block = AlgebraElement.monomial(RATIONALS, q, w, mode=mode).phi()
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
    left = (s * t).phi()
    right = mat_mul(s.phi(), t.phi())
    assert left == right
    assert (s + t).phi() == tuple(
        tuple(s.phi()[i][j] + t.phi()[i][j] for j in range(q)) for i in range(q))


def _theta_map(s):
    """The substitution theta applied to every monomial of ``s``."""
    return AlgebraElement(s.ring, s.q, s.mode,
                          {theta(w, s.q): c for w, c in s.terms.items()})


@given(st.sampled_from((2, 3)), st.data())
def test_phi_of_substitution_is_diagonal(q, data):
    s = data.draw(elements(q))
    block = _theta_map(s).phi()
    for i in range(q):
        for j in range(q):
            if i == j:
                assert block[i][j] == s.gamma_map(i)
            else:
                assert block[i][j].is_zero_literal


def test_high_generators_share_one_image():
    q = 4
    images = [gen(q, i).phi() for i in range(1, q)]
    assert all(m == images[0] for m in images)
    # the oracle of the certificate of _collapsed_thue_morse
    for q in range(3, 9):
        for i in range(2, q):
            assert is_zero(gen(q, i) - gen(q, 1)) == Verdict("zero", depth=1)


def test_collapse_high_letters_preserves_sign():
    q = 3
    elem = AlgebraElement.monomial(RATIONALS, q, ((2, -1), (0, 1)))
    assert elem.collapse_high_letters() == AlgebraElement.monomial(
        RATIONALS, q, ((1, -1), (0, 1)))


def _collapse_by_tuples(elem):
    """The oracle: ``collapse_high_letters`` as it was written, a new letter
    per letter."""
    return AlgebraElement(elem.ring, elem.q, elem.mode, (
        (tuple((min(i, 1), s) for i, s in w), c) for w, c in elem.terms.items()))


@given(st.integers(2, 5), st.sampled_from(("A", "B")),
       st.sampled_from((RATIONALS, INTEGERS, PrimeField(2))), st.data())
def test_collapse_high_letters_matches_the_tuple_building_map(q, mode, ring, data):
    # words that merge or cancel once collapsed, such as x2 x1^-1
    elem = data.draw(elements(q, max_terms=5, mode=mode, ring=ring))
    collapsed, expected = elem.collapse_high_letters(), _collapse_by_tuples(elem)
    assert list(collapsed.terms.items()) == list(expected.terms.items())


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
    block = sigma(s0, AlgebraElement.zero(RATIONALS, q)).phi()
    assert block[0][0] == s0
    assert block[1][1] == one(q) - gen(q, 1) * gen(q, 0)
    assert block[0][1].is_zero_literal and block[1][0].is_zero_literal


@given(st.sampled_from((2, 3)), st.data())
def test_sigma_block_structure(q, data):
    parts = [data.draw(elements(q, max_terms=2, max_len=3)) for _ in range(q)]
    block = sigma(*parts).phi()
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
    assert verdict.state == "nonzero" and not verdict.is_zero
    row, col, scalar = verdict.witness
    assert scalar == Fraction(-1)
    assert row == (0,) * len(row)
    assert len(row) == len(col) == verdict.depth
    assert str(verdict) == "nonzero(witness=(0,0), scalar=-1)"


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
                block = entry.phi()
                for i in range(q):
                    for j in range(q):
                        if not block[i][j].is_zero_literal:
                            grown[(u * q + i, v * q + j)] = block[i][j]
            oracle = grown
        assert sparse == oracle and list(sparse) == list(oracle)


def test_contraction_depth_of_tower_element():
    q = 2
    elem = one(q) - gen(q, 0) ** q
    assert contraction_depth(elem) == 2
    assert contraction_depth(one(q) - gen(q, 0)) == 0
    assert contraction_depth(gen(q, 0) * gen(q, 1)) == 1


def test_contraction_depth_cap():
    result = contraction_depth(one(2) - gen(2, 0) ** 4, cap_depth=0)
    assert result == Verdict.unknown(0, "cap_depth")
    assert str(result) == "unknown(cap=0)"


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


@pytest.mark.parametrize("size_cap", [0, -1])
def test_omega_enumerate_rejects_a_cap_below_1(size_cap):
    with pytest.raises(ValueError, match="size_cap must be at least 1"):
        omega_enumerate(RATIONALS, 2, 0, k_max=1, size_cap=size_cap)


@pytest.mark.parametrize("k_max", [-1, -2])
def test_omega_enumerate_rejects_a_negative_k_max(k_max):
    with pytest.raises(ValueError, match="k_max must be nonnegative"):
        omega_enumerate(RATIONALS, 2, 0, k_max=k_max)


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


def test_parse_element_rejects_a_coefficient_after_an_x_token():
    # x0^0 gives no letters, yet it is a letter token
    with pytest.raises(ValueError, match="coefficient '3' after letters"):
        parse_element("x0^0 3", RATIONALS, 3)


def test_parse_element_rejects_a_star_inside_an_exponent():
    for text in ("x1^*2", "x1^ * -2", "x1^-*2"):
        message = f"'*' between '^' and its exponent in {text!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_element(text, RATIONALS, 3)


def test_parse_element_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("x5", RATIONALS, 2)
    with pytest.raises(ValueError):
        parse_element("x0 +", RATIONALS, 2)
    with pytest.raises(ValueError):
        parse_element("", RATIONALS, 2)
    with pytest.raises(ValueError):
        parse_element("y0", RATIONALS, 2)


def parse_element_by_split_and_repair(text, ring, q, mode="B"):
    """The parser ``parse_element`` replaced, kept as its oracle: it splits
    the text around every sign and then glues split exponents back.  It
    rejects a ``*`` between ``^`` and its exponent and a coefficient after
    an ``x`` token, as ``parse_element`` now does."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty element")
    tokens = stripped.replace("*", " * ").replace("+", " + ").replace("-", " - ").split()
    fixed = []
    idx = 0
    while idx < len(tokens):
        tok = tokens[idx]
        after = tokens[idx + 1:idx + 3]
        if tok.endswith("^") and (after[:1] == ["*"] or after == ["-", "*"]):
            raise ValueError("'*' between '^' and its exponent")
        if tok == "*":
            idx += 1
        elif tok.endswith("^") and idx + 2 < len(tokens) and tokens[idx + 1] == "-":
            fixed.append(tok + "-" + tokens[idx + 2])
            idx += 3
        elif tok.endswith("^") and idx + 1 < len(tokens):
            fixed.append(tok + tokens[idx + 1])
            idx += 2
        else:
            fixed.append(tok)
            idx += 1
    groups = []
    sign = 1
    body = []
    seen_sign = False
    for tok in fixed:
        if tok in ("+", "-"):
            if body:
                groups.append((sign, body))
                body = []
                sign = 1
                seen_sign = False
            if tok == "-":
                sign = -sign
            seen_sign = True
        else:
            body.append(tok)
    if body:
        groups.append((sign, body))
    elif seen_sign:
        raise ValueError("trailing sign without a term")
    if not groups:
        raise ValueError("empty element")
    terms = []
    for sgn, toks in groups:
        coeff = ring.coerce(1)
        letters = []
        seen_x = False
        for tok in toks:
            if tok == "1":
                continue
            elif tok.startswith("x"):
                letters.extend(parse_word(tok, q))
                seen_x = True
            elif seen_x:
                raise ValueError(f"coefficient {tok!r} after letters")
            else:
                coeff = coeff * ring.coerce(tok)
        terms.append((tuple(letters), coeff if sgn > 0 else -coeff))
    return AlgebraElement(ring, q, mode, terms)


def element_texts():
    """Texts of signed terms, coefficients and letters with exponents, in
    any order, joined by spaces, ``*`` or nothing; x3 is outside q = 2, 3."""
    letter = st.builds("x{}{}".format, st.sampled_from([0, 0, 1, 1, 2, 3]),
                        st.sampled_from(["", "", "", "^2", "^-1", "^ -1", "^-2",
                                         "^ 3", "^0", "^ - 1", "^", "^+1"]))
    atom = st.one_of(letter, st.sampled_from(
        ["+", "-", "- -", "1", "2", "1/2", "0", "-2"]))
    gap = st.sampled_from([" ", " ", " ", "  ", "*", " * ", ""])
    return st.lists(st.tuples(atom, gap), max_size=8).map(
        lambda pairs: "".join(a + g for a, g in pairs))


@given(st.sampled_from((2, 3)),
       st.sampled_from((RATIONALS, INTEGERS, PrimeField(5))),
       st.sampled_from("AB"), element_texts())
@settings(max_examples=600, deadline=None)
def test_parse_element_matches_the_split_and_repair_oracle(q, ring, mode, text):
    try:
        expected = parse_element_by_split_and_repair(text, ring, q, mode)
    except ValueError:
        with pytest.raises(ValueError):
            parse_element(text, ring, q, mode)
    else:
        assert parse_element(text, ring, q, mode) == expected


@st.composite
def token_texts(draw):
    """Terms of a leading coefficient or none and ``parse_word`` tokens,
    joined by ``+`` and ``-``: letters mostly x0 and x1 with exponents of
    both signs, so that runs of one letter meet and cancel at the seams
    (``x0^3 x0^-3 x1``), the token ``1``, ``x0^0``, and x3, which is
    outside q = 2, 3."""
    power = st.builds("x{}^{}".format, st.sampled_from((0, 0, 0, 1, 1, 2, 3)),
                      st.integers(-3, 3))
    token = st.one_of(power, st.sampled_from(("1", "x0", "x1", "x0^-1")))
    term = st.tuples(st.sampled_from(("", "", "2", "1/2", "0", "3")),
                     st.lists(token, max_size=6)).filter(any)
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1,
                          max_size=4))
    return " ".join(f"{sign} {coeff} {' '.join(tokens)}"
                    for sign, (coeff, tokens) in terms), terms


def _parse_by_words(terms, ring, q, mode):
    """``parse_element``'s oracle on ``token_texts``: every term's tokens
    read by ``parse_word`` and its letters handed to the validating
    constructor."""
    pairs = []
    for sign, (coeff, tokens) in terms:
        c = ring.coerce(-1 if sign == "-" else 1)
        if coeff:
            c = c * ring.coerce(coeff)
        pairs.append((parse_word(" ".join(tokens), q), c))
    return AlgebraElement(ring, q, mode, pairs)


@given(st.sampled_from((2, 3)),
       st.sampled_from((RATIONALS, INTEGERS, PrimeField(3))),
       st.sampled_from("AB"), token_texts())
@settings(max_examples=600, deadline=None)
def test_parse_element_matches_the_validating_constructor(q, ring, mode, case):
    text, terms = case
    try:
        expected = _parse_by_words(terms, ring, q, mode)
    except ValueError as fault:
        with pytest.raises(type(fault)):
            parse_element(text, ring, q, mode)
        return
    s = parse_element(text, ring, q, mode)
    assert s == expected
    shared = shared_letters(q)
    assert all(letter is shared[letter] for word in s.terms for letter in word)


def test_parse_element_cancels_runs_at_the_seams():
    q = 3
    assert parse_element("x0^3 x0^-3 x1", RATIONALS, q) == gen(q, 1)
    assert parse_element("x1 x0^2 1 x0^-1 x0^-1 x1^-1", RATIONALS, q) == one(q)
    assert parse_element("2 x0^2 x1^0 x0 - x0^3", RATIONALS, q) == (
        AlgebraElement.monomial(RATIONALS, q, ((0, 1),) * 3))
    with pytest.raises(UnsupportedModeError):
        parse_element("x0^3 x0^-3", RATIONALS, q, "A")


@given(st.sampled_from((2, 3)), st.data())
def test_render_parse_roundtrip(q, data):
    s = data.draw(elements(q))
    assert parse_element(s.render(), RATIONALS, q) == s


def test_to_json_shape():
    payload = (one(2) - gen(2, 0)).to_json()
    assert payload["q"] == 2 and payload["mode"] == "B"
    assert len(payload["terms"]) == 2


# -- algebra laws ------------------------------------------------------------------


@given(st.sampled_from((2, 3)), st.sampled_from((RATIONALS, INTEGERS, PrimeField(5))),
       st.data())
def test_ring_axioms_sampled(q, ring, data):
    a = data.draw(elements(q, ring=ring))
    b = data.draw(elements(q, ring=ring))
    c = data.draw(elements(q, ring=ring))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == AlgebraElement.zero(ring, q)
    assert a * one(q, ring) == a and one(q, ring) * a == a


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
    assert _theta_map(s).gamma_map(1) == _theta_map(s.gamma_map(1))
    assert s.gamma_map(1).gamma_map(q - 1) == s


def test_power_matches_repeated_product():
    s = one(2) + gen(2, 0)
    assert s ** 3 == s * s * s
    assert s ** 0 == one(2)
    with pytest.raises(ValueError):
        s ** -1


# -- the class-graph walks against per-level frontier oracles ------------------


def _frontier_is_zero(s, cap_depth=60):
    """The oracle: one representative per scaling class on every level, with
    the first vertex pair that produced it, each level expanded afresh; a
    level whose classes were all seen before stops with unknown."""
    if s.is_zero_literal:
        return Verdict("zero", depth=0)
    frontier = {s.key(): (s, (), ())}
    seen = set(frontier)
    for depth in range(1, cap_depth + 1):
        grown = {}
        for rep, u, v in frontier.values():
            for i, row in enumerate(rep.phi()):
                for j, entry in enumerate(row):
                    if entry.is_zero_literal:
                        continue
                    if list(entry.terms) == [()]:
                        return Verdict("nonzero", depth=depth, witness=(
                            u + (i,), v + (j,), entry.terms[()]))
                    grown.setdefault(entry.key(), (entry, u + (i,), v + (j,)))
        if not grown:
            return Verdict("zero", depth=depth)
        if set(grown) <= seen:
            break
        seen |= set(grown)
        frontier = grown
    return Verdict.unknown(cap_depth, "cap_depth")


def _frontier_contraction_depth(s, cap_depth=12):
    frontier = {s.key(): s}
    for depth in range(cap_depth + 1):
        if all(len(w) <= 1 for rep in frontier.values() for w in rep.terms):
            return depth
        grown = {}
        for rep in frontier.values():
            for row in rep.phi():
                for entry in row:
                    if not entry.is_zero_literal:
                        grown.setdefault(entry.key(), entry)
        frontier = grown
    return Verdict.unknown(cap_depth, "cap_depth")


@st.composite
def walk_inputs(draw):
    """Elements over Q, Z, F2 and F3 in both modes, half of them shifted to
    coefficient sum zero, which makes zero and unknown verdicts common."""
    q = draw(st.sampled_from((2, 3, 4)))
    ring = draw(st.sampled_from((RATIONALS, INTEGERS, PrimeField(2),
                                 PrimeField(3))))
    mode = draw(st.sampled_from(("A", "B")))
    s = draw(elements(q, max_terms=4, mode=mode, ring=ring))
    if draw(st.booleans()):
        s = s - AlgebraElement.one(ring, q, mode).scale(sum(s.terms.values()))
    return s


@given(walk_inputs(), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_is_zero_matches_the_frontier_oracle(s, cap_depth):
    assert is_zero(s, cap_depth) == _frontier_is_zero(s, cap_depth)


def _two_pass_is_zero(s, cap_depth=60):
    """The oracle: ``is_zero`` as it walked each level twice, once to
    expand every class and check each child, then again by ``Closure.step``
    to build the next level with multiplicities that nothing reads."""
    if s.is_zero_literal:
        return Verdict("zero", depth=0)
    if list(s.terms) == [()] and cap_depth >= 1:
        return Verdict("nonzero", depth=1, witness=((0,), (0,), s.terms[()]))
    rec = _thue_morse(s.q)
    closure = _closure(_class_key(s), rec, s.ring)
    level = {0: 1}
    for depth in range(1, cap_depth + 1):
        for idx in level:
            for child in closure.expand(idx):
                key = closure.key(child)
                if len(key) == 1 and not key[0][0]:
                    route = closure.path(child)
                    pairs = [(canonical(w), c) for w, c in s.terms.items()]
                    for cell in route:
                        pairs = _grid(pairs, rec._fold_key)[cell]
                    scalar = s.ring.coerce(sum(c for w, c in pairs if not w))
                    rows, cols = zip(*route)
                    return Verdict("nonzero", depth=depth,
                                   witness=(rows, cols, scalar))
        level = closure.step(level)
        if not level:
            return Verdict("zero", depth=depth)
    return Verdict.unknown(cap_depth, "cap_depth")


@st.composite
def relation_products(draw):
    """a r b at q = 2 or 3, for a defining relation r of the algebra, which
    vanish a few levels down, plus, half of the time, a small element."""
    q = draw(st.sampled_from((2, 3)))
    small = elements(q, max_terms=2, max_len=3).filter(lambda e: e.terms)
    u = AlgebraElement.monomial(RATIONALS, q, ((0, 1), (1, -1)) * q)
    v = AlgebraElement.monomial(RATIONALS, q, ((1, -1), (0, 1)) * q)
    relation = draw(st.sampled_from(((u - one(q)) * (v - one(q)),
                                     gen(q, 1) ** q - one(q))))
    s = draw(small) * relation * draw(small)
    return s + draw(small) if draw(st.booleans()) else s


@given(st.one_of(walk_inputs(), relation_products()), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_is_zero_matches_the_two_pass_walk(s, cap_depth):
    """One pass per level gives the state, depth and witness of two."""
    verdict, expected = is_zero(s, cap_depth), _two_pass_is_zero(s, cap_depth)
    assert (verdict.state, verdict.depth, verdict.witness) == (
        expected.state, expected.depth, expected.witness)
    assert verdict == expected


@given(walk_inputs(), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_contraction_depth_matches_the_frontier_oracle(s, cap_depth):
    assert (contraction_depth(s, cap_depth)
            == _frontier_contraction_depth(s, cap_depth))


def test_scalar_root_witness_sits_below_the_root():
    verdict = is_zero(one(3).scale(2))
    assert verdict == Verdict("nonzero", depth=1, witness=((0,), (0,), 2))
    # the scalar is answered at depth 1, so a depth cap of 0 stops first
    assert is_zero(one(3).scale(2), cap_depth=0) == Verdict.unknown(0, "cap_depth")


# -- the constructor and key() against the accumulation they replaced -----------


def _summing_terms(ring, mode, terms):
    """The oracle: every word's coefficients summed from 0, then the total
    coerced (over Q, into a fresh Fraction) and dropped when zero."""
    sums = {}
    for word, coeff in terms:
        if mode == "B":
            word = free_reduce(word)
        sums[word] = sums.get(word, 0) + coeff
    coerce = Fraction if ring == RATIONALS else ring.coerce
    return {word: coeff for word, total in sums.items()
            if (coeff := coerce(total)) != 0}


def _normalizing_key(elem, scale=True):
    """The oracle: the lead coefficient is always normalized."""
    items = elem.sorted_terms()
    if scale and items:
        lead = items[0][1]
        if elem.ring.is_field:
            inv = elem.ring.invert(lead)
            items = tuple((w, elem.ring.coerce(c * inv)) for w, c in items)
        elif lead < 0:
            items = tuple((w, -c) for w, c in items)
    return items


def _typed(pairs):
    return [(w, type(c), c) for w, c in pairs]


@st.composite
def colliding_terms(draw):
    """Term lists over a small pool of words, so equal and mutually
    cancelling words are common, with some terms repeated negated."""
    q = draw(st.sampled_from((2, 3)))
    ring = draw(st.sampled_from((RATIONALS, INTEGERS, PrimeField(5))))
    mode = draw(st.sampled_from(("A", "B")))
    sign = (1, -1) if mode == "B" else (1,)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from(sign))
    pool = draw(st.lists(st.lists(letter, max_size=3).map(tuple),
                         min_size=1, max_size=4))
    coeff = st.integers(-6, 6)
    if ring == RATIONALS:
        coeff = st.one_of(coeff, st.fractions(max_denominator=4))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coeff),
                          max_size=8))
    negated = draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []
    return ring, q, mode, terms + [(w, -c) for w, c in negated]


@given(colliding_terms())
@settings(max_examples=400, deadline=None)
def test_constructor_and_key_match_the_summing_oracles(case):
    ring, q, mode, terms = case
    elem = AlgebraElement(ring, q, mode, terms)
    assert (_typed(elem.terms.items())
            == _typed(_summing_terms(ring, mode, terms).items()))
    for scale in (True, False):
        assert _typed(elem.key(scale)) == _typed(_normalizing_key(elem, scale))


@given(st.sampled_from((2, 3, 4)), st.sampled_from(("A", "B")),
       st.sampled_from((RATIONALS, INTEGERS, PrimeField(2), PrimeField(3))),
       st.integers(-5, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_gamma_map_matches_the_validating_constructor(q, mode, ring, shift,
                                                      data):
    s = data.draw(elements(q, max_terms=4, mode=mode, ring=ring))
    expected = AlgebraElement(ring, q, mode, [
        (gamma(w, shift, q), c) for w, c in s.terms.items()])
    shifted = s.gamma_map(shift)
    assert shifted == expected
    assert _typed(shifted.terms.items()) == _typed(expected.terms.items())


@given(st.sampled_from((2, 3, 4)), st.sampled_from(("A", "B")),
       st.sampled_from((RATIONALS, INTEGERS, PrimeField(5))), st.data())
@settings(max_examples=150, deadline=None)
def test_empty_phi_cells_are_the_zero_element(q, mode, ring, data):
    elem = data.draw(elements(q, max_terms=4, mode=mode, ring=ring))
    zero = AlgebraElement.zero(ring, q, mode)
    fold = WreathRecursion.thue_morse(q).fold
    filled = {(a, perm[a]) for perm, _ in map(fold, elem.terms) for a in range(q)}
    for a, row in enumerate(elem.phi()):
        for b, cell in enumerate(row):
            if (a, b) not in filled:
                assert cell.is_zero_literal and cell == zero


@given(colliding_terms(), st.data())
@settings(max_examples=200, deadline=None)
def test_sub_matches_adding_the_negation(case, data):
    ring, q, mode, terms = case
    a = AlgebraElement(ring, q, mode, terms)
    b = AlgebraElement(ring, q, mode, data.draw(st.lists(
        st.sampled_from(terms), max_size=6)) if terms else [])
    for left, right in ((a, b), (b, a), (a, a)):
        assert (_typed((left - right).terms.items())
                == _typed((left + (-right)).terms.items()))


# -- phi's cells against the validating constructor --------------------------------


@st.composite
def fold_cases(draw):
    """Elements over a small pool of words in which x_1, ..., x_{q-1} are
    common: those letters share one image, so distinct words often land in
    one cell with one section, where they sum or cancel."""
    q = draw(st.integers(2, 5))
    ring = draw(st.sampled_from((RATIONALS, INTEGERS, PrimeField(5))))
    mode = draw(st.sampled_from(("A", "B")))
    sign = (1, -1) if mode == "B" else (1,)
    letter = st.tuples(st.sampled_from((0, 1, q - 1)), st.sampled_from(sign))
    pool = draw(st.lists(st.lists(letter, max_size=4).map(tuple),
                         min_size=1, max_size=5))
    coeff = st.integers(-3, 3)
    if ring == RATIONALS:
        coeff = st.one_of(coeff, st.fractions(max_denominator=3))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=6))
    return AlgebraElement(ring, q, mode, terms)


def _validated_cells(elem, fold):
    """The oracle: the fold's (section, coefficient) pairs of each cell fed
    to the validating constructor."""
    grid = {}
    for word, coeff in elem.terms.items():
        perm, sections = fold(word)
        for a, section in enumerate(sections):
            grid.setdefault((a, perm[a]), []).append((section, coeff))
    return {cell: AlgebraElement(elem.ring, elem.q, elem.mode, pairs)
            for cell, pairs in grid.items()}


@given(fold_cases())
@settings(max_examples=400, deadline=None)
def test_phi_cells_match_the_validating_constructor(elem):
    for rec in (_thue_morse(elem.q), _collapsed_thue_morse(elem.q)):
        cells = _phi_cells(elem, rec.fold)
        oracle = _validated_cells(elem, rec.fold)
        assert list(cells) == list(oracle)
        for cell, entry in cells.items():
            assert (_typed(entry.terms.items())
                    == _typed(oracle[cell].terms.items()))
            for scale in (True, False):
                assert _typed(entry.key(scale)) == _typed(oracle[cell].key(scale))


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, PrimeField(5)])
def test_phi_cells_sum_and_cancel_colliding_words(ring):
    q = 3
    x0, x1, x2 = ((0, 1),), ((1, 1),), ((2, 1),)
    # x1 and x2 have one image, so every cell of x1 - x2 cancels
    cells = _phi_cells(AlgebraElement(ring, q, "B", {x1: 1, x2: -1}),
                       _thue_morse(q).fold)
    assert len(cells) == q and all(e.is_zero_literal for e in cells.values())
    # x0 x1 and x0 x2 share every cell, where their coefficients sum
    elem = AlgebraElement(ring, q, "B", {x0 + x1: 2, x0 + x2: 4})
    cells = _phi_cells(elem, _thue_morse(q).fold)
    assert {cell: entry.terms for cell, entry in cells.items()} == {
        (a, (a - 2) % q): {((a, 1),): ring.coerce(6)} for a in range(q)}
    # the collapsed recursion also merges x0 x1 x2^-1 with x0
    elem = AlgebraElement(ring, q, "B", {x0 + x1 + ((2, -1),): 1, x0: -1})
    cells = _phi_cells(elem, _collapsed_thue_morse(q).fold)
    assert all(e.is_zero_literal for e in cells.values())


def test_phi_reduces_no_word_again():
    elem = parse_element("x0 x1 x0^-1 - 2*x2^-1 x0 + 3", RATIONALS, 3)
    with mock.patch("tmss.algebra.free_reduce") as spy:
        block = elem.phi()
    spy.assert_not_called()
    assert [[cell.render() for cell in row] for row in block] == [
        ["3 - 2*x1", "0", "x0 x2^-1"],
        ["x1 x0^-1", "3 - 2*x2", "0"],
        ["0", "x2 x1^-1", "3 - 2*x0"],
    ]


def test_collapsed_recursion_certificate_raises():
    # a check, not an assert, so python -O keeps it; the cache is bypassed.
    # In the inverted variant x2 and x1 swap different strands.
    with mock.patch.object(algebra, "_thue_morse",
                           return_value=WreathRecursion.inverted_variant(3)):
        with pytest.raises(RuntimeError,
                           match="x2 and x1 have different images"):
            _collapsed_thue_morse.__wrapped__(3)
    assert _collapsed_thue_morse.__wrapped__(3).q == 3


# -- the operations against the validating constructor ---------------------------


@st.composite
def operation_cases(draw):
    """Two elements over a small pool of words, so that sums cancel and
    products collide, in one of the algebras the operations serve."""
    q = draw(st.integers(2, 5))
    ring = draw(st.sampled_from((RATIONALS, INTEGERS, PrimeField(2),
                                 PrimeField(3))))
    mode = draw(st.sampled_from(("A", "B")))
    sign = (1, -1) if mode == "B" else (1,)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from(sign))
    pool = draw(st.lists(st.lists(letter, max_size=4).map(tuple),
                         min_size=1, max_size=4))
    coeff = st.integers(-4, 4)
    if ring == RATIONALS:
        coeff = st.one_of(coeff, st.fractions(max_denominator=3))
    terms = st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=5)
    a = AlgebraElement(ring, q, mode, draw(terms))
    b = AlgebraElement(ring, q, mode, draw(terms))
    return a, b, draw(st.integers(-3, 3))


def _oracle(like, pairs):
    return AlgebraElement(like.ring, like.q, like.mode, list(pairs))


def _pairs(elem, factor=1):
    return [(w, factor * c) for w, c in elem.terms.items()]


@given(operation_cases())
@settings(max_examples=300, deadline=None)
def test_operations_match_the_validating_constructor(case):
    a, b, k = case
    ring, q, mode = a.ring, a.q, a.mode
    products = [(wa + wb, ca * cb) for wa, ca in a.terms.items()
                for wb, cb in b.terms.items()]
    components = ([a, b] * q)[:q]
    pinned = [
        (a + b, _pairs(a) + _pairs(b)),
        (a - b, _pairs(a) + _pairs(b, -1)),
        (-a, _pairs(a, -1)),
        (a * b, products),
        (a.collapse_high_letters(),
         [(tuple((min(i, 1), s) for i, s in w), c) for w, c in a.terms.items()]),
        (a.gamma_map(k), [(gamma(w, k, q), c) for w, c in a.terms.items()]),
        (sigma(*components), [(((1, 1),) * m + theta(w, q), c)
                              for m, s in enumerate(components)
                              for w, c in s.terms.items()]),
    ]
    pinned += [(a.scale(n), _pairs(a, n)) for n in range(-3, 4)]
    if mode == "B":
        pinned.append((a.star(), [(free_reduce(tuple((i, -s) for i, s in
                                                     reversed(w))), c)
                                  for w, c in a.terms.items()]))
    power = _oracle(a, [((), 1)])
    for n in range(3):
        pinned.append((a ** n, list(power.terms.items())))
        power = _oracle(a, [(wp + wa, cp * ca) for wp, cp in power.terms.items()
                            for wa, ca in a.terms.items()])
    level, shift = abs(k) % 3, k % q
    pinned.append((omega_generator(ring, q, shift, level, mode),
                   [((), 1), (gamma(big_product_word(q) * q ** level, shift, q), -1)]))
    shared = shared_letters(q)
    for built, pairs in pinned:
        expected = _oracle(a, pairs)
        assert _typed(built.terms.items()) == _typed(expected.terms.items())
        # every letter of a built word is the alphabet's one shared letter
        assert all(letter is shared[letter]
                   for word in built.terms for letter in word)


def test_derived_letter_maps_write_the_shared_letters_after_70_alphabets():
    """``shared_letters`` keeps the maps of 64 alphabets, and every letter
    map derived from one keeps it too: after 70 alphabets, the words that
    ``gamma_map``, ``sigma``, ``omega_generator``, ``star``,
    ``collapse_high_letters`` and ``fold`` write at q = 2 and 3 are still
    made of ``shared_letters(q)``'s objects."""
    def built(q):
        x = omega_generator(RATIONALS, q, 1, 0)
        y = parse_element("x0 x1^-1 - 2", RATIONALS, q)
        words_out = [w for elem in (
            x, x.gamma_map(1), sigma(*[y] * q), y.star(),
            y.collapse_high_letters(), omega_generator(RATIONALS, q, 0, 1))
            for w in elem.terms]
        return words_out + list(_thue_morse(q).fold(((0, 1), (1, -1)) * 3)[1])

    for q in (2, 3):
        built(q)  # every derived map of q is filled before the others
    for q in range(4, 74):
        shared_letters(q)
    for q in (2, 3):
        shared = shared_letters(q)
        assert all(letter is shared[letter] for w in built(q) for letter in w)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, PrimeField(2)])
def test_letters_enter_as_shared_normalized_pairs(ring):
    q = 3
    elem = AlgebraElement.monomial(ring, q, ((0, True), (True, 1), (2, -1.0)))
    (word,) = elem.terms
    assert word == ((0, 1), (1, 1), (2, -1))
    assert all(type(i) is int and type(sign) is int for i, sign in word)
    assert all(letter is shared_letters(q)[letter] for letter in word)
    # a letter first met as (0, True) is stored as (0, 1) too
    fresh = words._new_alphabet(q)
    assert [fresh[0, True], fresh[True, -1.0]] == [(0, 1), (1, -1)]
    assert all(type(x) is int for letter in fresh.values() for x in letter)
    # equal letters of separately built words are one object
    other = parse_element("x1 x0", ring, q)
    assert next(iter(other.terms))[1] is word[0]
    with pytest.raises(ValueError, match="letter x1.5 is outside"):
        AlgebraElement.monomial(ring, q, ((1.5, 1),))
