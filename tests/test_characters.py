"""Self-similar characters: spread values, counting, additivity, witnesses."""

import gc
import random
import weakref
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import strategies
from tmss import algebra, characters, group
from tmss.algebra import (
    INTEGERS,
    RATIONALS,
    AlgebraElement,
    PrimeField,
    _cell_children,
    _class_key,
    _collapsed_key,
    _collapsed_thue_morse,
    _phi_cells,
    _thue_morse,
    big_product_word,
    contraction_depth,
    is_zero,
    omega_enumerate,
    omega_generator,
    parse_element,
    phi_iterate,
    sigma,
)
from tmss.characters import (
    Kernel,
    additivity_check,
    algebra_char,
    count_L,
    exact_json,
    group_char,
    growth_constant,
    q_power_denominator,
    render_exact,
    spread_char,
    theorem_witness,
)
from tmss.closure import Closure, SingularSystemError, _solve_system
from tmss.group import (
    _POWER_MIN,
    Permutation,
    Power,
    WreathElement,
    WreathRecursion,
    _expanded,
    canonical,
)
from tmss.verdict import ClassExplosionError, Verdict
from tmss.words import free_reduce, gamma, power as word_power


def one(q):
    return AlgebraElement.one(RATIONALS, q)


def gen(q, i):
    return AlgebraElement.generator(RATIONALS, q, i)


def tower(q, k):
    word = word_power(((0, 1),), q ** k)
    return one(q) - AlgebraElement.monomial(RATIONALS, q, word)


def fixed_fraction(rec, word, depth):
    total = 0
    fixed = 0
    for v in product(range(rec.q), repeat=depth):
        total += 1
        if rec.act(word, v) == v:
            fixed += 1
    return Fraction(fixed, total)


elements = partial(strategies.elements, max_terms=3, max_len=3, coeff=2)


# -- spread values on the tower -------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_tower_values(q):
    for k in range(1, 4):
        assert spread_char(tower(q, k)) == Fraction(2, q ** (k - 1))


@pytest.mark.parametrize("q", [2, 3])
def test_shifted_product_values(q):
    for k in range(3):
        for i in range(q):
            elem = omega_generator(RATIONALS, q, i, k)
            assert spread_char(elem) == Fraction(2, q ** k)


# past the benchmark's k <= 5: long powers fold through their root
@pytest.mark.parametrize("q,k", [(2, 10), (3, 10), (5, 7)])
def test_deep_tower_values(q, k):
    assert spread_char(tower(q, k)) == Fraction(2, q ** (k - 1))
    assert spread_char(omega_generator(RATIONALS, q, 1, k)) == Fraction(2, q ** k)


def test_spread_denominator_may_drop_below_a_power_of_q():
    # at q = 4 the value 6/4 is 3/2: in Z[1/4], but 2 is no power of 4
    s = parse_element("-2*x0^-2 + 2*x3^-1 x0^2 x3", RATIONALS, 4)
    expected = algebra_char(s, Kernel.ones(4), monomial_base=True)
    assert expected == Fraction(3, 2)
    assert spread_char(s) == expected
    assert q_power_denominator(expected, 4) is None


@pytest.mark.parametrize("value", [Fraction(-1, 4), Fraction(1, 3)],
                         ids=["negative", "outside-Z[1/2]"])
def test_spread_value_certificate_raises(value):
    # a check, not an assert, so python -O keeps it
    info = {"classes_used": 1, "depth": 0, "largest_component": 1}
    with mock.patch.object(characters, "_closure_value",
                           return_value=(value, info)):
        with pytest.raises(RuntimeError, match="escapes nonnegative values"):
            spread_char(gen(2, 0))


def test_base_values():
    q = 2
    assert spread_char(one(q)) == 1
    assert spread_char(gen(q, 0)) == 1
    assert spread_char(one(q) - gen(q, 1)) == 2
    assert spread_char(one(q) - gen(q, 0)) == 2


def test_spread_of_zero():
    assert spread_char(AlgebraElement.zero(RATIONALS, 2)) == 0


@given(st.sampled_from((2, 3)), st.data())
@settings(max_examples=25, deadline=None)
def test_spread_is_scale_invariant(q, data):
    s = data.draw(elements(q))
    assert spread_char(s.scale(Fraction(7, 3))) == spread_char(s)
    assert spread_char(-s) == spread_char(s)


@given(st.sampled_from((2, 3)), st.data())
@settings(max_examples=25, deadline=None)
def test_spread_value_containment(q, data):
    s = data.draw(elements(q))
    value = spread_char(s, cap_classes=20_000)
    if isinstance(value, Verdict):
        assert value == Verdict.unknown(20_000, "cap_classes")
        return
    assert value >= 0
    assert q_power_denominator(value, q) is not None


@given(st.sampled_from((2, 3)), st.data())
@settings(max_examples=15, deadline=None)
def test_spread_agrees_when_monomials_expand(q, data):
    s = data.draw(elements(q, max_terms=2, max_len=2))
    assert spread_char(s) == algebra_char(s, Kernel.ones(q), monomial_base=False)


def test_monomial_spread_is_one():
    elem = AlgebraElement.monomial(RATIONALS, 2, ((0, 1), (1, -1)),
                                   coeff=Fraction(-5))
    assert spread_char(elem) == 1


@pytest.mark.parametrize("q", [2, 3])
def test_spread_is_shift_invariant_on_products(q):
    for k in range(2):
        base = omega_generator(RATIONALS, q, 0, k)
        for i in range(1, q):
            assert spread_char(base.gamma_map(i)) == spread_char(base)


def test_unknown_on_tiny_cap():
    result = algebra_char(one(2) - gen(2, 0) ** 2, Kernel.ones(2),
                          cap_classes=2)
    assert result == Verdict.unknown(2, "cap_classes")
    assert str(result) == "unknown(cap=2)"


def test_spread_info_payload():
    value, info = spread_char(one(2) - gen(2, 0) ** 2, with_info=True)
    assert value == 2
    assert info == {"classes_used": 8, "depth": 3, "largest_component": 1}


def test_integral_values_are_fractions():
    rec = WreathRecursion.thue_morse(2)
    s = one(2) - gen(2, 0) ** 2
    values = [
        spread_char(s), spread_char(s, with_info=True)[0], spread_char(one(2)),
        algebra_char(s, Kernel.ones(2)), algebra_char(s, Kernel.identity(2)),
        algebra_char(one(2), Kernel.identity(2), with_info=True)[0],
        group_char(rec, ()), group_char(rec, ((1, 1), (1, 1))),
        group_char(rec, ((0, 1),), with_info=True)[0],
        group_char(rec, ((0, 1),), Kernel.ones(2)),
    ]
    assert [v.denominator for v in values] == [1] * len(values)
    assert all(type(v) is Fraction for v in values)


# -- group characters -----------------------------------------------------------


def test_fixed_point_character_pins():
    rec = WreathRecursion.thue_morse(2)
    assert group_char(rec, ()) == 1
    assert group_char(rec, ((1, 1), (1, 1))) == 1
    assert group_char(rec, ((1, 1),)) == 0
    assert group_char(rec, ((0, 1),)) == 0
    assert group_char(rec, ((0, 1), (0, 1))) == 0


def test_group_character_against_orbit_count():
    rec = WreathRecursion.thue_morse(2)
    words = [(), ((1, 1),), ((0, 1),), ((0, 1), (0, 1)),
             ((1, 1), (0, 1)), ((0, 1), (1, -1), (0, 1)),
             ((1, 1), (1, 1), (0, 1))]
    for w in words:
        chi = group_char(rec, w)
        if 2 ** 8 % Fraction(chi).denominator == 0:
            assert chi == fixed_fraction(rec, w, 8)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_all_ones_kernel_gives_trivial_character(data):
    q = 2
    rec = WreathRecursion.thue_morse(q)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from((1, -1)))
    w = tuple(data.draw(st.lists(letter, max_size=5)))
    assert group_char(rec, w, Kernel.ones(q)) == 1


def _kernels(q):
    """The identity and all-ones kernels, and random ones whose entries are
    negative, zero, integral or not, so Fraction weights and pivots reach
    the solve."""
    entry = st.sampled_from((-1, 0, Fraction(1, 2), 1, Fraction(3, 2), 2))
    random_kernel = st.lists(st.lists(entry, min_size=q, max_size=q),
                             min_size=q, max_size=q).map(Kernel)
    return st.one_of(st.just(Kernel.identity(q)), st.just(Kernel.ones(q)),
                     random_kernel)


def _value_or_singular(compute):
    try:
        return compute()
    except SingularSystemError:
        return "singular"


@given(st.sampled_from((2, 3, 4)), st.data())
@settings(max_examples=60, deadline=None)
def test_algebra_and_group_characters_agree_on_monomials(q, data):
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from((1, -1)))
    w = tuple(data.draw(st.lists(letter, max_size=5)))
    kernel = data.draw(_kernels(q))
    c = data.draw(st.sampled_from((Fraction(1), Fraction(-3), Fraction(2, 5))))
    monomial = AlgebraElement.monomial(RATIONALS, q, w, coeff=c)
    rec = WreathRecursion.thue_morse(q)
    assert (_value_or_singular(lambda: algebra_char(monomial, kernel))
            == _value_or_singular(lambda: group_char(rec, w, kernel)))


def _group_char_on_words(rec, word, kernel, cap_classes, with_info):
    """``group_char``'s oracle, the closure it replaced: a class is a freely
    reduced word, the empty word is the base, and strand a of a word's fold
    is a child of weight k(a, perm(a)) unless that weight is 0."""

    def children(w):
        if not w:
            return None
        images, sections = rec.fold(w)
        return [(sections[a], kernel[a, images[a]], a)
                for a in range(rec.q) if kernel[a, images[a]] != 0]

    try:
        result = Closure(free_reduce(word), children, cap_classes).solve(rec.q)
    except ClassExplosionError:
        result = Verdict.unknown(cap_classes, "cap_classes"), None
    return result if with_info else result[0]


@given(st.sampled_from((2, 3, 4)),
       st.sampled_from(("thue_morse", "inverted_variant", "transposed_variant")),
       st.sampled_from((3, 10_000)), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_group_char_matches_the_word_closure(q, preset, cap, with_info, data):
    rec = getattr(WreathRecursion, preset)(q)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from((1, -1)))
    w = tuple(data.draw(st.lists(letter, max_size=6)))
    entry = st.sampled_from((0, 0, 1, 1, -1, 2, Fraction(1, 2)))
    random_kernel = st.lists(st.lists(entry, min_size=q, max_size=q),
                             min_size=q, max_size=q).map(Kernel)
    kernel = data.draw(st.one_of(st.just(Kernel.identity(q)),
                                 st.just(Kernel.ones(q)), random_kernel))
    assert (_value_or_singular(
        lambda: group_char(rec, w, kernel, cap, with_info=with_info))
        == _value_or_singular(
        lambda: _group_char_on_words(rec, w, kernel, cap, with_info)))


# -- the component-wise solve against one dense elimination -------------------


@contextmanager
def _recorded_closures():
    """Collect every (Closure, q) that ``solve`` is called on."""
    seen = []
    solve = Closure.solve

    def recording_solve(closure, q):
        seen.append((closure, q))
        return solve(closure, q)

    with mock.patch.object(Closure, "solve", recording_solve):
        yield seen


def _dense_root_value(closure, q):
    """The oracle: one row per class of a finished closure, solved by a
    single elimination over the whole system."""
    rows = []
    for idx in range(len(closure.keys)):
        edges = closure.edges[idx]
        if edges is None:
            rows.append(({idx: Fraction(1)}, Fraction(1)))
            continue
        coeffs = {idx: Fraction(q)}
        for child, weight in edges.items():
            coeffs[child] = coeffs.get(child, Fraction(0)) - weight
        rows.append((coeffs, Fraction(0)))
    return _solve_system(len(rows), rows)[0]


def _solved_like_the_oracle(compute):
    """Run ``compute`` and check its value, or its SingularSystemError,
    against the dense oracle on the closure it solved; that closure, or
    None when nothing was solved or the class cap was hit."""
    with _recorded_closures() as seen:
        result = _value_or_singular(compute)
    if not seen or isinstance(result, Verdict):
        return None
    (closure, q), = seen
    assert result == _value_or_singular(lambda: _dense_root_value(closure, q))
    return closure


def _has_self_loop(closure):
    return any(idx in (edges or ()) for idx, edges in closure.edges.items())


@given(st.sampled_from((2, 3)), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_algebra_solve_matches_the_dense_oracle(q, monomial_base, data):
    s = data.draw(elements(q))
    kernel = data.draw(_kernels(q))
    _solved_like_the_oracle(lambda: spread_char(s))
    _solved_like_the_oracle(
        lambda: algebra_char(s, kernel, monomial_base=monomial_base))


@given(st.sampled_from((2, 3, 4)),
       st.sampled_from(("thue_morse", "inverted_variant", "transposed_variant")),
       st.data())
@settings(max_examples=80, deadline=None)
def test_group_solve_matches_the_dense_oracle(q, preset, data):
    rec = getattr(WreathRecursion, preset)(q)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from((1, -1)))
    w = tuple(data.draw(st.lists(letter, max_size=6)))
    for kernel in (Kernel.identity(q), Kernel.ones(q)):
        _solved_like_the_oracle(lambda: group_char(rec, w, kernel))


def test_solve_takes_a_self_loop():
    rec = WreathRecursion.thue_morse(2)
    closure = _solved_like_the_oracle(
        lambda: group_char(rec, ((0, 1),), Kernel.ones(2)))
    assert _has_self_loop(closure)
    assert group_char(rec, ((0, 1),), Kernel.ones(2), with_info=True) == (
        1, {"classes_used": 3, "depth": 2, "largest_component": 1})


def test_solve_takes_a_two_class_cycle():
    rec = WreathRecursion.inverted_variant(2)
    closure = _solved_like_the_oracle(
        lambda: group_char(rec, ((0, 1),), Kernel.ones(2)))
    assert not _has_self_loop(closure)
    assert group_char(rec, ((0, 1),), Kernel.ones(2), with_info=True) == (
        1, {"classes_used": 5, "depth": 2, "largest_component": 2})


def test_singular_self_loop_raises():
    rec = WreathRecursion.thue_morse(2)
    kernel = Kernel([[0, 2], [0, 0]])
    closure = _solved_like_the_oracle(lambda: group_char(rec, ((0, 1),), kernel))
    assert _has_self_loop(closure)
    with pytest.raises(SingularSystemError):
        group_char(rec, ((0, 1),), kernel)


def test_solve_needs_no_recursion_on_a_long_chain():
    # class i has a self-loop and one child i + 1, so
    # 3 chi(i) = chi(i) + chi(i + 1) and chi(0) = 2^-n
    n = 5_000

    def children(i):
        return None if i == n else [(i, 1, 0), (i + 1, 1, 1)]

    value, info = Closure(0, children, cap_classes=n + 1).solve(3)
    assert value == Fraction(1, 2 ** n)
    assert info == {"classes_used": n + 1, "depth": n, "largest_component": 1}


def test_group_character_unknown_on_cap():
    rec = WreathRecursion.thue_morse(2)
    result = group_char(rec, ((1, 1), (1, 1)), cap_classes=1)
    assert result == Verdict.unknown(1, "cap_classes")


def test_asymmetric_kernel_can_be_singular():
    rec = WreathRecursion.thue_morse(2)
    with pytest.raises(SingularSystemError):
        group_char(rec, ((0, 1),), Kernel([[1, 2], [0, 1]]))


def test_zero_kernel_zeroes_nontrivial_words():
    rec = WreathRecursion.thue_morse(2)
    assert group_char(rec, ((0, 1),), Kernel([[0, 0], [0, 0]])) == 0


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel([[1, 2], [3]])
    rec = WreathRecursion.thue_morse(2)
    with pytest.raises(ValueError):
        group_char(rec, ((0, 1),), Kernel.ones(3))


@pytest.mark.parametrize("entries", [
    5, [1, 2], [[1, 2], "ab"], [[1, None], [1, 1]], [[1, True], [1, 1]],
    [[1, [1]], [1, 1]], [[1, float("inf")], [1, 1]], [[1, "x"], [1, 1]],
])
def test_kernel_rejects_malformed_entries(entries):
    with pytest.raises(ValueError, match="kernel"):
        Kernel(entries)


def test_kernel_keeps_integral_weights_as_ints():
    kernel = Kernel([[1, "1/2"], [Fraction(4, 2), -1.0]])
    assert kernel.weights == ((1, Fraction(1, 2)), (2, -1))
    assert [type(w) for row in kernel.weights for w in row] == [
        int, Fraction, int, int]
    assert all(type(e) is Fraction for row in kernel.entries for e in row)
    assert type(kernel[0, 0]) is Fraction and kernel[1, 0] == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_the_identity_kernel_is_the_parsed_one(q):
    kernel = Kernel.identity(q)
    parsed = Kernel([[1 if i == j else 0 for j in range(q)] for i in range(q)])
    assert kernel.q == parsed.q == q
    for mine, theirs in ((kernel.entries, parsed.entries),
                         (kernel.weights, parsed.weights)):
        assert mine == theirs
        assert [type(e) for row in mine for e in row] == [
            type(e) for row in theirs for e in row]
    assert len({id(e) for row in kernel.entries for e in row}) == 2


def test_psd_report():
    assert Kernel.ones(3).psd_report() == {"symmetric": True, "psd": True}
    assert Kernel.identity(3).psd_report() == {"symmetric": True, "psd": True}
    assert Kernel([[1, 3], [3, 1]]).psd_report()["psd"] is False
    assert Kernel([[1, 2], [0, 1]]).psd_report()["symmetric"] is False
    assert Kernel([[1, 1], [1, 1]]).psd_report()["psd"] is True
    assert Kernel([[0, 1], [1, 0]]).psd_report()["psd"] is False
    assert Kernel.ones(10).psd_report() == {"symmetric": True, "psd": True}
    for q in range(2, 9):  # Kernel.ones is answered with no matrix built
        dense = Kernel([[1] * q] * q)
        assert Kernel.ones(q).psd_report() == dense.psd_report()


def _principal_minors_nonnegative(entries):
    sympy = pytest.importorskip("sympy")
    q = len(entries)
    sym = sympy.Matrix(q, q, lambda i, j: sympy.Rational(
        entries[i][j] + entries[j][i], 2))
    return all(sym.extract(list(rows), list(rows)).det() >= 0
               for r in range(1, q + 1) for rows in combinations(range(q), r))


@given(st.integers(1, 4), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_psd_report_matches_principal_minors(q, gram, data):
    entry = st.integers(-2, 2)
    if gram:
        # B B^T is positive semidefinite, and singular when B has few columns
        r = data.draw(st.integers(1, q))
        b = [[data.draw(entry) for _ in range(r)] for _ in range(q)]
        entries = [[sum(b[i][t] * b[j][t] for t in range(r)) for j in range(q)]
                   for i in range(q)]
    else:
        entries = [[data.draw(entry) for _ in range(q)] for _ in range(q)]
    assert (Kernel(entries).psd_report()["psd"]
            == _principal_minors_nonnegative(entries))


# -- counting ---------------------------------------------------------------------


def test_count_sequence_for_tower_element():
    s = tower(2, 1)
    assert [count_L(s, k) for k in range(7)] == [0, 0, 0, 16, 32, 64, 128]


def test_count_of_monomials_fills_every_level():
    q = 2
    for k in range(5):
        assert count_L(gen(q, 0), k) == q ** k
        assert count_L(one(q), k) == q ** k


def test_count_of_zero():
    assert count_L(AlgebraElement.zero(RATIONALS, 2), 3) == 0


def test_count_rejects_negative_depth():
    with pytest.raises(ValueError):
        count_L(one(2), -1)


def _count_countable_entries(s, k):
    """count_L's oracle: collapse x_i to x_1 in every entry of the explicit
    q^k x q^k matrix phi^k(s), reduce, and keep nonzero multiples of 1, x_0
    or x_1."""
    total = 0
    for entry in phi_iterate(s, k).values():
        collapsed = {}
        for word, coeff in entry.terms.items():
            w = free_reduce(tuple((min(i, 1), sign) for i, sign in word))
            collapsed[w] = collapsed.get(w, 0) + coeff
        nonzero = [w for w, coeff in collapsed.items() if coeff != 0]
        total += len(nonzero) == 1 and len(nonzero[0]) <= 1
    return total


@given(st.sampled_from((2, 3)), st.data())
@settings(max_examples=40, deadline=None)
def test_count_matches_explicit_matrix(q, data):
    s = data.draw(elements(q, max_terms=3).filter(lambda e: e.terms))
    k = data.draw(st.integers(0, 4 if q == 2 else 3))
    assert count_L(s, k) == _count_countable_entries(s, k)


def test_count_explosion_reports_classes():
    elem = one(2) - AlgebraElement.monomial(
        RATIONALS, 2, ((0, 1), (1, 1), (0, 1), (1, -1)))
    assert count_L(elem, 6, cap_classes=3) == Verdict.unknown(3, "cap_classes")
    assert count_L(elem, 6) == _count_countable_entries(elem, 6)


def _count_collapsing_after_phi(s, k, cap_classes=10_000):
    """count_L's oracle, the walk it replaced: every nonzero entry of
    ``phi`` is collapsed (x_i -> x_1 for i >= 2) after it is built, so an
    entry that collapses to zero still gets a class."""
    collapsed = s.collapse_high_letters()
    if collapsed.is_zero_literal:
        return 0

    def children(key):
        elem = AlgebraElement(s.ring, s.q, s.mode, key)
        entries = (entry.collapse_high_letters() for row in elem.phi()
                   for entry in row if not entry.is_zero_literal)
        return [(entry.key(), 1, None) for entry in entries]

    try:
        closure = Closure(collapsed.key(), children, cap_classes)
        counts = {0: 1}
        for _ in range(k):
            counts = closure.step(counts)
    except ClassExplosionError:
        return Verdict.unknown(cap_classes, "cap_classes")
    return sum(m for idx, m in counts.items()
               if len(closure.keys[idx]) == 1
               and len(closure.keys[idx][0][0]) <= 1)


@st.composite
def counting_cases(draw):
    q = draw(st.integers(2, 4))
    ring = draw(st.sampled_from((RATIONALS, INTEGERS, PrimeField(2), PrimeField(3))))
    mode = draw(st.sampled_from(("A", "B")))
    sign = (1, -1) if mode == "B" else (1,)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from(sign))
    word = st.lists(letter, max_size=4).map(tuple)
    terms = draw(st.lists(st.tuples(word, st.integers(-2, 2)), max_size=4))
    # depths well past the level at which every class is countable
    return AlgebraElement(ring, q, mode, terms), draw(st.integers(0, 40))


@given(counting_cases())
@settings(max_examples=200, deadline=None)
def test_count_matches_collapsing_after_phi(case):
    s, k = case
    assert count_L(s, k) == _count_collapsing_after_phi(s, k)


@given(counting_cases(), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_count_at_a_cap_never_gives_a_different_number(case, cap):
    """No class is registered for an entry that collapses to zero, nor
    below the first level whose classes are all countable, so at a cap
    the count may be a number where the old walk was unknown, but never a
    different number."""
    s, k = case
    count = count_L(s, k, cap_classes=cap)
    oracle = _count_collapsing_after_phi(s, k, cap_classes=cap)
    if isinstance(count, Verdict):
        assert count == oracle == Verdict.unknown(cap, "cap_classes")
    elif not isinstance(oracle, Verdict):
        assert count == oracle


def test_count_at_a_large_depth_takes_a_few_steps():
    # x0 is countable at level 0 and the tower element a few levels down,
    # after which every level has q times the count of the one before
    k = 10 ** 5
    s = tower(2, 1)
    with mock.patch.object(Closure, "step", autospec=True,
                           side_effect=Closure.step) as step:
        assert count_L(gen(2, 0), k) == 2 ** k
        assert count_L(s, k) == 2 ** k * spread_char(s)
    assert step.call_count <= 5


def test_count_drops_the_class_of_an_entry_that_collapses_to_zero():
    # at q = 3 the entries of phi(x0 - x1 x0 x1^-1) are x_a - x_{a-1}: the
    # old walk gave x2 - x1, which collapses to zero, a class of its own
    # beside the root and x0 - x1, so it did not fit into two classes
    s = parse_element("x0 - x1 x0 x1^-1", RATIONALS, 3)
    assert _count_collapsing_after_phi(s, 1, cap_classes=2) == Verdict.unknown(
        2, "cap_classes")
    assert count_L(s, 1, cap_classes=2) == _count_collapsing_after_phi(s, 1) == 0
    for k in range(2, 6):
        assert count_L(s, k) == _count_collapsing_after_phi(s, k)


def test_count_certifies_the_collapse_once_per_q():
    # the certificate reads the letter rows of _thue_morse(q), which
    # count_L does not otherwise call
    _collapsed_thue_morse.cache_clear()
    s = sigma(one(3), gen(3, 2), one(3) - gen(3, 0) ** 3)
    with mock.patch("tmss.algebra._thue_morse", wraps=_thue_morse) as spy:
        first, second = count_L(s, 4), count_L(s.gamma_map(1), 5)
    assert (first, second) == (_count_collapsing_after_phi(s, 4),
                               _count_collapsing_after_phi(s.gamma_map(1), 5))
    assert spy.call_args_list == [mock.call(3)]


def test_count_collapses_only_the_root():
    """The root key is collapsed from the terms of ``s``: no
    ``collapse_high_letters`` call and no element is built."""
    s = sigma(one(3), gen(3, 2) - gen(3, 1), one(3) - gen(3, 0) ** 3)
    init = AlgebraElement.__init__
    with mock.patch.object(AlgebraElement, "collapse_high_letters") as collapse, \
            mock.patch.object(AlgebraElement, "__init__", autospec=True,
                              side_effect=init) as built:
        count = count_L(s, 5)
    assert collapse.call_count == built.call_count == 0
    assert count == _count_collapsing_after_phi(s, 5)


def test_growth_constant_reports_the_first_cap():
    x0_cubed = one(2) - gen(2, 0) ** 3
    # the character closes within 4 classes, the count does not
    assert spread_char(x0_cubed, cap_classes=4) == 2
    assert growth_constant(x0_cubed, 3, 6, cap_classes=4) == Verdict.unknown(
        4, "cap_classes")
    assert growth_constant(x0_cubed, 3, 6, cap_classes=1) == Verdict.unknown(
        1, "cap_classes")


@pytest.mark.parametrize("q", [2, 3])
def test_defect_is_constant_from_level_three(q):
    for s in (gen(q, 0), one(q) - gen(q, 0), tower(q, 1)):
        defect, stable = growth_constant(s, 3, 6)
        assert stable
        assert defect == 0


def test_defect_not_yet_stable_from_level_two():
    defect, stable = growth_constant(tower(2, 1), 2, 5)
    assert defect == 0 and not stable


def test_growth_range_validation():
    with pytest.raises(ValueError):
        growth_constant(one(2), 4, 4)


# -- additivity under sigma --------------------------------------------------------


def test_additivity_of_product_generators():
    w = omega_generator(RATIONALS, 2, 0, 1)
    report = additivity_check([w, w])
    assert report["additive"]
    assert report["sigma_value"] == 2
    assert report["component_sum"] == 2
    for comp in report["components"]:
        assert comp["diagonal"] and comp["gamma_invariant"]
        assert comp["value"] == 1


def test_additivity_with_mixed_component():
    # a sigma image with two nonzero slots is not diagonal, yet stays
    # shift invariant and additive
    w = omega_generator(RATIONALS, 2, 0, 1)
    mix = sigma(w, w)
    block = mix.phi()
    assert not block[0][1].is_zero_literal
    report = additivity_check([mix, AlgebraElement.zero(RATIONALS, 2)])
    assert report["additive"]
    assert report["sigma_value"] == 2
    assert report["components"][0]["diagonal"] is False
    assert report["components"][0]["gamma_invariant"] is True


def test_additivity_across_levels():
    q = 2
    parts = [omega_generator(RATIONALS, q, 0, 0),
             omega_generator(RATIONALS, q, 1, 2)]
    report = additivity_check(parts)
    assert report["additive"]
    assert report["sigma_value"] == Fraction(2) + Fraction(2, 4)


def test_additivity_reports_the_class_cap():
    parts = [one(2) - gen(2, 0) ** 2, one(2) - gen(2, 1) ** 2]
    assert additivity_check(parts, cap_classes=2) == Verdict.unknown(
        2, "cap_classes")


@pytest.mark.parametrize("q", [2])
def test_enumerated_pool_is_additive(q):
    pool = omega_enumerate(RATIONALS, q, 0, k_max=1)
    nonzero = [s for s in pool if not s.is_zero_literal]
    report = additivity_check(nonzero[:q])
    assert report["additive"]


# -- witness search ----------------------------------------------------------------


def test_witness_trivial_targets():
    assert theorem_witness(0, 2).is_zero_literal
    assert theorem_witness(1, 3) == gen(3, 0)


@pytest.mark.parametrize("q", [2, 3])
def test_witness_tower_targets(q):
    for k in range(3):
        target = Fraction(2, q ** k)
        found = theorem_witness(target, q)
        assert isinstance(found, AlgebraElement)
        assert spread_char(found) == target


def test_witness_composite_targets():
    for target in (Fraction(4, 3), Fraction(8, 9), Fraction(3, 4)):
        found = theorem_witness(target, 3 if target.denominator % 3 == 0 else 2)
        assert isinstance(found, AlgebraElement)
        assert spread_char(found, cap_classes=40_000) == target


def test_witness_odd_numerator_odd_q():
    result = theorem_witness(Fraction(1, 3), 3)
    assert result.is_unknown and result.cap is None
    assert result.limit.startswith("odd numerator over odd q")
    assert str(result) == f"unknown({result.limit})"
    assert theorem_witness(Fraction(5, 9), 3) == result


def test_witness_budget():
    result = theorem_witness(Fraction(1600), 2, budget_leaves=10)
    assert result == Verdict.unknown(10, "budget_leaves")


def test_witness_class_cap_is_reported_as_such():
    result = theorem_witness(Fraction(2, 9), 3, cap_classes=2)
    assert result == Verdict.unknown(2, "cap_classes")


def test_witness_target_validation():
    with pytest.raises(ValueError):
        theorem_witness(Fraction(-1), 2)
    with pytest.raises(ValueError):
        theorem_witness(Fraction(1, 6), 2)


# -- exact formatting ---------------------------------------------------------------


def test_q_power_denominator():
    assert q_power_denominator(Fraction(2, 9), 3) == 2
    assert q_power_denominator(Fraction(5), 3) == 0
    assert q_power_denominator(Fraction(1, 6), 2) is None


def test_render_exact():
    assert render_exact(Fraction(2, 9), 3) == "2/3^2"
    assert render_exact(Fraction(2), 3) == "2"
    assert render_exact(Fraction(1, 2), 2) == "1/2^1"


def test_exact_json():
    payload = exact_json(Fraction(2, 9), 3, classes_used=7, depth=4)
    assert payload == {"value": "2/3^2", "num": 2, "den": 9,
                       "classes_used": 7, "depth": 4}


# -- the sparse children of every algebra closure against the dense grid ----------


def _dense_children(key, fold, ring):
    """The oracle: the class's element is rebuilt from its key, and every
    cell of the dense q x q matrix ``phi`` of that element is tested in
    row-major order, with the cell's ``key()`` as its key and weight 1.
    ``fold`` gives only q, as the length of the empty word's permutation;
    ``phi`` folds through the Thue-Morse recursion.  Key words are freely
    reduced, so mode B holds the element whatever the mode of the root."""
    elem = AlgebraElement(ring, len(fold(())[0]), "B", key)
    return [(entry.key(), 1, (i, j)) for i, row in enumerate(elem.phi())
            for j, entry in enumerate(row) if not entry.is_zero_literal]


def _algebra_char_on_the_dense_grid(s, kernel, monomial_base, cap_classes):
    """``algebra_char``'s oracle with the kernel in the children: a class is
    the ``key()`` of an element, and cell (i, j) of its dense ``phi``
    (``_dense_children``) is a child of weight k(i, j), as a Fraction,
    unless that weight is 0; a scalar, or with ``monomial_base`` any single
    term, is a base class."""
    fold = _thue_morse(s.q).fold

    def children(key):
        if len(key) == 1 and (monomial_base or not key[0][0]):
            return None
        return [(child, kernel[cell], cell) for child, _, cell
                in _dense_children(key, fold, s.ring) if kernel[cell] != 0]

    if s.is_zero_literal:
        return Fraction(0), {"classes_used": 0, "depth": 0,
                             "largest_component": 0}
    try:
        return Closure(s.key(), children, cap_classes).solve(s.q)
    except ClassExplosionError:
        return Verdict.unknown(cap_classes, "cap_classes"), None


def _empty_memos():
    """Empty the fold and children memos of every recursion that a closure
    has used, so that the next closure computes every class again."""
    for rec in list(algebra._CHILDREN):
        rec._folds.clear()
    algebra._CHILDREN.clear()


def _class_keys(closure):
    """The key of every class of ``closure``, in index order."""
    return [closure.key(idx) for idx in range(len(closure.keys))]


def _expanded_words(closures):
    """The class keys of ``closures`` whose children were read, and the
    words of those keys."""
    keys = {closure.key(idx) for closure in closures
            for idx, edges in closure.edges.items() if edges is not None}
    return keys, {word for key in keys for word, _ in key}


@contextmanager
def _dense_grid():
    """Run the zero test, the contraction depth and the characters on the
    dense-grid children, from empty memos and leaving them empty; yields
    the keys the oracle was called on and the closures built."""
    called = []

    def oracle(key, *args):
        called.append(key)
        return _dense_children(key, *args)

    _empty_memos()
    try:
        with mock.patch.object(algebra, "_cell_children", oracle), \
                _recorded_keys() as seen:
            yield called, seen
    finally:
        _empty_memos()


@st.composite
def children_cases(draw):
    """An element over Q, Z, F2 or F3 in mode A or B at q = 2..5, half of
    them shifted to coefficient sum zero, and a kernel with zero, negative
    and non-integral entries."""
    q = draw(st.integers(2, 5))
    ring = draw(st.sampled_from((RATIONALS, INTEGERS, PrimeField(2),
                                 PrimeField(3))))
    mode = draw(st.sampled_from(("A", "B")))
    sign = (1,) if mode == "A" else (1, -1)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from(sign))
    word = st.lists(letter, max_size=4).map(tuple)
    terms = draw(st.lists(st.tuples(word, st.integers(-3, 3)), max_size=4))
    s = AlgebraElement(ring, q, mode, terms)
    if draw(st.booleans()):
        s = s - AlgebraElement.one(ring, q, mode).scale(sum(s.terms.values()))
    entry = st.sampled_from((0, 0, 1, 1, -1, 2, Fraction(1, 2)))
    kernel = Kernel(draw(st.lists(st.lists(entry, min_size=q, max_size=q),
                                  min_size=q, max_size=q)))
    return s, kernel


@given(children_cases())
@settings(max_examples=150, deadline=None)
def test_spread_char_is_the_all_ones_kernel_character(case):
    # the oracle's dense matrix weighs every stored cell 1 in its closure;
    # Kernel.ones has no weights matrix and takes the stored cells as they are
    s = case[0]
    dense = Kernel([[1] * s.q for _ in range(s.q)])
    assert dense.weights is not None
    expected = algebra_char(s, dense, monomial_base=True, with_info=True)
    assert spread_char(s, with_info=True) == expected
    for monomial_base in (True, False):
        assert algebra_char(s, Kernel.ones(s.q), monomial_base=monomial_base,
                            with_info=True) == algebra_char(
            s, dense, monomial_base=monomial_base, with_info=True)


def test_the_all_ones_kernel_is_built_in_linear_space():
    kernel = Kernel.ones(1000)
    assert kernel.weights is None and kernel.q == 1000
    assert len({id(row) for row in kernel.entries}) == 1
    assert kernel[999, 0] == 1 and type(kernel[0, 999]) is Fraction
    assert Kernel.ones(3).psd_report() == {"symmetric": True, "psd": True}
    assert Kernel.ones(3).entries == Kernel([[1] * 3] * 3).entries


def test_spread_char_builds_no_kernel():
    with mock.patch.object(Kernel, "ones", side_effect=AssertionError):
        for q in (2, 3, 5, 7):
            assert spread_char(one(q) - gen(q, 0) ** 2) == 2
            assert spread_char(AlgebraElement.zero(RATIONALS, q)) == 0


@given(children_cases(), st.booleans(), st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_cell_children_match_the_dense_grid(case, monomial_base, cap_classes):
    """The stored children are the dense grid's, each of int weight 1; a
    kernel weighs them in the closure, and its values and info are those
    of the closure with the kernel in the dense children."""
    s, kernel = case
    fold = _thue_morse(s.q).fold
    sparse = _cell_children(_class_key(s), fold, s.ring)
    assert sparse == _dense_children(_class_key(s), fold, s.ring)
    assert all(type(w) is int and w == 1 for _, w, _ in sparse)
    assert _value_or_singular(lambda: algebra_char(
        s, kernel, cap_classes, monomial_base, with_info=True)) == (
        _value_or_singular(lambda: _algebra_char_on_the_dense_grid(
            s, kernel, monomial_base, cap_classes)))


@given(children_cases(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_class_keys_are_the_keys_of_the_phi_cells(case, collapsed):
    """Every child key equals, and hashes like, ``key()`` of its cell;
    its coefficients are ints where they are integral, and a one-term key
    over a field has coefficient 1."""
    s, _ = case
    fold = (_collapsed_thue_morse if collapsed else _thue_morse)(s.q).fold
    cells = _phi_cells(s, fold)
    key = _class_key(s)
    assert key == s.key() and hash(key) == hash(s.key())
    children = _cell_children(key, fold, s.ring)
    assert [cell for *_, cell in children] == sorted(
        cell for cell, entry in cells.items() if not entry.is_zero_literal)
    for child, _, cell in children:
        assert child == cells[cell].key()
        assert hash(child) == hash(cells[cell].key())
        assert all(type(c) is int for _, c in child
                   if Fraction(c).denominator == 1)
        if s.ring.is_field and len(child) == 1:
            assert child[0][1] == 1


def _witness_scalar(s, rows, cols):
    """The entry of the explicit phi-iterate at the witness route."""
    entry = s
    for i, j in zip(rows, cols):
        entry = entry.phi()[i][j]
    assert list(entry.terms) == [()]
    return entry.terms[()]


@given(children_cases(), st.integers(1, 30), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_zero_test_and_contraction_depth_match_the_dense_grid(
        case, cap_depth, depth_cap):
    s, _ = case
    with _dense_grid() as (called, seen):
        verdict = is_zero(s, cap_depth)
        depth = contraction_depth(s, depth_cap)
    # every class whose children were read had them from the oracle
    assert _expanded_words(seen)[0] <= set(called)
    assert is_zero(s, cap_depth) == verdict  # the witness included
    assert contraction_depth(s, depth_cap) == depth
    if verdict.witness is not None:
        rows, cols, scalar = verdict.witness
        assert _witness_scalar(s, rows, cols) == scalar


@given(children_cases(), st.booleans(), st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_algebra_char_matches_the_dense_grid(case, monomial_base, cap_classes):
    s, kernel = case
    s = AlgebraElement(RATIONALS, s.q, s.mode, s.terms)

    def compute():
        return algebra_char(s, kernel, cap_classes=cap_classes,
                            monomial_base=monomial_base, with_info=True)

    with _dense_grid() as (called, seen):
        expected = _value_or_singular(compute)
    assert _expanded_words(seen)[0] <= set(called)
    assert _value_or_singular(compute) == expected


def test_closures_do_not_call_phi():
    s = parse_element("1 - x0^9 + x1 x2^-1 - 2*x2", RATIONALS, 3)
    with mock.patch.object(AlgebraElement, "phi") as spy:
        algebra_char(s, Kernel([[1, 0, 2], [-1, 1, 0], [0, "1/2", 1]]))
        spread_char(s)
        is_zero(s)
        contraction_depth(s)
        count_L(s, 4)
    assert spy.call_count == 0


def test_integral_kernels_give_int_edge_weights():
    s = parse_element("1 - x0^9 + x1 x2^-1 - 2*x2", RATIONALS, 3)
    kernels = (Kernel.ones(3), Kernel([[1, 0, 2], [-1, 1, 0], [0, 3, 1]]),
               Kernel([[1, 0, 2], [-1, 1, 0], [0, "1/2", 1]]))
    with _recorded_closures() as seen:
        for kernel in kernels:
            algebra_char(s, kernel)
    weights = [[w for edges in closure.edges.values() if edges
                for w in edges.values()] for closure, _ in seen]
    assert len(weights) == 3 and all(weights)
    assert all(type(w) is int for w in weights[0] + weights[1])
    assert any(type(w) is Fraction for w in weights[2])


# -- closure keys hold long powers as Power(root, m) -------------------------------


@contextmanager
def _recorded_keys():
    """Collect every Closure built, in order."""
    seen = []
    init = Closure.__init__

    def recording_init(closure, *args, **kwargs):
        seen.append(closure)
        init(closure, *args, **kwargs)

    with mock.patch.object(Closure, "__init__", recording_init):
        yield seen


@contextmanager
def _tuple_path():
    """The oracle: every closure on tuple words, with the root key's words
    as they are and every word folded by the letter loop
    ``rec._fold_letters``, once per recursion, from empty memos and leaving
    them empty; yields the (recursion, word) pairs folded, as they are
    folded.  ``count_L``'s root is the key of the collapsed element, whose
    words stay tuples too."""
    folded = {}

    def tuple_fold(rec, word):
        if (rec, word) not in folded:
            folded[rec, word] = rec._fold_letters(word)
        return folded[rec, word]

    _empty_memos()
    try:
        with mock.patch.object(algebra, "canonical", lambda word: word), \
                mock.patch.object(characters, "canonical", lambda word: word), \
                mock.patch.object(characters, "_collapsed_key", lambda s: (
                    _class_key(s.collapse_high_letters()))), \
                mock.patch.object(WreathRecursion, "_fold_key", tuple_fold):
            yield folded
    finally:
        _empty_memos()


@st.composite
def power_cases(draw):
    """An element over Q, Z, F2 or F3 in mode A or B at q = 2..5 that mixes
    short words with long powers u^m (m up to q^5), bare, followed by a
    tail or, in mode B, conjugated; a kernel; and a recursion preset."""
    q = draw(st.integers(2, 5))
    ring = draw(st.sampled_from((RATIONALS, INTEGERS, PrimeField(2),
                                 PrimeField(3))))
    mode = draw(st.sampled_from(("A", "B")))
    sign = (1,) if mode == "A" else (1, -1)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from(sign))
    short = st.lists(letter, max_size=4).map(tuple)
    exponent = st.one_of(st.sampled_from([q ** j for j in range(2, 6)]),
                         st.integers(2, q ** 5))
    shapes = ("bare", "tail", "conjugate")[:3 if mode == "B" else 2]

    @st.composite
    def long_word(draw):
        root = draw(st.lists(letter, min_size=1, max_size=3).map(tuple))
        body = root * draw(exponent)
        shape = draw(st.sampled_from(shapes))
        if shape == "tail":
            return body + draw(short)
        if shape == "conjugate":
            t = draw(short)
            return t + body + tuple((i, -e) for i, e in reversed(t))
        return body

    word = st.one_of(short, long_word(), long_word())
    terms = draw(st.lists(st.tuples(word, st.integers(-3, 3)), min_size=1,
                          max_size=4))
    s = AlgebraElement(ring, q, mode, terms)
    if draw(st.booleans()):
        s = s - AlgebraElement.one(ring, q, mode).scale(sum(s.terms.values()))
    kernel = draw(_kernels(q))
    preset = draw(st.sampled_from((WreathRecursion.thue_morse,
                                   WreathRecursion.inverted_variant,
                                   WreathRecursion.transposed_variant)))
    return s, kernel, preset(q), draw(word)


def _results_and_keys(s, kernel, rec, word):
    """Every closure result on ``s`` (and on ``word`` for group_char), and
    the class keys of every closure built."""
    q_s = AlgebraElement(RATIONALS, s.q, s.mode, s.terms)
    with _recorded_keys() as seen:
        results = [
            spread_char(s, cap_classes=2_000, with_info=True),
            _value_or_singular(lambda: algebra_char(
                q_s, kernel, cap_classes=2_000, with_info=True)),
            _value_or_singular(lambda: group_char(
                rec, word, kernel, cap_classes=2_000, with_info=True)),
            count_L(s, 3, cap_classes=2_000), count_L(s, 6, cap_classes=2_000),
            contraction_depth(s, 8), is_zero(s, 30)]
    return results, [_class_keys(closure) for closure in seen], seen


def _expanded_keys(closures):
    return [[tuple((_expanded(w), c) for w, c in key) for key in keys]
            for keys in closures]


@given(power_cases())
@settings(max_examples=150, deadline=None)
def test_power_keys_match_the_tuple_path(case):
    s, kernel, rec, word = case
    with _tuple_path() as folded:
        expected = _results_and_keys(s, kernel, rec, word)
    # every word of a class whose children were read went through the oracle
    assert _expanded_words(expected[2])[1] <= {word for _, word in folded}
    results, keys = _results_and_keys(s, kernel, rec, word)[:2]
    assert results == expected[0]
    assert _expanded_keys(keys) == expected[1]
    # the tuple path holds no Power, and the change holds every key word in
    # its canonical form
    assert not any(type(w) is Power for closure in expected[1]
                   for key in closure for w, _ in key)
    assert all(canonical(_expanded(w)) == w for closure in keys
               for key in closure for w, _ in key)


@st.composite
def collapsing_powers(draw):
    """An element at q = 3..5 whose long powers have roots mostly in
    x_1..x_{q-1}, so that the collapse x_i -> x_1 shortens a root, makes
    it a power or not cyclically reduced, or cancels it, as it does
    (x2 x1^-1)^m; bare, conjugated or followed by a tail, beside short
    words."""
    q = draw(st.integers(3, 5))
    ring = draw(st.sampled_from((RATIONALS, INTEGERS, PrimeField(2),
                                 PrimeField(3))))
    sign = st.sampled_from((1, -1))
    letter = st.one_of(st.tuples(st.integers(1, q - 1), sign),
                       st.tuples(st.integers(0, q - 1), sign))
    short = st.lists(letter, max_size=3).map(tuple)
    root = st.one_of(st.lists(letter, min_size=1, max_size=4).map(tuple),
                     st.sampled_from((((2, 1), (1, -1)), ((1, 1), (2, -1)),
                                      ((2, 1), (0, 1), (1, -1)))))
    m = st.integers(2, 5 ** 4)
    # an edge is empty two times in three, so about half the powers are bare
    edge = st.one_of(st.just(()), st.just(()), short)
    long_word = st.builds(lambda t, u, m, tail: t + u * m + tail + tuple(
        (i, -e) for i, e in reversed(t)), edge, root, m, edge)
    terms = draw(st.lists(st.tuples(st.one_of(short, long_word, long_word),
                                    st.integers(-3, 3)), max_size=4))
    return AlgebraElement(ring, q, "B", terms)


def _typed_key(key):
    return [(w, type(c), c) for w, c in key]


@given(st.one_of(power_cases().map(lambda case: case[0]), collapsing_powers()))
@settings(max_examples=300, deadline=None)
def test_collapsed_root_key_is_the_key_of_the_collapse(s):
    """``count_L``'s root key, read from the terms of ``s``, is the class
    key of ``s.collapse_high_letters()``: the same canonical words, a
    ``Power`` where that has one, and the same coefficients and types."""
    assert _typed_key(_collapsed_key(s)) == _typed_key(
        _class_key(s.collapse_high_letters()))


@pytest.mark.parametrize("q, word", [
    (3, ((2, 1), (1, -1)) * 40),
    (4, ((0, 1),) + ((3, 1), (1, -1), (2, 1)) * 27 + ((0, -1),)),
    (5, ((2, 1), (4, 1)) * 5 ** 4),
], ids=["cancels", "conjugated", "becomes a power"])
def test_collapsed_root_key_of_long_powers(q, word):
    s = one(q) - AlgebraElement.monomial(RATIONALS, q, word)
    key = _collapsed_key(s)
    assert key == _class_key(s.collapse_high_letters())
    if q == 3:  # x2 x1^-1 collapses to 1, and 1 - 1 is zero
        assert key == () and count_L(s, 4) == 0
    if q == 5:
        assert key[1][0] == Power(((1, 1),), 2 * 5 ** 4)


def _tower_cases():
    """1 - x0^(5^7) and 1 - gamma Pi^(3^9), with their values 2/5^6 and
    2/3^9 and their words."""
    pi3 = ((1, 1), (2, 1), (0, 1))
    for q, word, value in ((5, ((0, 1),) * 5 ** 7, Fraction(2, 5 ** 6)),
                           (3, pi3 * 3 ** 9, Fraction(2, 3 ** 9))):
        yield one(q) - AlgebraElement.monomial(RATIONALS, q, word), value, word


@pytest.mark.parametrize("s, value, word", list(_tower_cases()),
                         ids=["x0^(5^7)", "gamma Pi^(3^9)"])
def test_deep_towers_stay_compressed(s, value, word):
    """Every long key word is a Power, and the letter loop reads fewer
    letters per class than a key word of ``_POWER_MIN`` letters has: the
    cost does not grow with the tower's 59,049 and 78,125 letters."""
    read = []
    fold_letters = WreathRecursion._fold_letters

    def counting(rec, letters):
        read.append(len(letters))
        return fold_letters(rec, letters)

    _empty_memos()  # so that every class is folded here
    with _recorded_keys() as seen, \
            mock.patch.object(WreathRecursion, "_fold_letters", counting):
        assert spread_char(s) == value
        if s.q == 3:
            assert count_L(s, 6) == 0
            assert is_zero(s).state == "nonzero"
    assert read  # the counter ran
    classes = sum(len(closure.keys) for closure in seen)
    long_words = [w for closure in seen for key in _class_keys(closure)
                  for w, _ in key if len(w) >= _POWER_MIN]
    assert long_words and all(type(w) is Power for w in long_words)
    assert len(read) <= classes and max(read) < _POWER_MIN
    assert sum(read) < classes * _POWER_MIN < len(word) // 10


# -- memos kept across calls -------------------------------------------------------

_RINGS = (RATIONALS, INTEGERS, PrimeField(2), PrimeField(3))


@st.composite
def user_recursions(draw, q):
    """A recursion with random root permutations and sections of at most one
    letter, of either sign."""
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from((1, -1)))
    section = st.lists(letter, max_size=1).map(tuple)
    images = {i: WreathElement(tuple(draw(section) for _ in range(q)),
                               Permutation(tuple(draw(st.permutations(range(q))))))
              for i in range(q)}
    return WreathRecursion(q, images)


def _session_terms(draw):
    """The q, mode, word strategy and term lists of a session; each term
    list is an element."""
    q = draw(st.integers(2, 5))
    mode = draw(st.sampled_from(("A", "B")))
    sign = (1,) if mode == "A" else (1, -1)
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from(sign))
    word = st.lists(letter, max_size=4).map(tuple)
    terms = st.lists(st.tuples(word, st.integers(-3, 3)), min_size=1,
                     max_size=3)
    return q, mode, word, draw(st.lists(terms, min_size=1, max_size=3))


def _session_call(kind, q, term_lists, kernels, recs, word):
    """A call of a session on an element, the zero element or a sigma of
    them, shifted by gamma, with a kernel and a recursion for group_char;
    without its ring."""
    which = st.integers(0, len(term_lists))  # the last is the zero element
    return st.tuples(kind, which,
                     st.lists(which, min_size=q, max_size=q) | st.none(),
                     st.integers(0, q - 1), st.integers(0, len(kernels) - 1),
                     st.integers(0, len(recs) - 1), word)


@st.composite
def memo_sessions(draw):
    """Closure calls on related elements at one q and mode: each term list
    is an element, shifted by gamma or put under sigma, and every call runs
    over two of Q, Z, F2 and F3, so equal terms give keys that are equal as
    tuples across two rings; two kernels, integral or not; and a recursion
    for group_char, a user's, the Thue-Morse one of the zero test or the
    collapsed one of count_L."""
    q, mode, word, term_lists = _session_terms(draw)
    kernels = (draw(_kernels(q)), draw(_kernels(q)))
    recs = (draw(user_recursions(q)), _thue_morse(q), _collapsed_thue_morse(q))
    kind = st.sampled_from(("is_zero", "contraction_depth", "count_L",
                            "spread_char", "algebra_char", "group_char"))
    call = _session_call(kind, q, term_lists, kernels, recs, word)
    rings = draw(st.permutations(_RINGS))[:2]
    calls = [(ring,) + call for call in draw(st.lists(call, min_size=1,
                                                      max_size=5))
             for ring in rings]
    order = draw(st.permutations(range(len(calls))))
    return q, mode, term_lists, kernels, recs, calls, order


@st.composite
def kernel_sessions(draw):
    """Sessions like ``memo_sessions`` with many kernels: ``algebra_char``
    with any of 2 to 8 kernels (the identity, all ones or random), and
    ``group_char`` with them on one of two user recursions, between
    ``spread_char``, ``is_zero`` and ``count_L`` calls, each call over its
    own ring among Q, Z, F2 and F3.  Every kernel shares the table of its
    recursion, and a switch of ring replaces it."""
    q, mode, word, term_lists = _session_terms(draw)
    kernels = tuple(draw(st.lists(_kernels(q), min_size=2, max_size=8)))
    recs = (draw(user_recursions(q)), draw(user_recursions(q)))
    kind = st.sampled_from(("algebra_char", "algebra_char", "group_char",
                            "spread_char", "is_zero", "count_L"))
    call = _session_call(kind, q, term_lists, kernels, recs, word)
    calls = [(draw(st.sampled_from(_RINGS)),) + c
             for c in draw(st.lists(call, min_size=2, max_size=10))]
    order = draw(st.permutations(range(len(calls))))
    return q, mode, term_lists, kernels, recs, calls, order


def _outcome(compute):
    """The result of ``compute``, with a SingularSystemError as a result,
    and the class keys of every closure it built, not their ids.  A
    Verdict compares its state, depth and witness."""
    with _recorded_keys() as seen:
        result = _value_or_singular(compute)
    return result, [_class_keys(closure) for closure in seen]


def _session_outcome(session, call):
    """The ``_outcome`` of one call of a session."""
    q, mode, term_lists, kernels, recs, _, _ = session
    ring, kind, which, picks, shift, k, r, word = call
    elems = [AlgebraElement(ring, q, mode, terms) for terms in term_lists]
    elems.append(AlgebraElement.zero(ring, q, mode))
    s = sigma(*(elems[i] for i in picks)) if picks else elems[which]
    s = s.gamma_map(shift)
    compute = {
        "is_zero": lambda: is_zero(s, 20),
        "contraction_depth": lambda: contraction_depth(s, 6),
        "count_L": lambda: count_L(s, 4, cap_classes=300),
        "spread_char": lambda: spread_char(s, cap_classes=300, with_info=True),
        "algebra_char": lambda: algebra_char(s, kernels[k], cap_classes=300,
                                             with_info=True),
        "group_char": lambda: group_char(recs[r], word, kernels[k],
                                         cap_classes=300, with_info=True),
    }[kind]
    return _outcome(compute)


def _shared_memos_give_the_results_of_empty_ones(session):
    calls, order = session[5], session[6]
    expected = []
    for call in calls:
        _empty_memos()
        expected.append(_session_outcome(session, call))
    _empty_memos()
    # interleaved: each call in a drawn order, then all of them again in
    # the opposite order, with every memo filled by the others
    for i in list(order) + list(reversed(order)):
        assert _session_outcome(session, calls[i]) == expected[i]


@given(memo_sessions())
@settings(max_examples=120, deadline=None)
def test_shared_memos_give_the_results_of_empty_ones(session):
    _shared_memos_give_the_results_of_empty_ones(session)


@given(kernel_sessions())
@settings(max_examples=80, deadline=None)
def test_kernels_and_rings_over_shared_tables_give_the_results_of_empty_ones(
        session):
    _shared_memos_give_the_results_of_empty_ones(session)


def test_kernels_on_one_element_share_one_table():
    """Kernels weigh the cells of one class table: after many of them on
    one element, the Thue-Morse recursion has one table, which holds only
    the classes of the all-ones closure."""
    s = parse_element("1 - x0^9 + x1 x2^-1 - 2*x2", RATIONALS, 3)
    _empty_memos()
    with _recorded_keys() as seen:
        algebra_char(s, Kernel.ones(3))
    ones, = seen
    rng = random.Random(1)
    entries = (-1, 0, 0, Fraction(1, 2), 1, 2, Fraction(-1, 3))
    kernels = [Kernel([[rng.choice(entries) for _ in range(3)]
                       for _ in range(3)]) for _ in range(200)]
    for kernel in kernels + [Kernel.identity(3)]:
        _value_or_singular(lambda: algebra_char(s, kernel, with_info=True))
    table, = algebra._CHILDREN.values()
    assert table._rec() is _thue_morse(3)
    assert set(range(len(table.keys))) == set(ones.keys)
    _empty_memos()


def test_equal_keys_over_two_rings_keep_their_own_children():
    # 1 + 2*x0 has the key ((1, 1), (x0, 2)) over Q and over Z; under
    # sigma it is a class below the root, whose child x_a has coefficient
    # 1 over Q and 2 over Z
    for rings in ((RATIONALS, INTEGERS), (INTEGERS, RATIONALS)):
        elems = [sigma(*[AlgebraElement(ring, 2, "B", {(): 1, ((0, 1),): 2})] * 2)
                 for ring in rings]
        assert _class_key(elems[0]) == _class_key(elems[1])
        expected = []
        for s in elems:
            _empty_memos()
            expected.append(_outcome(lambda s=s: count_L(s, 3)))
        _empty_memos()
        assert [_outcome(lambda s=s: count_L(s, 3)) for s in elems] == expected
        assert expected[0][1] != expected[1][1]


def _word_letters(word):
    return len(word.root) if type(word) is Power else len(word)


def _memos():
    """Every fold memo and class table that a closure has used, with its
    letters counted afresh: a fold memo holds a word and its sections, a
    class table each of its keys once.  A table numbers each key once, by
    its index in ``keys``, and stores children as tuples of those ids.
    The parts that a memo or table shares are parts of what it keeps, so
    its bound covers them."""
    out = []
    for rec, table in algebra._CHILDREN.items():
        folds = rec._folds
        assert set(folds.parts) <= {part for images, sections in folds.values()
                                    for part in (images, *sections)}
        out.append((folds, sum(
            _word_letters(word) + sum(map(_word_letters, sections))
            for word, (_, sections) in folds.items())))
        n = len(table.keys)
        assert table._rec() is rec
        assert table.ids == {key: cid for cid, key in enumerate(table.keys)}
        stored = [triple for children in table.children
                  if children is not None for triple in children]
        assert len(table.children) == n
        assert all(type(child) is int and 0 <= child < n and weight == 1
                   for child, weight, _ in stored)
        assert set(table.parts) <= set(stored) | {
            pair for key in table.keys for pair in key}
        out.append((table, sum(_word_letters(w) for key in table.keys
                               for w, _ in key)))
    return out


def test_memos_hold_their_bound_and_keep_the_results():
    elems = omega_enumerate(RATIONALS, 2, 1, 2, size_cap=12)
    elems += omega_enumerate(INTEGERS, 3, 1, 1, size_cap=6)
    calls = [f for s in elems for f in (
        lambda s=s: is_zero(s), lambda s=s: count_L(s, 5),
        lambda s=s: spread_char(s, with_info=True))]
    bound = 60
    _empty_memos()
    expected = [_outcome(f) for f in calls]
    # without the bound, some memo holds more than it
    assert max(letters for _, letters in _memos()) > bound
    _empty_memos()
    with mock.patch.object(group, "_MEMO_LETTERS", bound):
        for f, result in zip(calls, expected):
            assert _outcome(f) == result
            for memo, letters in _memos():
                assert memo.letters == letters <= bound
    _empty_memos()


@pytest.mark.parametrize("bound", [6, 12, 24])
def test_a_table_that_passes_its_bound_in_a_call_keeps_the_results(bound):
    """A table that passes the bound while a closure walks it leaves
    ``_CHILDREN`` and still serves that closure; the results are those of
    empty tables, and every table left holds at most the bound after every
    call."""
    elems = omega_enumerate(RATIONALS, 2, 1, 1, size_cap=8)
    calls = [f for s in elems for f in (
        lambda s=s: is_zero(s), lambda s=s: count_L(s, 5),
        lambda s=s: contraction_depth(s),
        lambda s=s: spread_char(s, with_info=True))]
    expected = []
    for f in calls:
        _empty_memos()
        expected.append(_outcome(f))
    _empty_memos()
    number = algebra._ClassTable.id
    in_call = []  # whether a closure was built when a table was detached
    seen = []

    def numbering(table, key):
        attached = algebra._CHILDREN.get(table._rec()) is table
        cid = number(table, key)
        if attached and algebra._CHILDREN.get(table._rec()) is not table:
            in_call.append(bool(seen))
        return cid

    with mock.patch.object(group, "_MEMO_LETTERS", bound), \
            mock.patch.object(algebra._ClassTable, "id", numbering):
        for f, result in zip(calls, expected):
            with _recorded_keys() as seen:
                outcome = _value_or_singular(f)
            assert (outcome, [_class_keys(c) for c in seen]) == result
            for memo, letters in _memos():
                assert memo.letters == letters <= bound
    assert True in in_call
    _empty_memos()


def test_roots_stay_out_of_the_children_memos():
    # a repeated query computes its root again: no root has stored children
    s = tower(3, 2)
    roots = {_class_key(s), _class_key(s.collapse_high_letters())}
    _empty_memos()
    is_zero(s), contraction_depth(s), count_L(s, 4), spread_char(s)
    algebra_char(s, Kernel.identity(3))
    tables = list(algebra._CHILDREN.values())
    # the characters share the zero test's table, whatever their kernel; the
    # collapsed recursion of count_L has its own
    assert len(tables) == 2 and all(any(table.children) for table in tables)
    numbered = [(table, table.ids[root]) for table in tables for root in roots
                if root in table.ids]
    assert len(numbered) == 2
    assert all(table.children[cid] is None for table, cid in numbered)


def test_a_root_that_its_closure_reaches_is_one_class():
    """x0 at q = 2 is its own entry at (0, 1): the root and that entry are
    one class, from empty tables and from filled ones.  ``count_L`` counts
    x0 at its root, which is countable, so its closure is the root alone."""
    x0 = gen(2, 0)
    calls = (lambda: is_zero(x0),
             lambda: algebra_char(x0, Kernel.ones(2), with_info=True),
             lambda: group_char(_thue_morse(2), ((0, 1),), Kernel.ones(2),
                                with_info=True),
             lambda: count_L(x0, 6))
    _empty_memos()
    for _ in range(2):
        results = []
        for f in calls:
            with _recorded_keys() as seen:
                results.append(f())
            closure, = seen
            keys = _class_keys(closure)
            assert len(set(keys)) == len(keys) and keys[0] == _class_key(x0)
            assert len(keys) == 1 or 0 in closure.edges[0]
        info = {"classes_used": 3, "depth": 2, "largest_component": 1}
        assert results == [Verdict("nonzero", depth=2, witness=((1, 0), (0, 1), 1)),
                           (1, info), (1, info), 2 ** 6]


def test_at_most_64_thue_morse_recursions_stay_alive():
    """The recursions of 70 alphabets are kept for the last 64 of them; an
    evicted one leaves ``_CHILDREN`` with its table and its folds."""
    _thue_morse.cache_clear()
    _collapsed_thue_morse.cache_clear()
    recs = {_thue_morse: [], _collapsed_thue_morse: []}
    for q in range(2, 72):
        assert spread_char(gen(q, 0)) == 1 and count_L(gen(q, 0), 2) == q * q
        for kind, refs in recs.items():
            refs.append(weakref.ref(kind(q)))
    gc.collect()
    alive = [[ref() for ref in refs if ref() is not None]
             for refs in recs.values()]
    assert [len(kept) for kept in alive] == [64, 64]
    assert set(algebra._CHILDREN) <= set(alive[0] + alive[1])


def test_memos_do_not_keep_a_recursion_alive():
    rec = WreathRecursion.inverted_variant(3)
    assert group_char(rec, ((0, 1), (1, -1)) * 3) == group_char(
        rec, ((0, 1), (1, -1)) * 3)
    assert rec in algebra._CHILDREN and rec._folds
    alive = weakref.ref(rec)
    del rec
    gc.collect()
    assert alive() is None
