"""Wreath recursion engine: decomposition, action, word problem, nucleus."""

import pytest
from hypothesis import given, settings, strategies as st

from tmss.group import Permutation, WreathElement, WreathRecursion
from tmss.words import (
    commutator,
    free_reduce,
    gamma,
    inverse,
    parse_word,
    power,
    theta,
)


def words(q: int, max_len: int = 8):
    letter = st.tuples(st.integers(0, q - 1), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_len).map(tuple)


def vertices(q: int, max_len: int = 6):
    return st.lists(st.integers(0, q - 1), max_size=max_len).map(tuple)


# -- permutations -----------------------------------------------------------


def test_permutation_composition_order():
    # then() applies the receiver first
    rot = Permutation.rotation(3, 1)
    swap = Permutation.transposition(3, 0, 1)
    assert rot.then(swap)(2) == swap(rot(2))
    assert rot.then(rot.inverse()).is_identity


def test_rotation_direction():
    rot = Permutation.rotation(4, -1)
    assert [rot(a) for a in range(4)] == [3, 0, 1, 2]


# -- decomposition pins -------------------------------------------------------


def test_decompose_x0_at_q2():
    rec = WreathRecursion.thue_morse(2)
    elem = rec.decompose(((0, 1),))
    assert elem.sections == (((0, 1),), ((1, 1),))
    assert not elem.perm.is_identity


def test_decompose_x1_squared_is_plainly_trivial():
    rec = WreathRecursion.thue_morse(2)
    elem = rec.decompose(((1, 1), (1, 1)))
    assert elem.sections == ((), ())
    assert elem.perm.is_identity


def test_decompose_empty_word():
    rec = WreathRecursion.thue_morse(3)
    elem = rec.decompose(())
    assert elem.is_plain_identity


def test_sections_of_x0_list_the_generators():
    for q in (2, 3, 5):
        rec = WreathRecursion.thue_morse(q)
        elem = rec.decompose(((0, 1),))
        assert elem.sections == tuple(((a, 1),) for a in range(q))


def test_decompose_rejects_bad_letters():
    rec = WreathRecursion.thue_morse(3)
    for letter in ((0, 0), (0, 2), (3, 1), (-1, 1)):
        with pytest.raises(ValueError):
            rec.decompose(((1, 1), letter))


def test_inverted_variant_sections():
    rec = WreathRecursion.inverted_variant(3)
    elem = rec.decompose(((0, 1),))
    assert elem.sections == tuple(((a, -1),) for a in range(3))
    x1 = rec.decompose(((1, 1),))
    assert x1.perm(0) == 1 and x1.perm(1) == 0 and x1.perm(2) == 2


def test_to_json_shape():
    rec = WreathRecursion.thue_morse(2)
    data = rec.decompose(((0, 1), (1, -1))).to_json()
    assert set(data) == {"perm", "sections"}
    assert all(isinstance(s, str) for s in data["sections"])


# -- action and sections ---------------------------------------------------------


def test_act_pins():
    rec = WreathRecursion.thue_morse(2)
    assert rec.act(((0, 1),), (0,)) == (1,)
    # x1 has trivial sections, so only the first letter moves
    assert rec.act(((1, 1),), (0, 0)) == (1, 0)
    assert rec.act((), (0, 1, 0)) == (0, 1, 0)


def test_section_pins():
    rec = WreathRecursion.thue_morse(2)
    x0 = ((0, 1),)
    assert rec.section(x0, ()) == x0
    assert rec.section(x0, (0,)) == ((0, 1),)
    assert rec.section(x0, (1,)) == ((1, 1),)
    assert rec.section(x0, (0, 0)) == ((0, 1),)


@given(st.sampled_from((2, 3)), st.data())
def test_action_is_a_right_fold_over_products(q, data):
    rec = WreathRecursion.thue_morse(q)
    u = data.draw(words(q))
    v = data.draw(words(q))
    vertex = data.draw(vertices(q))
    assert rec.act(u + v, vertex) == rec.act(v, rec.act(u, vertex))


@given(st.sampled_from((2, 3)), st.data())
def test_action_preserves_depth_and_is_injective(q, data):
    rec = WreathRecursion.thue_morse(q)
    w = data.draw(words(q, max_len=5))
    depth = data.draw(st.integers(0, 3))
    level = [(a, b, c)[:depth] for a in range(q) for b in range(q)
             for c in range(q)]
    level = sorted(set(level))
    images = [rec.act(w, v) for v in level]
    assert sorted(set(images)) == level


@given(st.sampled_from((2, 3)), st.data())
def test_iterated_section_splits_paths(q, data):
    rec = WreathRecursion.thue_morse(q)
    w = data.draw(words(q, max_len=5))
    u = data.draw(vertices(q, max_len=2))
    v = data.draw(vertices(q, max_len=2))
    assert rec.section(w, u + v) == rec.section(rec.section(w, u), v)


# -- homomorphism laws ---------------------------------------------------------


@given(st.sampled_from((2, 3)), st.data())
def test_decompose_is_multiplicative(q, data):
    rec = WreathRecursion.thue_morse(q)
    u = data.draw(words(q))
    v = data.draw(words(q))
    assert rec.decompose(u + v) == rec.decompose(u) * rec.decompose(v)


@given(st.sampled_from((2, 3)), st.data())
def test_decompose_respects_inverse(q, data):
    rec = WreathRecursion.thue_morse(q)
    w = data.draw(words(q))
    assert rec.decompose(inverse(w)) == rec.decompose(w).inverse()
    product = rec.decompose(w) * rec.decompose(w).inverse()
    assert product.is_plain_identity


@given(st.sampled_from((2, 3)), st.data())
def test_substitution_images_are_diagonal_with_shifted_sections(q, data):
    rec = WreathRecursion.thue_morse(q)
    w = data.draw(words(q, max_len=6))
    elem = rec.decompose(theta(w, q))
    assert elem.perm.is_identity
    for i in range(q):
        assert rec.equal(elem.sections[i], gamma(w, i, q))


# -- word problem -----------------------------------------------------------------


def test_is_trivial_pins():
    for q in (2, 3):
        rec = WreathRecursion.thue_morse(q)
        assert rec.is_trivial(((1, 1),) * q).is_true
        assert rec.is_trivial(()).is_true
        assert rec.is_trivial(((0, 1),)).is_false
        assert rec.is_trivial(((0, 1),) * q).is_false


def test_is_trivial_defining_relations():
    for q in (2, 3):
        rec = WreathRecursion.thue_morse(q)
        left = power(((0, 1), (1, -1)), q)
        right = power(((1, -1), (0, 1)), q)
        assert rec.is_trivial(commutator(left, right)).is_true


def test_high_generators_coincide():
    rec = WreathRecursion.thue_morse(4)
    assert rec.is_trivial(((1, 1), (3, -1))).is_true
    assert rec.is_trivial(((2, 1), (3, 1), (1, -1), (2, -1))).is_true


def test_equal_distinguishes_generators():
    rec = WreathRecursion.thue_morse(2)
    assert rec.equal(((0, 1),), ((1, 1),)).is_false
    assert rec.equal(((1, 1),), ((1, -1),)).is_true


def test_is_trivial_budget_returns_unknown():
    rec = WreathRecursion.thue_morse(2)
    verdict = rec.is_trivial(((0, 1),) * 16, cap_states=2)
    assert verdict.is_unknown and "cap" in str(verdict)


def test_order_of_x1():
    for q in (2, 3, 5):
        rec = WreathRecursion.thue_morse(q)
        assert rec.order_of(((1, 1),)) == q


def test_order_of_x0_is_unresolved_within_cap():
    rec = WreathRecursion.thue_morse(2)
    result = rec.order_of(((0, 1),), cap_power=16)
    assert not isinstance(result, int)


def test_moved_vertex_soundness():
    rec = WreathRecursion.thue_morse(2)
    for word in (((0, 1),), ((0, 1), (0, 1)), ((0, 1), (1, 1))):
        vertex = rec.moved_vertex(word)
        assert vertex is not None
        assert rec.act(word, vertex) != vertex
    assert rec.moved_vertex(((1, 1), (1, 1))) is None


def test_moved_vertex_is_shortest():
    rec = WreathRecursion.thue_morse(2)
    assert rec.moved_vertex(((0, 1),)) == (0,)
    # x0^2 fixes levels 1 and 2 and first moves a level-3 vertex
    assert len(rec.moved_vertex(((0, 1), (0, 1)))) == 3


# -- nucleus ------------------------------------------------------------------------


@pytest.mark.parametrize("q,expected", [(2, 4), (3, 5), (4, 5)])
def test_nucleus_class_count(q, expected):
    rec = WreathRecursion.thue_morse(q)
    result = rec.nucleus()
    assert result.closed
    assert len(result) == expected


def test_nucleus_matches_generator_classes():
    rec = WreathRecursion.thue_morse(3)
    reps = rec.nucleus().representatives
    targets = [(), ((0, 1),), ((0, -1),), ((1, 1),), ((1, -1),)]
    for t in targets:
        assert any(rec.equal(t, r).is_true for r in reps)


def test_nucleus_closed_under_sections_and_inverses():
    for q in (2, 3):
        rec = WreathRecursion.thue_morse(q)
        reps = rec.nucleus().representatives
        for rep in reps:
            assert any(rec.equal(inverse(rep), r).is_true for r in reps)
            elem = rec.decompose(rep)
            for section in elem.sections:
                assert any(rec.equal(section, r).is_true for r in reps)


def test_trivial_recursion_nucleus():
    rec = WreathRecursion.trivial(2)
    result = rec.nucleus()
    assert result.closed and result.representatives == ((),)


# -- profiles and portraits ------------------------------------------------------------


def test_boundedness_profiles():
    for q in (2, 3):
        rec = WreathRecursion.thue_morse(q)
        x0 = rec.boundedness_profile(((0, 1),), 10)
        assert len(x0) == 11 and all(count <= q for count in x0)
        x1 = rec.boundedness_profile(((1, 1),), 10)
        assert all(count == 0 for count in x1[1:])
        assert all(count == 0 for count in rec.boundedness_profile((), 5))


def test_portrait_shapes():
    rec = WreathRecursion.thue_morse(2)
    flat = rec.portrait((), 2)
    assert flat["perm"] == [0, 1]
    assert all(child["perm"] == [0, 1] for child in flat["children"])

    x0 = rec.portrait(((0, 1),), 1)
    assert x0["perm"] == [1, 0]
    assert [c["perm"] for c in x0["children"]] == [[1, 0], [1, 0]]

    # both level-1 sections of x0^2 are rotations with identity root perms
    square = rec.portrait(((0, 1), (0, 1)), 1)
    assert square["perm"] == [0, 1]
    assert [c["perm"] for c in square["children"]] == [[0, 1], [0, 1]]


def test_transposed_variant_runs():
    rec = WreathRecursion.transposed_variant(2)
    elem = rec.decompose(((0, 1),))
    assert elem.sections == (((0, 1),), ((1, 1),))
