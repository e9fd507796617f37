"""Wreath recursion engine: decomposition, action, word problem, nucleus."""

import tracemalloc
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import strategies
from tmss import group
from tmss.algebra import _collapsed_thue_morse
from tmss.group import (
    _POWER_MIN,
    Permutation,
    Power,
    WreathElement,
    WreathRecursion,
    _expanded,
    _prime_factors,
    _root_length,
    canonical,
)
from tmss.verdict import ClassExplosionError, Verdict
from tmss.words import (
    InvalidLetterError,
    commutator,
    free_reduce,
    gamma,
    inverse,
    parse_word,
    power,
    theta,
)


words = partial(strategies.words, max_len=8)


def vertices(q: int, max_len: int = 6):
    return st.lists(st.integers(0, q - 1), max_size=max_len).map(tuple)


# -- permutations -----------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: Permutation((0, 0)),
    lambda: Permutation((1, 2)),
    lambda: WreathElement(((), ()), Permutation.identity(3)),
    lambda: WreathElement(((),) * 3, Permutation.identity(2)),
], ids=["repeated-image", "image-out-of-range", "too-few-sections",
        "too-many-sections"])
def test_malformed_wreath_input_raises_value_error(build):
    # a ValueError, not an assert, which python -O would strip
    with pytest.raises(ValueError):
        build()


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
    assert rec.decompose(()) == WreathElement(((),) * 3, Permutation.identity(3))


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
    assert product == WreathElement(((),) * q, Permutation.identity(q))


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


def test_order_of_names_the_cap_that_ran_out():
    rec = WreathRecursion.thue_morse(2)
    x0 = ((0, 1),)
    assert rec.order_of(x0, cap_power=16).limit == "cap_power"
    assert rec.order_of(x0, cap_states=2).limit == "cap_states"
    assert rec.order_of(x0, cap_states=2) == Verdict.unknown(2, "cap_states")


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


def test_nucleus_cap_on_section_graph_reports_open():
    # one generator's section graph already outgrows a cap of one class
    result = WreathRecursion.thue_morse(2).nucleus(cap_elements=1)
    assert result.closed is False


PRESETS = (WreathRecursion.thue_morse, WreathRecursion.inverted_variant,
           WreathRecursion.transposed_variant)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("q", [2, 3, 4])
def test_nucleus_undecided_equality_reports_open(preset, q):
    # at cap 0 no equality is certified, so x1^-1 and its equal power of x1
    # cannot be merged; the closure must stop instead of counting both
    assert preset(q).nucleus(cap_states=0).closed is False


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("q", [2, 3, 4])
def test_nucleus_small_state_caps_keep_the_reference(preset, q):
    reference = preset(q).nucleus()
    assert reference.closed
    for cap in range(1, 5):
        assert preset(q).nucleus(cap_states=cap) == reference


def _reaches_limit_classes(rec, word, reps, cap_nodes, cap_states):
    """The oracle: a depth-first walk of the section graph, then every class
    that reaches itself by a search from its own children, closed forward."""
    start = rec._canonical(word, reps, cap_states)
    edges = {}
    stack = [start]
    while stack:
        u = stack.pop()
        if u in edges:
            continue
        if len(edges) >= cap_nodes:
            raise ClassExplosionError(f"section graph exceeded {cap_nodes}")
        edges[u] = tuple(rec._canonical(s, reps, cap_states)
                         for s in rec.decompose(u).sections)
        stack.extend(s for s in edges[u] if s not in edges)

    def reaches_itself(u):
        seen = set()
        stack = list(edges[u])
        while stack:
            v = stack.pop()
            if v == u:
                return True
            if v not in seen:
                seen.add(v)
                stack.extend(edges[v])
        return False

    limit = set()
    frontier = list({u for u in edges if reaches_itself(u)})
    while frontier:
        u = frontier.pop()
        if u not in limit:
            limit.add(u)
            frontier.extend(edges[u])
    return limit


def trivial_recursion(q: int) -> WreathRecursion:
    """Every generator the identity: the nucleus is the one trivial class."""
    identity = WreathElement(((),) * q, Permutation.identity(q))
    return WreathRecursion(q, {i: identity for i in range(q)})


ALL_PRESETS = PRESETS + (trivial_recursion,)


def _outcome(compute):
    try:
        return compute()
    except ClassExplosionError:
        return "capped"


@given(st.sampled_from(ALL_PRESETS), st.sampled_from((2, 3, 4)),
       st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 12)),
       st.sampled_from((0, 1, 2, 5, 100_000)))
@settings(max_examples=120, deadline=None)
def test_nucleus_matches_the_reaches_oracle(preset, q, cap_elements,
                                            cap_states):
    rec = preset(q)
    result = rec.nucleus(cap_elements, cap_states)
    with mock.patch.object(WreathRecursion, "_limit_classes",
                           _reaches_limit_classes):
        assert rec.nucleus(cap_elements, cap_states) == result


@given(st.sampled_from(PRESETS), st.sampled_from((2, 3, 4)), st.data())
@settings(max_examples=150, deadline=None)
def test_limit_classes_match_the_reaches_oracle(preset, q, data):
    # from a fresh representative list the walk order picks the word that
    # stands for a class (x1 or x2 at q = 3), so classes are compared as
    # elements; the nucleus, seeded in a fixed order, is compared verbatim
    rec = preset(q)
    word = data.draw(words(q, max_len=6))
    cap_nodes = data.draw(st.sampled_from((1, 3, 8, 512)))
    found = _outcome(lambda: rec._limit_classes(word, [], cap_nodes, 100_000))
    oracle = _outcome(lambda: _reaches_limit_classes(rec, word, [], cap_nodes,
                                                     100_000))
    if "capped" in (found, oracle):
        assert found == oracle
        return
    assert len(found) == len(oracle)
    assert all(any(rec.equal(u, v).is_true for v in oracle) for u in found)


def test_trivial_recursion_nucleus():
    rec = trivial_recursion(2)
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


def _nodes(tree: dict) -> int:
    return 1 + sum(_nodes(child) for child in tree.get("children", ()))


@pytest.mark.parametrize("q, depth", [(2, 15), (3, 10)])
def test_the_deepest_portrait_inside_the_node_bound_draws(q, depth):
    rec = WreathRecursion.thue_morse(q)
    tree = rec.portrait(((1, 1),), depth)
    assert _nodes(tree) == (q ** (depth + 1) - 1) // (q - 1) <= 100_000


@pytest.mark.parametrize("q, depth", [(2, 16), (3, 11), (2, 10 ** 9), (5, 10 ** 18)])
def test_a_portrait_past_the_node_bound_raises_before_any_fold(q, depth,
                                                               monkeypatch):
    rec = WreathRecursion.thue_morse(q)

    def no_fold(word):
        raise AssertionError("portrait folded before checking its bound")

    monkeypatch.setattr(rec, "fold", no_fold)
    with pytest.raises(ValueError, match=(
            rf"a portrait of depth {depth} at q={q} has "
            r"\(q\^\(depth\+1\) - 1\)/\(q - 1\) nodes, more than 100000")):
        rec.portrait(((1, 1),), depth)


def test_transposed_variant_runs():
    rec = WreathRecursion.transposed_variant(2)
    elem = rec.decompose(((0, 1),))
    assert elem.sections == (((0, 1),), ((1, 1),))


# -- the strand-by-strand letter loop against the letter-by-letter one -----------


def _fold_by_letters(rec, word):
    """The oracle: ``_fold_letters`` letter by letter, as it was written
    before it walked one strand at a time.  Strand a tracks where the
    prefix read so far sends a and collects its section on a stack that
    cancels on push."""
    pos = list(range(rec.q))
    stacks = [[] for _ in pos]
    for letter in word:
        images, sections = zip(*rec._rows[letter])
        for a, stack in enumerate(stacks):
            b = pos[a]
            for i, sign in sections[b]:
                if stack and stack[-1][0] == i and stack[-1][1] == -sign:
                    stack.pop()
                else:
                    stack.append((i, sign))
            pos[a] = images[b]
    return tuple(pos), tuple(map(tuple, stacks))


FOLD_PRESETS = PRESETS + (_collapsed_thue_morse,)


@given(st.sampled_from(FOLD_PRESETS), st.integers(2, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_fold_letters_matches_the_letter_by_letter_oracle(preset, q, data):
    rec = preset(q)
    word = data.draw(words(q, max_len=40))
    # rooted letters have only empty sections in every preset
    rooted = data.draw(st.lists(st.tuples(st.integers(1, q - 1),
                                          st.sampled_from((1, -1))),
                                max_size=12).map(tuple))
    for w in (word, free_reduce(word), rooted, word + inverse(word)):
        assert rec._fold_letters(w) == _fold_by_letters(rec, w)
    # the sections hold the generator sections' own letter objects
    own = {id(letter) for row in rec._rows.values() for _, section in row
           for letter in section}
    assert all(id(letter) in own for section in rec._fold_letters(word)[1]
               for letter in section)


@given(st.sampled_from(FOLD_PRESETS), st.integers(2, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_fold_letters_names_a_letter_outside_the_alphabet(preset, q, data):
    rec = preset(q)
    word = data.draw(words(q, max_len=10))
    at = data.draw(st.integers(0, len(word)))
    bad = (data.draw(st.integers(q, q + 3)), data.draw(st.sampled_from((1, -1))))
    with pytest.raises(InvalidLetterError,
                       match=f"letter x{bad[0]} is outside x0..x{q - 1}"):
        rec._fold_letters(word[:at] + (bad,) + word[at:])


# -- folding proper powers through their root ------------------------------------
# The letter loop ``_fold_letters`` is the oracle: ``fold`` must agree with it
# on every word, whichever path it takes.


@given(st.sampled_from(ALL_PRESETS), st.integers(2, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_fold_of_powers_matches_the_letter_loop(preset, q, data):
    rec = preset(q)
    # drawn roots are often not freely reduced, and may be powers themselves
    root = data.draw(words(q, max_len=7).filter(bool))
    m = data.draw(st.integers(1, 40))
    tail = data.draw(words(q, max_len=4))
    for word in (power(root, m), power(root, m) + tail, power(root, -m)):
        assert rec.fold(word) == rec._fold_letters(word)


@pytest.mark.parametrize("preset,q,root,m", [
    (WreathRecursion.inverted_variant, 4,
     ((0, -1), (1, 1), (0, -1), (3, -1), (0, 1)), 30),
    (WreathRecursion.transposed_variant, 4,
     ((0, -1), (2, 1), (2, -1), (1, 1), (3, -1), (0, 1), (1, 1)), 5),
    (WreathRecursion.transposed_variant, 2,
     ((0, -1), (0, -1), (0, -1), (1, -1), (0, 1), (1, -1), (0, 1)), 13),
])
def test_fold_of_powers_cancels_at_the_seam(preset, q, root, m):
    # a cycle product t core t^-1 whose full laps end in t^-1 while the
    # leftover factors begin with t: the two parts cancel where they meet
    rec = preset(q)
    word = root * m
    assert rec.fold(word) == rec._fold_letters(word)


@given(st.sampled_from(ALL_PRESETS), st.integers(2, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_fold_of_other_words_matches_the_letter_loop(preset, q, data):
    rec = preset(q)
    word = data.draw(words(q, max_len=80))
    assert rec.fold(word) == rec._fold_letters(word)


def test_powers_are_read_letter_by_letter_only_in_their_root():
    pi5 = tuple((i, 1) for i in range(5))
    x0 = ((0, 1),)
    cases = (
        # Pi sends every strand home, so strand a's section is x_a^(5^7)
        (WreathRecursion.thue_morse(5), pi5 * 5 ** 7, pi5,
         tuple(((a, 1),) * 5 ** 7 for a in range(5))),
        # x0 rotates the strands by -1: strand a collects x_a x_(a-1) x_(a-2)
        (WreathRecursion.thue_morse(3), x0 * 3 ** 10, x0,
         tuple(tuple(((a - j) % 3, 1) for j in range(3)) * 3 ** 9
               for a in range(3))),
    )
    for rec, word, root, sections in cases:
        with mock.patch.object(rec, "_fold_letters",
                               wraps=rec._fold_letters) as spy:
            images, folded = rec.fold(word)
        assert sum(len(call.args[0]) for call in spy.call_args_list) <= len(root)
        assert images == tuple(range(rec.q)) and folded == sections


def test_short_words_take_the_letter_loop():
    rec = WreathRecursion.thue_morse(3)
    with mock.patch.object(rec, "_fold_letters",
                           wraps=rec._fold_letters) as spy:
        rec.fold(((0, 1),) * 11)
    assert spy.call_args_list == [mock.call(((0, 1),) * 11)]


# -- the primitive root of a word ----------------------------------------------


def _naive_root_length(word):
    """The oracle: the least d dividing len(word) with word = word[:d]^m."""
    n = len(word)
    return next(d for d in range(1, n + 1)
                if n % d == 0 and word[:d] * (n // d) == word)


def periodic_words():
    """Nested powers (u^a)^b, the same with one letter changed, and powers
    whose exponent has several prime factors, over three letters so that
    periods often almost hold."""
    letter = st.sampled_from(((0, 1), (1, 1), (0, -1)))
    root = st.lists(letter, min_size=1, max_size=6).map(tuple)
    nested = st.tuples(root, st.integers(1, 6), st.integers(1, 6)).map(
        lambda t: t[0] * t[1] * t[2])

    @st.composite
    def near_miss(draw):
        word = list(draw(nested))
        at = draw(st.integers(0, len(word) - 1))
        word[at] = draw(letter.filter(lambda x: x != word[at]))
        return tuple(word)

    composite = st.tuples(root, st.sampled_from((6, 10, 12, 30, 36, 60, 210))
                          ).map(lambda t: t[0] * t[1])
    return st.one_of(nested, near_miss(), composite)


@given(periodic_words())
@settings(max_examples=400, deadline=None)
def test_root_length_matches_the_naive_oracle(word):
    assert _root_length(word) == _naive_root_length(word)


def _sliced_root_length(word):
    """The oracle for the block compare: ``_root_length`` as it was, with
    one slice compare of the whole period."""
    n = d = len(word)
    for r in _prime_factors(n):
        while d % r == 0:
            p = d // r
            if word[p - 1] != word[d - 1] or word[p:d] != word[:d - p]:
                break
            d = p
    return d


def last_letter_changed():
    """Proper powers u^m whose last letter alone is changed."""
    letter = st.sampled_from(((0, 1), (1, 1), (0, -1)))

    @st.composite
    def build(draw):
        root = draw(st.lists(letter, min_size=1, max_size=5).map(tuple))
        word = root * draw(st.integers(2, 12))
        last = draw(letter.filter(lambda x: x != word[-1]))
        return word[:-1] + (last,)
    return build()


@given(st.sampled_from((1, 2, 3)),
       st.one_of(words(3, max_len=40), periodic_words(), last_letter_changed()))
@settings(max_examples=400, deadline=None)
def test_root_length_in_blocks_matches_one_slice_compare(block, word):
    with mock.patch("tmss.group._ROOT_BLOCK", block):
        assert _root_length(word) == _sliced_root_length(word)


@pytest.mark.parametrize("changed", [False, True])
def test_root_length_copies_no_long_slice(changed):
    # the whole period's slices would be 2 x 2.8 MB here; a letter changed
    # at a quarter of the word stops the compare in its first half
    word = ((0, 1), (1, -1)) * 3 ** 11 * 2
    if changed:
        n = len(word) // 4
        word = word[:n] + ((1, 1),) + word[n + 1:]
    tracemalloc.start()
    try:
        assert _root_length(word) == (len(word) if changed else 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- closure key words: long proper powers as Power(root, m) -------------------


def reduced_powers(q: int):
    """Freely reduced u^m, t u^m t^-1 and u^m followed by a tail, with m
    reaching past ``_POWER_MIN`` letters."""
    @st.composite
    def build(draw):
        root = free_reduce(draw(words(q, max_len=5)))
        m = draw(st.integers(1, 70))
        t = draw(words(q, max_len=3))
        tail = draw(words(q, max_len=3))
        return free_reduce(draw(st.sampled_from((
            power(root, m), t + power(root, m) + inverse(t),
            power(root, m) + tail))))
    return build()


@given(st.integers(2, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_words_are_powers_exactly_when_long_proper_powers(q, data):
    word = data.draw(reduced_powers(q))
    key = canonical(word)
    assert _expanded(key) == word and canonical(key) is key
    d = _naive_root_length(word) if word else 0
    if len(word) >= _POWER_MIN and d < len(word):
        assert type(key) is Power
        assert key.root == word[:d] and key.m == len(word) // d
        assert len(key) == len(word) and hash(key) == hash(Power(key.root, key.m))
    else:
        assert key is word


@given(st.integers(2, 3), st.data())
@settings(max_examples=120, deadline=None)
def test_canonical_words_compare_as_their_expansions(q, data):
    left, right = (data.draw(reduced_powers(q)) for _ in range(2))
    a, b = canonical(left), canonical(right)
    assert (a == b) == (left == right)
    assert (hash(a) == hash(b)) or left != right
    assert (a < b, a <= b, a > b, a >= b) == (
        left < right, left <= right, left > right, left >= right)
    terms = [(a, 1), (b, 2), (left, 3)]
    assert [_expanded(w) for w, _ in sorted(terms, key=lambda t: (len(t[0]), t[0]))
            ] == [w for w, _ in sorted(((left, 1), (right, 2), (left, 3)),
                                      key=lambda t: (len(t[0]), t[0]))]


def _long_sections(q: int) -> WreathRecursion:
    """A recursion whose x0 has sections of three letters, so that a word
    of fewer than ``_POWER_MIN`` letters can have a long section."""
    rho = Permutation.rotation(q, -1)
    images = {0: WreathElement(tuple(((a, 1), (1, 1), (a, 1)) for a in range(q)),
                               rho)}
    for i in range(1, q):
        images[i] = WreathElement(((),) * q, rho)
    return WreathRecursion(q, images)


@given(st.sampled_from(ALL_PRESETS + (_collapsed_thue_morse, _long_sections)),
       st.integers(2, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_key_fold_matches_the_fold_on_canonical_words(preset, q, data):
    rec = preset(q)
    word = data.draw(reduced_powers(q))
    perm, sections = rec._fold_key(canonical(word))
    assert (perm, tuple(map(_expanded, sections))) == rec._fold_letters(word)
    assert all(canonical(_expanded(s)) == s for s in sections)


@pytest.mark.parametrize("preset,q,root,m", [
    (WreathRecursion.inverted_variant, 3,
     ((0, 1), (0, 1), (1, 1), (0, -1), (1, 1)), 12),
    (WreathRecursion.inverted_variant, 4,
     ((0, 1), (0, 1), (1, 1), (0, -1), (1, -1)), 7),
    (WreathRecursion.transposed_variant, 4,
     ((0, 1), (0, 1), (1, 1), (0, -1), (1, -1)), 30),
])
def test_key_fold_of_a_power_whose_cycle_product_is_not_cyclically_reduced(
        preset, q, root, m):
    # a fixed strand whose cycle product is t core t^-1 with t not empty:
    # its powers are not proper powers, so they are written out
    rec = preset(q)
    word = root * m
    key = canonical(word)
    assert type(key) is Power and key.root == root
    perm, sections = rec._fold_key(key)
    assert not all(type(s) is Power for s in sections)
    assert (perm, tuple(map(_expanded, sections))) == rec._fold_letters(word)
    assert all(canonical(_expanded(s)) == s for s in sections)


def test_key_fold_reads_a_power_through_its_root():
    # Pi^(5^7) has 390,625 letters; its sections x_a^(5^7) stay powers, and
    # x0^(5^7) folds through x0 into powers of the cycle product
    rec = WreathRecursion.thue_morse(5)
    pi5 = tuple((i, 1) for i in range(5))
    for word, sections in (
            (Power(pi5, 5 ** 7), tuple(Power(((a, 1),), 5 ** 7) for a in range(5))),
            (Power(((0, 1),), 5 ** 7),
             tuple(Power(tuple(((a - j) % 5, 1) for j in range(5)), 5 ** 6)
                   for a in range(5)))):
        with mock.patch.object(rec, "_fold_letters",
                               wraps=rec._fold_letters) as spy:
            perm, folded = rec._fold_key(word)
        assert [call.args[0] for call in spy.call_args_list] == [word.root]
        assert perm == tuple(range(5)) and folded == sections


# -- word problem in the normal form of F(S) * P -----------------------------


def _closure_on_words(rec, word, cap_states):
    """The word problem as it was decided before the normal form: a
    closure on freely reduced words, each folded by ``fold``."""
    root = free_reduce(word)
    closure = {root}
    stack = [root]
    while stack:
        if len(closure) > cap_states:
            return Verdict.unknown(cap_states, "cap_states")
        images, sections = rec.fold(stack.pop())
        if images != tuple(range(rec.q)):
            return Verdict.no()
        for s in sections:
            if s and s not in closure:
                closure.add(s)
                stack.append(s)
    return Verdict.yes()


def _relators(q):
    """Relators of G_q: x1^q, x_i x_j^-1 and the commutator of
    (x0 x1^-1)^q and (x1^-1 x0)^q."""
    rels = [((1, 1),) * q]
    rels += [((i, 1), (j, -1)) for i in range(1, q) for j in range(1, q)
             if i != j]
    left = power(((0, 1), (1, -1)), q)
    right = power(((1, -1), (0, 1)), q)
    return rels + [commutator(left, right)]


def relator_products(q: int):
    """Products of conjugates g r^(+-1) g^-1 of relators of G_q."""
    factor = st.tuples(words(q, max_len=6), st.sampled_from(_relators(q)),
                       st.sampled_from((1, -1)))
    return st.lists(factor, min_size=1, max_size=5).map(
        lambda factors: sum((g + power(r, e) + inverse(g)
                             for g, r, e in factors), ()))


def powers(q: int):
    """u^m, sometimes followed by a short tail."""
    return st.tuples(words(q, max_len=6).filter(bool), st.integers(1, 60),
                     words(q, max_len=3)).map(
        lambda t: power(t[0], t[1]) + t[2])


@given(st.sampled_from(ALL_PRESETS), st.integers(2, 5),
       st.sampled_from((2, 50, 2000)), st.data())
@settings(max_examples=400, deadline=None)
def test_is_trivial_matches_the_closure_on_words(preset, q, cap, data):
    rec = preset(q)
    word = data.draw(st.one_of(words(q, max_len=60), relator_products(q),
                               powers(q)))
    expected = _closure_on_words(rec, word, cap)
    verdict = rec.is_trivial(word, cap)
    if verdict.is_unknown:
        assert verdict == expected
    elif not expected.is_unknown:
        assert verdict == expected


def _fold_directly(rec, state):
    """``nf.fold`` without the power path and without the normal form's
    strand walk: the state is multiplied out as wreath elements, a perm id
    as its permutation and a section letter as the ``fold`` of the letter,
    so the root permutation is a product of ``Permutation.then``; the
    product's section words are then read as states."""
    nf, q = rec._nf, rec.q
    letters = {code: letter for letter, code in nf.ops.items() if code < 0}
    product = WreathElement(((),) * q, Permutation.identity(q))
    for j, op in enumerate(state):
        product = product * (rec.decompose((letters[op],)) if j % 2 else
                             WreathElement(((),) * q,
                                           Permutation(nf.perms.images[op])))
    if not product.perm.is_identity:
        return None
    return [nf.conjugated(nf.word(s)) for s in product.sections]


def _states(folded):
    return folded if folded is None else [s for s, _ in folded]


def _assert_period(state, period):
    body = state[1:]
    assert period == len(body) or (period and len(body) % period == 0
                                   and body == body[:period] * (len(body) // period))


def _check_state_fold(rec, root, m):
    nf, q = rec._nf, rec.q
    word = power(root, m)
    direct = nf.word(word)
    state, period = nf.power(nf.word(root), m)
    assert state == nf.conjugated(direct)
    _assert_period(state, period)
    if direct[0] == 0:  # then the state's strands are the word's strands
        images, sections = rec.fold(word)
        expected = (None if images != tuple(range(q))
                    else [nf.conjugated(nf.word(s)) for s in sections])
        assert _states(nf.fold(state, period)) == expected
    # through the power path or not, three levels of sections agree
    level = [(state, period)]
    for _ in range(3):
        following = []
        for s, p in level:
            folded = nf.fold(s, p)
            assert _states(folded) == _fold_directly(rec, s)
            for t, period in folded or ():
                _assert_period(t, period)
                following.append((t, period))
        level = following[:8]


@given(st.sampled_from(ALL_PRESETS), st.integers(2, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_state_fold_matches_the_word_fold(preset, q, data):
    root = data.draw(words(q, max_len=6).filter(bool))
    _check_state_fold(preset(q), root, data.draw(st.integers(1, 60)))


@pytest.mark.parametrize("preset,root,m", [
    # cycle products whose factors cancel where they are joined
    (WreathRecursion.transposed_variant,
     ((0, -1), (2, -1), (3, 1), (0, 1), (0, 1), (2, -1)), 24),
    (WreathRecursion.inverted_variant,
     ((2, -1), (0, -1), (2, 1), (0, 1), (2, 1), (0, 1)), 12),
    # laps t core t^-1 whose seam permutation is a product of two
    # permutations that do not commute
    (WreathRecursion.inverted_variant,
     ((0, 1), (1, -1), (0, -1), (3, 1), (0, -1)), 17),
    (WreathRecursion.transposed_variant,
     ((0, -1), (2, -1), (2, 1), (1, 1), (0, -1), (2, 1), (0, 1)), 13),
])
def test_state_fold_of_powers_that_cancel_at_the_seam(preset, root, m):
    _check_state_fold(preset(4), root, m)


def test_states_compose_permutations_as_then_does():
    # in S_3 the order matters: the conjugated state ends with r then p
    nf = WreathRecursion.transposed_variant(3)._nf
    p_images, r_images = (1, 0, 2), (0, 2, 1)
    p, r = nf.perms.id(p_images), nf.perms.id(r_images)
    then = Permutation(r_images).then(Permutation(p_images)).images
    assert nf.perms.mul[r][p] == nf.perms.id(then) != nf.perms.mul[p][r]
    x0 = nf.ops[(0, 1)]
    assert nf.conjugated((p, x0, r)) == (0, x0, nf.perms.id(then))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_relators_vanish_in_the_normal_form(q):
    # x1^q, x_i x_j^-1 and their conjugates by rooted letters reduce to
    # the identity state, so is_trivial folds nothing
    rec = WreathRecursion.thue_morse(q)
    g = ((1, 1), (2 % q, -1), (1, 1))
    for rel in _relators(q)[:-1]:
        for word in (rel, g + rel + inverse(g), inverse(rel)):
            assert rec._nf.word(word) == (0,)
            with mock.patch.object(rec._nf, "fold",
                                   wraps=rec._nf.fold) as spy:
                assert rec.is_trivial(word).is_true
            assert spy.call_count == 1 and spy.call_args.args[0] == (0,)


def test_is_trivial_reads_no_word_letter_by_letter():
    rec = WreathRecursion.thue_morse(3)
    left = power(((0, 1), (1, -1)), 3)
    right = power(((1, -1), (0, 1)), 3)
    with mock.patch.object(rec, "_fold_letters") as letters, \
            mock.patch.object(rec, "fold") as fold:
        assert rec.is_trivial(commutator(left, right)).is_true
        assert rec.is_trivial(((0, 1), (1, 1))).is_false
    assert letters.call_count == fold.call_count == 0


def test_is_trivial_counts_normal_form_states():
    # x0^4 at q = 2 reaches the six states x0^4, (x0 x1)^2 (both of its
    # strands), x0^2, x0 x1, x0 and x1; the closure on words needs nine
    rec = WreathRecursion.thue_morse(2)
    x0 = ((0, 1),)
    assert rec.is_trivial(x0 * 4, cap_states=5) == Verdict.unknown(5, "cap_states")
    assert rec.is_trivial(x0 * 4, cap_states=6).is_false
    assert _closure_on_words(rec, x0 * 4, 8).is_unknown
    assert _closure_on_words(rec, x0 * 4, 9).is_false


def test_is_trivial_rejects_bad_letters():
    rec = WreathRecursion.thue_morse(3)
    for letter in ((0, 0), (3, 1), (-1, 1)):
        with pytest.raises(ValueError):
            rec.is_trivial(((1, 1), letter))


@pytest.mark.parametrize("q,root,m", [
    (2, ((0, 1),), 2 ** 16),
    (3, ((0, 1), (1, 1), (2, 1)), 3 ** 9),
    (5, tuple((i, 1) for i in range(5)), 5 ** 7),
])
def test_long_powers_are_nontrivial_through_their_roots(q, root, m):
    # x0^(2^16), Pi^(3^9) and Pi^(5^7): every level is a proper power of a
    # short root, so no strand is built from more than a few root letters
    rec = WreathRecursion.thue_morse(q)
    with mock.patch.object(rec._nf, "strands", wraps=rec._nf.strands) as spy:
        assert rec.is_trivial(root * m).is_false
    assert max(len(call.args[0]) for call in spy.call_args_list) <= 4 * q + 1


def test_recursions_with_equal_images_share_their_letter_tables():
    assert WreathRecursion.thue_morse(3)._nf is WreathRecursion.thue_morse(3)._nf
    assert WreathRecursion.thue_morse(3)._nf is not WreathRecursion.inverted_variant(3)._nf
    # the fold rows too, also for a recursion built from the same images
    images = {i: WreathRecursion.thue_morse(3).decompose(((i, 1),))
              for i in range(3)}
    rows = WreathRecursion.thue_morse(3)._rows
    assert WreathRecursion(3, images)._rows is rows
    assert WreathRecursion.thue_morse(3)._rows is rows
    assert WreathRecursion.inverted_variant(3)._rows is not rows


def test_letters_with_equal_images_share_one_row():
    rows = WreathRecursion.thue_morse(5)._rows
    for sign in (1, -1):
        assert all(rows[i, sign] is rows[1, sign] for i in range(2, 5))
    assert rows[0, 1] is not rows[1, 1] and rows[1, 1] is not rows[1, -1]
    # the inverted variant's x_i differ in their transpositions
    rows = WreathRecursion.inverted_variant(5)._rows
    assert len({id(rows[i, 1]) for i in range(5)}) == 5


def test_thue_morse_at_a_large_alphabet_holds_linear_tables():
    # one (image, section) row per sign for x_1..x_999, not one per letter:
    # 166 MB of tables by tracemalloc when each letter had its own
    group._letter_tables.cache_clear()
    tracemalloc.start()
    try:
        rec = WreathRecursion.thue_morse(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert rec.fold(((999, 1), (0, -1))) == rec.fold(((1, 1), (0, -1)))


@given(st.sampled_from((4, 5)), st.data())
@settings(max_examples=60, deadline=None)
def test_product_table_composes_as_then_does(q, data):
    # P is all of S_q here; ids interned after rows were filled get rows too
    rec = WreathRecursion.transposed_variant(q)
    rec.is_trivial(data.draw(words(q, max_len=20)))
    perms = rec._nf.perms
    drawn = data.draw(st.lists(st.permutations(range(q)), min_size=1,
                               max_size=6))
    ids = [perms.id(tuple(images)) for images in drawn]
    # ids already in the table, whose number depends on earlier examples
    ids += [k % len(perms.images)
            for k in data.draw(st.lists(st.integers(0, 720), max_size=6))]
    for a in ids:
        for b in ids:
            then = Permutation(perms.images[a]).then(Permutation(perms.images[b]))
            assert perms.images[perms.mul[a][b]] == then.images
            assert perms.mul[a][b] == perms.id(then.images)


def test_plain_verdicts_are_shared_and_unchanged():
    assert Verdict.yes() is Verdict.yes() and Verdict.no() is Verdict.no()
    assert Verdict.yes() == Verdict("true") and Verdict.no() == Verdict("false")
    assert Verdict.yes() != Verdict.no()
    assert str(Verdict.yes()) == "true" and str(Verdict.no()) == "false"
    assert Verdict.yes().is_true and Verdict.no().is_false
