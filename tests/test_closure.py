"""The class graph on synthetic child maps: step, routes, limit classes
and the exact solve."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tmss.closure import Closure, SingularSystemError, _solve_system
from tmss.verdict import ClassExplosionError


def graph(edges, weight=1):
    """A closure over integer classes 0..n, rooted at 0; ``edges[c]`` lists
    the children of c in order, and a class without an entry is a base."""

    def children(c):
        if c not in edges:
            return None
        return [(child, weight, f"{c}>{child}") for child in edges[c]]

    return Closure(0, children)


CHAIN = {0: [1], 1: [2]}
SELF_LOOP = {0: [1], 1: [1, 2]}
TWO_CYCLE_WITH_TAIL = {0: [1], 1: [2], 2: [1, 3], 3: [4]}


def test_step_on_a_chain():
    closure = graph(CHAIN, weight=3)
    assert closure.step({0: 1}) == {1: 3}
    assert closure.step({1: 3}) == {2: 9}
    assert closure.step({2: 9}) == {}  # class 2 is a base


def test_step_sums_multiplicities_in_first_occurrence_order():
    closure = graph({0: [2, 1, 2], 1: [2], 2: [1]})

    def by_key(level):
        return [(closure.keys[c], m) for c, m in level.items()]

    level = closure.step({0: 1})
    assert by_key(level) == [(2, 2), (1, 1)]
    assert by_key(closure.step(level)) == [(1, 2), (2, 1)]


def test_step_on_a_self_loop():
    closure = graph(SELF_LOOP)
    level = {0: 1}
    for expected in ({1: 1}, {1: 1, 2: 1}, {1: 1, 2: 1}):
        level = closure.step(level)
        assert level == expected


def test_routes_follow_first_parents():
    closure = graph(TWO_CYCLE_WITH_TAIL)
    level = {0: 1}
    for _ in range(4):
        level = closure.step(level)
    assert closure.path(0) == []
    assert closure.path(4) == ["0>1", "1>2", "2>3", "3>4"]
    assert closure.depth == [0, 1, 2, 3, 4]
    # class 1 is reached again from class 2, but keeps its first parent
    assert closure.parent[1] == (0, "0>1")


@pytest.mark.parametrize("edges, limit", [
    (CHAIN, set()),
    (SELF_LOOP, {1, 2}),
    (TWO_CYCLE_WITH_TAIL, {1, 2, 3, 4}),
    ({0: [0]}, {0}),
    ({0: [1, 2], 1: [0], 2: [3]}, {0, 1, 2, 3}),
])
def test_limit_classes_are_the_classes_below_a_cycle(edges, limit):
    assert graph(edges).limit_classes() == limit


def test_cap_counts_registered_classes():
    def children(c):
        return [(c + 1, 1, None)]

    closure = Closure(0, children, cap_classes=3)
    closure.step(closure.step({0: 1}))
    with pytest.raises(ClassExplosionError):
        closure.step({2: 1})


# -- the exact solve against per-edge back-substitution -------------------------


def _per_edge_solve(closure, q):
    """The oracle: ``Closure.solve`` as a Fraction sum per edge and one
    division per class, with cyclic components eliminated by
    ``_solve_system``."""
    values: dict[int, Fraction] = {}
    largest = 1
    for component in closure.components():
        largest = max(largest, len(component))
        if len(component) == 1:
            c = component[0]
            edges = closure.edges[c]
            if edges is None:
                values[c] = Fraction(1)
                continue
            known = sum((w * values[child] for child, w in edges.items()
                         if child != c), Fraction(0))
            pivot = q - edges.get(c, 0)
            if pivot == 0:
                raise SingularSystemError("dependency system is singular")
            values[c] = known / pivot
            continue
        position = {c: i for i, c in enumerate(component)}
        rows = []
        for c in component:
            coeffs = {position[c]: Fraction(q)}
            rhs = Fraction(0)
            for child, w in closure.edges[c].items():
                j = position.get(child)
                if j is None:
                    rhs += w * values[child]
                else:
                    coeffs[j] = coeffs.get(j, Fraction(0)) - w
            rows.append((coeffs, rhs))
        values.update(zip(component, _solve_system(len(rows), rows)))
    return values[0], {"classes_used": len(closure.keys),
                       "depth": max(closure.depth),
                       "largest_component": largest}


WEIGHTS = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
           Fraction(5, 2), Fraction(7, 6))


@st.composite
def weighted_graphs(draw):
    """A child map on classes 0..n-1, rooted at 0: each class is a base
    or lists weighted children, repeats, self-loops and cycles included."""
    n = draw(st.integers(1, 7))
    edges = {}
    for c in range(n):
        if c and draw(st.integers(0, 3)) == 0:
            continue  # a base class
        edges[c] = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(WEIGHTS)),
            max_size=4))
    return edges


def weighted_graph(edges):
    def children(c):
        if c not in edges:
            return None
        return [(child, w, None) for child, w in edges[c]]

    return Closure(0, children)


def _solved(solve, edges, q):
    try:
        value, info = solve(weighted_graph(edges), q)
    except SingularSystemError:
        return "singular"
    assert type(value) is Fraction
    return value, info


@given(weighted_graphs(), st.integers(1, 5))
@settings(max_examples=400, deadline=None)
def test_solve_matches_per_edge_back_substitution(edges, q):
    assert (_solved(Closure.solve, edges, q)
            == _solved(_per_edge_solve, edges, q))


@pytest.mark.parametrize("edges, q, expected", [
    ({}, 2, (1, 1)),  # the root is a base class
    ({0: []}, 3, (0, 1)),  # no children: q chi = 0
    ({0: [(1, 1), (2, Fraction(1, 2))]}, 3, (Fraction(1, 2), 1)),
    ({0: [(0, Fraction(5, 2)), (1, 1)]}, 2, (-2, 1)),  # negative pivot
    ({0: [(0, 1), (0, 1)]}, 2, ("singular", None)),  # summed self-loop
    ({0: [(1, 1)], 1: [(0, 1), (2, 3)]}, 2, (Fraction(1), 2)),
    ({0: [(1, 1)], 1: [(0, 4)]}, 2, ("singular", None)),
])
def test_solve_on_small_graphs(edges, q, expected):
    got = _solved(Closure.solve, edges, q)
    value, largest = expected
    if value == "singular":
        assert got == "singular"
    else:
        assert got[0] == value and got[1]["largest_component"] == largest
    assert got == _solved(_per_edge_solve, edges, q)
