"""The class graph on synthetic child maps: step, routes, limit classes."""

import pytest

from tmss.closure import Closure
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
