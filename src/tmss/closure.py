"""The class graph that every closure in the package walks.

An object is decomposed one level, its pieces are identified up to a key
(the normalized key of a scaling class, a nucleus representative), and
each class is decomposed once.  The child map names a class and each of
its children by a key.  A nucleus representative is its own key.  A
scaling class is numbered once in a class table (``algebra._ClassTable``)
per recursion and ring, and named by that small int, its id, so that no
walk hashes a class key again; the table reads the key back where a walk
looks at its shape.  A scaling class's key is the ``key()`` of its
element once each ``group.Power`` in it, a long proper power held as its
root and exponent, is expanded.  ``Closure`` keeps the classes with their
first parent, the weighted edges, a level step, the strongly connected
components and the exact solve over them.  ``algebra._closure`` builds
the closures of the characters, the zero test, the contraction depth and
the counting of ``L``; the nucleus limit classes build their own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd

from .verdict import ClassExplosionError


class SingularSystemError(ValueError):
    """The dependency system has no unique solution."""


def _solve_system(n: int, rows: list[tuple[dict[int, Fraction], Fraction]]):
    """Solve a square exact system given as (coefficient map, rhs) rows.

    The elimination inside one cyclic component of a closure, and the
    dense oracle that the component-wise solve is tested against.
    """
    if len(rows) != n:
        raise SingularSystemError(f"system has {len(rows)} rows for {n} variables")
    dense = [[Fraction(0)] * n + [rhs] for _, rhs in rows]
    for r, (coeffs, _) in enumerate(rows):
        for c, val in coeffs.items():
            dense[r][c] = val
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if dense[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise SingularSystemError("dependency system is singular")
        dense[col], dense[pivot] = dense[pivot], dense[col]
        inv = 1 / dense[col][col]
        dense[col] = [v * inv for v in dense[col]]
        for r in range(n):
            if r != col and dense[r][col] != 0:
                factor = dense[r][col]
                dense[r] = [a - factor * b for a, b in zip(dense[r], dense[col])]
    return [dense[r][n] for r in range(n)]


def _known_part(edges: dict, values: list, inside) -> tuple[int, int]:
    """The sum of weight * value over the children in ``edges`` that are
    not in ``inside``, as (numerator, denominator) over one integer
    denominator, not reduced.

    Weights and values are ints or Fractions.  The denominator grows by an
    lcm only when a term's denominator does not divide it, so a sum of
    integral terms stays over 1 and no gcd is taken per edge (Knuth, TAOCP
    Vol. 2, 4.5.1)."""
    num, den = 0, 1
    for child, w in edges.items():
        if child in inside:
            continue
        v = values[child]
        d = w.denominator * v.denominator
        if den % d:
            grown = den // gcd(den, d) * d
            num *= grown // den
            den = grown
        num += w.numerator * v.numerator * (den // d)
    return num, den


class Closure:
    """Classes reached from a root under a child map.

    Classes are registered by key, at most ``cap_classes`` of them (no cap
    when None); one more raises ClassExplosionError.  ``children(key)``
    returns None for a base class or an iterable of (key, weight, label)
    triples, and ``expand`` calls it at most once per class.  A
    class keeps the class and label it was first reached from, so ``path``
    reads back a route from the root.  When the keys are the ids of a
    class table, ``table`` is that table, and ``key`` reads a class's key
    back from it.
    """

    def __init__(self, key, children, cap_classes: int | None = None,
                 table=None):
        if cap_classes is not None and cap_classes < 1:
            raise ClassExplosionError(f"closure exceeded {cap_classes} classes")
        self._children = children
        self._cap = cap_classes
        self.table = table
        self._index: dict = {key: 0}
        self.keys: list = [key]
        self.depth: list[int] = [0]
        self.parent: list[tuple[int, object] | None] = [None]
        self.edges: dict[int, dict | None] = {}

    def expand(self, idx: int) -> dict | None:
        """Class ``idx``'s children as {child index: summed weight}, in
        first-occurrence order, or None for a base class.  A child not
        met before is registered here, with this class and its label as
        its first parent."""
        edges = self.edges
        if idx in edges:
            return edges[idx]
        out = self._children(self.keys[idx])
        if out is not None:
            index, keys, cap = self._index, self.keys, self._cap
            depth = self.depth[idx] + 1
            grown: dict = {}
            for key, weight, label in out:
                child = index.get(key)
                if child is None:
                    child = len(keys)
                    if cap is not None and child >= cap:
                        raise ClassExplosionError(
                            f"closure exceeded {cap} classes")
                    index[key] = child
                    keys.append(key)
                    self.parent.append((idx, label))
                    self.depth.append(depth)
                grown[child] = grown.get(child, 0) + weight
            out = grown
        edges[idx] = out
        return out

    def key(self, idx: int):
        """The key of class ``idx``, read back from the table if there is one."""
        key = self.keys[idx]
        return key if self.table is None else self.table.keys[key]

    def path(self, idx: int) -> list:
        """The labels along first parents from the root to class ``idx``."""
        labels = []
        while self.parent[idx] is not None:
            idx, label = self.parent[idx]
            labels.append(label)
        return labels[::-1]

    def step(self, level: dict[int, int]) -> dict[int, int]:
        """The next level of a walk by depth: every class of ``level``
        expanded, with its multiplicity times the edge weight summed per
        child, in first-occurrence order.  A base class has no children."""
        edges = self.edges
        grown: dict[int, int] = {}
        for idx, multiplicity in level.items():
            out = edges[idx] if idx in edges else self.expand(idx)
            for child, weight in (out or {}).items():
                grown[child] = grown.get(child, 0) + multiplicity * weight
        return grown

    def components(self) -> list[list[int]]:
        """Expand every class in index order, then list the strongly
        connected components of the class graph, each after every
        component it reaches: Tarjan (SIAM J. Comput. 1(2), 1972) with an
        explicit stack, since closure depth grows with the input.  Every
        class is reachable from class 0."""
        for idx, _ in enumerate(self.keys):  # keys grows as it is walked
            self.expand(idx)
        edges = self.edges
        n = len(self.keys)
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        found: list[list[int]] = []
        order = count()

        def visit(v: int):
            index[v] = low[v] = next(order)
            stack.append(v)
            on_stack[v] = True
            return v, iter(edges[v] or ())

        work = [visit(0)]
        while work:
            v, children = work[-1]
            for w in children:
                if index[w] < 0:
                    work.append(visit(w))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        on_stack[component[-1]] = False
                    found.append(component)
        return found

    def limit_classes(self) -> set[int]:
        """The classes that occur at arbitrarily large depth: everything
        reachable from a component of two or more classes or from a class
        with a self-loop."""
        stack = [c for comp in self.components()
                 if len(comp) > 1 or comp[0] in (self.edges[comp[0]] or ())
                 for c in comp]
        limit: set[int] = set()
        while stack:
            c = stack.pop()
            if c not in limit:
                limit.add(c)
                stack.extend(self.edges[c] or ())
        return limit

    def solve(self, q: int):
        """Solve q chi(c) = sum of weight * chi(child) with chi = 1 on base
        classes; the root's value, as a Fraction, and info.

        Components are solved children first, so each sees only known
        values outside itself; the system is singular exactly when one
        component's block is.  A class alone in its component is solved by
        back-substitution: its known part is summed over one common integer
        denominator (``_known_part``) and divided by its pivot q - w(c, c)
        once, so each class costs one reduction, not one per edge.  A
        component of two or more classes takes its known parts as the
        right-hand side of ``_solve_system``.  Base and integral values are
        held as ints.
        """
        components = self.components()
        values: list = [None] * len(self.keys)
        largest = 1
        for component in components:
            largest = max(largest, len(component))
            if len(component) == 1:
                c = component[0]
                edges = self.edges[c]
                if edges is None:
                    values[c] = 1
                    continue
                pivot = q - edges.get(c, 0)
                if pivot == 0:
                    raise SingularSystemError("dependency system is singular")
                num, den = _known_part(edges, values, component)
                num *= pivot.denominator
                den *= pivot.numerator
                values[c] = num // den if num % den == 0 else Fraction(num, den)
                continue
            position = {c: i for i, c in enumerate(component)}
            rows: list[tuple[dict[int, Fraction], Fraction]] = []
            for c in component:
                coeffs = {position[c]: Fraction(q)}
                for child, w in self.edges[c].items():
                    j = position.get(child)
                    if j is not None:
                        coeffs[j] = coeffs.get(j, Fraction(0)) - w
                rows.append((coeffs,
                             Fraction(*_known_part(self.edges[c], values, position))))
            for c, value in zip(component, _solve_system(len(rows), rows)):
                values[c] = value
        return Fraction(values[0]), {"classes_used": len(self.keys),
                                     "depth": max(self.depth),
                                     "largest_component": largest}
