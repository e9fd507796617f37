"""Self-similar group engine: decomposition, tree action, word problem.

A group element given as a word decomposes into a root permutation of the
q-ary tree's first level and q section words, one per subtree.  Sections are
indexed by the strand they act on, the product rule is
``(g h)_a = g_a h_{pi_g(a)}`` with ``pi_(gh)(a) = pi_h(pi_g(a))``, and the
tree action ``act(g, a v) = pi_g(a) . act(g_a, v)`` composes as a right
action: ``act(gh, v) = act(h, act(g, v))``.

``WreathRecursion`` bundles the generator images, folds a word into its
decomposition in one pass (``fold``, also the engine behind the algebra's
``phi``), and provides the word problem (``is_trivial``, coinductive
closure with a state budget), element comparison, orders, nucleus
computation, boundedness counters and portraits.
Triviality certified by a closed section set is sound: a set of words with
identity root permutations whose sections stay in the set acts trivially on
every tree level, hence is trivial in the injective quotient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .verdict import Unknown, Verdict
from .words import (
    Letter,
    Word,
    check_word,
    free_reduce,
    inverse,
    power,
)


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0..q-1} stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        assert sorted(self.images) == list(range(len(self.images)))

    @staticmethod
    def identity(q: int) -> "Permutation":
        return Permutation(tuple(range(q)))

    @staticmethod
    def rotation(q: int, shift: int) -> "Permutation":
        return Permutation(tuple((a + shift) % q for a in range(q)))

    @staticmethod
    def transposition(q: int, i: int, j: int) -> "Permutation":
        images = list(range(q))
        images[i], images[j] = images[j], images[i]
        return Permutation(tuple(images))

    def __call__(self, a: int) -> int:
        return self.images[a]

    def then(self, other: "Permutation") -> "Permutation":
        """The composite applying ``self`` first, then ``other``."""
        return Permutation(tuple(other.images[b] for b in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for a, b in enumerate(self.images):
            images[b] = a
        return Permutation(tuple(images))

    @property
    def is_identity(self) -> bool:
        return all(b == a for a, b in enumerate(self.images))


@dataclass(frozen=True)
class WreathElement:
    """One level of decomposition: q freely reduced sections and a root
    permutation."""

    sections: tuple[Word, ...]
    perm: Permutation

    def __post_init__(self):
        assert len(self.sections) == len(self.perm.images)

    @staticmethod
    def identity(q: int) -> "WreathElement":
        return WreathElement(((),) * q, Permutation.identity(q))

    @property
    def q(self) -> int:
        return len(self.sections)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.q != other.q:
            raise ValueError("cannot multiply wreath elements of different arity")
        sections = tuple(
            free_reduce(self.sections[a] + other.sections[self.perm(a)])
            for a in range(self.q)
        )
        return WreathElement(sections, self.perm.then(other.perm))

    def inverse(self) -> "WreathElement":
        pinv = self.perm.inverse()
        sections = tuple(inverse(self.sections[pinv(b)]) for b in range(self.q))
        return WreathElement(sections, pinv)

    @property
    def is_plain_identity(self) -> bool:
        return self.perm.is_identity and all(s == () for s in self.sections)

    def to_json(self) -> dict:
        from .words import render_word

        return {
            "perm": list(self.perm.images),
            "sections": [render_word(s) for s in self.sections],
        }


@dataclass(frozen=True)
class NucleusResult:
    """Nucleus representatives modulo equality, and whether closure finished."""

    representatives: tuple[Word, ...]
    closed: bool

    def __len__(self) -> int:
        return len(self.representatives)


class WreathRecursion:
    """Generator images and every operation built on top of them."""

    def __init__(self, q: int, images: dict[int, WreathElement], name: str = "custom"):
        if q < 2:
            raise ValueError("alphabet size must be at least 2")
        if set(images) != set(range(q)):
            raise ValueError("need exactly one image per generator x0..x%d" % (q - 1))
        for el in images.values():
            if el.q != q:
                raise ValueError("generator image arity differs from q")
            for s in el.sections:
                check_word(s, q)
        self.q = q
        self.name = name
        # per signed letter: root permutation images and sections
        self._letters: dict[Letter, tuple[tuple[int, ...], tuple[Word, ...]]] = {}
        for i, el in images.items():
            inv = el.inverse()
            self._letters[(i, 1)] = (el.perm.images, el.sections)
            self._letters[(i, -1)] = (inv.perm.images, inv.sections)
        # always empty (is_trivial keeps no state); perfbench/tracer.py reads its size
        self._trivial_cache: dict[Word, bool] = {}

    @classmethod
    def thue_morse(cls, q: int) -> "WreathRecursion":
        """The group generated by x_0 = <x_0,...,x_{q-1}> rho and
        x_i = <1,...,1> rho for a one-step rotation rho."""
        rho = Permutation.rotation(q, -1)
        images = {0: WreathElement(tuple(((a, 1),) for a in range(q)), rho)}
        trivial = ((),) * q
        for i in range(1, q):
            images[i] = WreathElement(trivial, rho)
        return cls(q, images, name=f"G_{q}")

    @classmethod
    def inverted_variant(cls, q: int) -> "WreathRecursion":
        """The variant with x_0 = <x_0^-1,...,x_{q-1}^-1> rho' and
        x_i = <1,...,1>(0 <-> i)."""
        rho = Permutation.rotation(q, 1)
        images = {0: WreathElement(tuple(((a, -1),) for a in range(q)), rho)}
        trivial = ((),) * q
        for i in range(1, q):
            images[i] = WreathElement(trivial, Permutation.transposition(q, 0, i))
        return cls(q, images, name=f"H_{q}")

    @classmethod
    def transposed_variant(cls, q: int) -> "WreathRecursion":
        """Like ``inverted_variant`` but with plain sections on x_0."""
        rho = Permutation.rotation(q, 1)
        images = {0: WreathElement(tuple(((a, 1),) for a in range(q)), rho)}
        trivial = ((),) * q
        for i in range(1, q):
            images[i] = WreathElement(trivial, Permutation.transposition(q, 0, i))
        return cls(q, images, name=f"T_{q}")

    @classmethod
    def trivial(cls, q: int) -> "WreathRecursion":
        el = WreathElement.identity(q)
        return cls(q, {i: el for i in range(q)}, name="trivial")

    def fold(self, word: Word) -> tuple[tuple[int, ...], tuple[Word, ...]]:
        """Root permutation images and freely reduced sections of ``word``.

        Reads the word letter by letter; strand a tracks where the prefix
        read so far sends a and collects its section on a stack that cancels
        on push, so the cost is O(len(word) * q) for bounded images.
        """
        letters = self._letters
        pos = list(range(self.q))
        stacks: list[list[Letter]] = [[] for _ in pos]
        for letter in word:
            try:
                images, sections = letters[letter]
            except KeyError:
                check_word((letter,), self.q)  # raises, naming the fault
                raise
            for a, stack in enumerate(stacks):
                b = pos[a]
                for i, sign in sections[b]:
                    if stack and stack[-1][0] == i and stack[-1][1] == -sign:
                        stack.pop()
                    else:
                        stack.append((i, sign))
                pos[a] = images[b]
        return tuple(pos), tuple(map(tuple, stacks))

    def decompose(self, word: Word) -> WreathElement:
        images, sections = self.fold(word)
        return WreathElement(sections, Permutation(images))

    def act(self, word: Word, vertex: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a tree vertex under the element given by ``word``."""
        out: list[int] = []
        current = word
        for a in vertex:
            if not 0 <= a < self.q:
                raise ValueError(f"vertex letter {a} is outside 0..{self.q - 1}")
            el = self.decompose(current)
            out.append(el.perm(a))
            current = el.sections[a]
        return tuple(out)

    def section(self, word: Word, vertex: tuple[int, ...]) -> Word:
        """Iterated section of ``word`` along the vertex path."""
        current = free_reduce(word)
        for a in vertex:
            if not 0 <= a < self.q:
                raise ValueError(f"vertex letter {a} is outside 0..{self.q - 1}")
            current = self.decompose(current).sections[a]
        return current

    def is_trivial(self, word: Word, cap_states: int = 100_000) -> Verdict:
        """Word problem in the injective quotient by coinductive closure.

        Maintains a set of words assumed trivial; a nontrivial root
        permutation anywhere refutes the root, while a section-closed set
        with identity permutations certifies triviality of all its members.
        """
        root = free_reduce(word)
        closure: set[Word] = {root}
        stack: list[Word] = [root]
        while stack:
            if len(closure) > cap_states:
                return Verdict.unknown(cap_states)
            el = self.decompose(stack.pop())
            if not el.perm.is_identity:
                return Verdict.no()
            for s in el.sections:
                if s and s not in closure:
                    closure.add(s)
                    stack.append(s)
        return Verdict.yes()

    def equal(self, left: Word, right: Word, cap_states: int = 100_000) -> Verdict:
        return self.is_trivial(left + inverse(right), cap_states)

    def order_of(self, word: Word, cap_power: int = 256,
                 cap_states: int = 100_000):
        """Least k >= 1 with word^k trivial, or Unknown past the caps."""
        base = free_reduce(word)
        for k in range(1, cap_power + 1):
            verdict = self.is_trivial(power(base, k), cap_states)
            if verdict.is_true:
                return k
            if verdict.is_unknown:
                return Unknown(cap_states)
        return Unknown(cap_power)

    def moved_vertex(self, word: Word,
                     cap_states: int = 10_000) -> tuple[int, ...] | None:
        """Shortest tree vertex moved by the element, or None if the search
        budget runs out (in particular for trivial elements)."""
        from collections import deque

        queue = deque([((), free_reduce(word))])
        visited = 0
        while queue and visited < cap_states:
            path, w = queue.popleft()
            visited += 1
            el = self.decompose(w)
            if not el.perm.is_identity:
                a = min(a for a in range(self.q) if el.perm(a) != a)
                return path + (a,)
            for a in range(self.q):
                if el.sections[a]:
                    queue.append((path + (a,), el.sections[a]))
        return None

    def boundedness_profile(self, word: Word, depth: int,
                            cap_states: int = 100_000) -> tuple[int, ...]:
        """Per level n <= depth, how many level-n sections are not certified
        trivial.  Certified-trivial sections are pruned, so the frontier
        stays small exactly when the element is bounded."""
        level: list[Word] = [free_reduce(word)]
        counts: list[int] = []
        for n in range(depth + 1):
            alive = [w for w in level
                     if not self.is_trivial(w, cap_states).is_true]
            counts.append(len(alive))
            if n == depth:
                break
            level = [s for w in alive for s in self.decompose(w).sections]
        return tuple(counts)

    def portrait(self, word: Word, depth: int) -> dict:
        """Depth-truncated tree of root permutations of all sections."""
        el = self.decompose(word)
        node: dict = {"perm": list(el.perm.images)}
        if depth > 0:
            node["children"] = [self.portrait(s, depth - 1) for s in el.sections]
        return node

    # -- nucleus ---------------------------------------------------------

    def _canonical(self, word: Word, reps: list[Word],
                   cap_states: int) -> Word:
        w = free_reduce(word)
        for r in reps:
            if w == r or self.equal(w, r, cap_states).is_true:
                return r
        reps.append(w)
        return w

    def _limit_classes(self, word: Word, reps: list[Word], cap_nodes: int,
                       cap_states: int) -> set[Word]:
        """Classes that occur at arbitrarily large depth in the iterated
        section graph of ``word``: everything reachable from a cycle."""
        start = self._canonical(word, reps, cap_states)
        edges: dict[Word, tuple[Word, ...]] = {}
        stack = [start]
        while stack:
            u = stack.pop()
            if u in edges:
                continue
            if len(edges) >= cap_nodes:
                raise BudgetExceededError(
                    f"section graph exceeded {cap_nodes} classes")
            secs = tuple(self._canonical(s, reps, cap_states)
                         for s in self.decompose(u).sections)
            edges[u] = secs
            stack.extend(s for s in secs if s not in edges)
        on_cycle = {u for u in edges if self._reaches(u, u, edges)}
        limit: set[Word] = set()
        frontier = list(on_cycle)
        while frontier:
            u = frontier.pop()
            if u in limit:
                continue
            limit.add(u)
            frontier.extend(edges[u])
        return limit

    @staticmethod
    def _reaches(src: Word, dst: Word, edges: dict[Word, tuple[Word, ...]]) -> bool:
        """Whether dst is reachable from src in at least one step."""
        seen: set[Word] = set()
        stack = list(edges[src])
        while stack:
            u = stack.pop()
            if u == dst:
                return True
            if u in seen:
                continue
            seen.add(u)
            stack.extend(edges[u])
        return False

    def nucleus(self, cap_elements: int = 512,
                cap_states: int = 100_000) -> NucleusResult:
        """Minimal absorbing set of the recursion, as representatives modulo
        equality.  Starts from the limit classes of the generators and their
        inverses and closes under limit classes of pairwise products."""
        reps: list[Word] = []
        current: list[Word] = []

        def absorb(classes: set[Word]) -> bool:
            grew = False
            for c in classes:
                if c not in current:
                    current.append(c)
                    grew = True
            return grew

        seeds: list[Word] = [()]
        for i in range(self.q):
            seeds.append(((i, 1),))
            seeds.append(((i, -1),))
        for s in seeds:
            absorb(self._limit_classes(s, reps, cap_elements, cap_states))
        while True:
            grew = False
            for u, v in itertools.product(tuple(current), repeat=2):
                classes = self._limit_classes(free_reduce(u + v), reps,
                                              cap_elements, cap_states)
                if absorb(classes):
                    grew = True
                if len(current) > cap_elements:
                    return NucleusResult(tuple(current), closed=False)
            if not grew:
                return NucleusResult(tuple(sorted(current)), closed=True)


class BudgetExceededError(RuntimeError):
    """Raised when a closure computation outgrows its explicit cap."""
