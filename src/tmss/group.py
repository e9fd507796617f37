"""Self-similar group engine: decomposition, tree action, word problem.

A group element given as a word decomposes into a root permutation of the
q-ary tree's first level and q section words, one per subtree.  Sections are
indexed by the strand they act on, the product rule is
``(g h)_a = g_a h_{pi_g(a)}`` with ``pi_(gh)(a) = pi_h(pi_g(a))``, and the
tree action ``act(g, a v) = pi_g(a) . act(g_a, v)`` composes as a right
action: ``act(gh, v) = act(h, act(g, v))``.

``WreathRecursion`` bundles the generator images, folds a word into its
decomposition in linear time (``fold``, also the engine behind the algebra's
``phi``), and provides the word problem (``is_trivial``, coinductive
closure with a state budget), element comparison, orders, the nucleus
(its limit classes walk the section graph as a ``closure.Closure``),
boundedness counters and portraits.
Triviality certified by a closed section set is sound: a set of elements
with identity root permutations whose sections stay in the set acts
trivially on every tree level, hence is trivial in the injective quotient.
The word problem keeps its elements as states in the free-product normal
form of section letters and rooted permutations (``_NormalForm``), where a
generator with only empty sections is its root permutation; permutations
are interned ids composed by a lazily filled product table.
The closures over the algebra hold a long proper power in their keys as a
``Power`` (root and exponent), and fold it through its root with
``_fold_key``, so a deep tower is never written out; ``_fold_key`` keeps
its folds across calls in a memo bounded by the letters it holds
(``_Memo``).
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .closure import Closure
from .verdict import ClassExplosionError, Verdict
from .words import (
    LazyMap,
    Letter,
    Word,
    check_alphabet,
    check_word,
    free_reduce,
    inverse,
    power,
    render_word,
    shared_letters,
)


# shorter words are never searched for a root: below about this length
# the letter loop is faster than folding through the root, at q = 2..5
_POWER_MIN = 32

# _root_length compares a candidate period this many letters at a time, so
# that no copy it makes is longer than this
_ROOT_BLOCK = 1 << 14

# the most nodes a portrait draws: (q^(d+1) - 1)/(q - 1) at depth d, so
# depth 15 at q = 2 (65,535 nodes) and depth 10 at q = 3 (88,573) still draw
_PORTRAIT_NODES = 100_000


@lru_cache(maxsize=1024)
def _prime_factors(n: int) -> tuple[int, ...]:
    out: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _root_length(word) -> int:
    """Length of the primitive root u of ``word``, the shortest u with
    ``word = u^m``.  The periods of a word that divide its length are the
    multiples of |u|, so dividing out one prime at a time while the period
    holds ends at |u|.

    With d a period of the word, a period p dividing d is a period of the
    whole word exactly when it is one of the prefix of length d, so each
    test compares inside the current period only: O(len(word)) per prime
    factor of the length, ``_ROOT_BLOCK`` letters at a time."""
    n = d = len(word)
    for r in _prime_factors(n):
        while d % r == 0:
            p = d // r
            # last letter of the period rejects in O(1); then word[p:d] is
            # compared with word[:m] a block at a time: whole blocks while
            # more than one is left (one that differs stops the loop short),
            # then the rest up to m
            if word[p - 1] != word[d - 1]:
                break
            i, m = 0, d - p
            while m - i > _ROOT_BLOCK and (word[p + i:p + i + _ROOT_BLOCK]
                                           == word[i:i + _ROOT_BLOCK]):
                i += _ROOT_BLOCK
            if m - i > _ROOT_BLOCK or word[p + i:d] != word[i:m]:
                break
            d = p
    return d


class Power:
    """The word ``root^m`` as a closure key holds it: ``root`` freely and
    cyclically reduced and primitive, m >= 2 and at least ``_POWER_MIN``
    letters in all (``canonical``).

    Each word has one canonical form, so a ``Power`` never equals a tuple
    and two powers are equal exactly when their roots and exponents are:
    equality costs O(|root|) and the hash is computed once.  The order is
    that of the expanded tuples; the keys compare words inside ``(len,
    word)`` sort keys, so a power is expanded only on a length tie.  A
    ``Power`` never enters an ``AlgebraElement``."""

    __slots__ = ("root", "m", "_len", "_hash")

    def __init__(self, root: Word, m: int):
        self.root = root
        self.m = m
        self._len = len(root) * m
        self._hash = hash((Power, root, m))

    def __len__(self) -> int:
        return self._len

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if type(other) is not Power:
            return NotImplemented
        return (self._hash == other._hash and self.m == other.m
                and self.root == other.root)

    def __lt__(self, other):
        return _expanded(self) < _expanded(other)

    def __gt__(self, other):
        return _expanded(self) > _expanded(other)

    def __le__(self, other):
        return _expanded(self) <= _expanded(other)

    def __ge__(self, other):
        return _expanded(self) >= _expanded(other)

    def __repr__(self) -> str:
        return f"Power({self.root!r}, {self.m})"


def _expanded(word) -> Word:
    """``word`` as a tuple of letters."""
    return word.root * word.m if type(word) is Power else word


def _power_key(word: Word, j: int):
    """The canonical form of ``word^j``, for a freely reduced ``word`` that
    is cyclically reduced when j >= 2: a ``Power`` of the primitive root
    of ``word`` from ``_POWER_MIN`` letters on, else the tuple."""
    n = len(word) * j
    if n < _POWER_MIN:
        return word * j
    d = _root_length(word)
    return Power(word[:d], n // d) if n > d else word


def canonical(word):
    """The one form of a freely reduced word in a closure key: a ``Power``
    for a proper power of at least ``_POWER_MIN`` letters, else the tuple."""
    if len(word) < _POWER_MIN or type(word) is Power:
        return word
    return _power_key(word, 1)


# the most letters that one memo of the closures holds: a fold memo
# (``_Memo``) or a class table (``algebra._ClassTable``)
_MEMO_LETTERS = 1 << 18


def _held(word) -> int:
    """The letters that a key word holds: a ``Power`` holds its root."""
    return len(word.root) if type(word) is Power else len(word)


class _Memo(dict):
    """Results of a pure function of closure key words, kept across calls:
    the folds of one recursion.  It holds at most ``_MEMO_LETTERS`` letters,
    each result counted as the ``_held`` letters of its key and its value.
    A result larger than the bound is not kept, and one that would pass
    the bound empties the memo first.  The values are shared with every
    caller, so they are immutable.  Folds of related words have equal
    parts (a permutation, a section), so ``parts`` keeps one object for
    each distinct part of the results kept, until the memo is emptied."""

    __slots__ = ("letters", "parts")

    def __init__(self):
        super().__init__()
        self.letters = 0
        self.parts: dict = {}

    def share(self, part):
        """The one object kept for ``part``: ``part`` itself if it is new."""
        return self.parts.setdefault(part, part)

    def keep(self, key, value, letters: int):
        """Remember ``value`` for ``key``, counted as ``letters``; return it."""
        if letters <= _MEMO_LETTERS:
            if self.letters + letters > _MEMO_LETTERS:
                self.clear()
            self[key] = value
            self.letters += letters
        return value

    def clear(self) -> None:
        super().clear()
        self.parts.clear()
        self.letters = 0


def _cycles(images: tuple[int, ...]) -> list[list[int]]:
    """The cycles of a permutation, each from its least point."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if not seen[start]:
            cycle = [start]
            while (b := images[cycle[-1]]) != start:
                cycle.append(b)
            for b in cycle:
                seen[b] = True
            out.append(cycle)
    return out


def _product(sections: tuple[Word, ...], strands: list[int]) -> Word:
    """Free reduction of the concatenated sections along ``strands``."""
    return free_reduce(tuple(itertools.chain.from_iterable(
        sections[b] for b in strands)))


def _reduced_power(word: Word, r: int) -> Word:
    """``word^r`` freely reduced, for a freely reduced ``word``: writing it
    as ``t core t^-1`` with ``core`` cyclically reduced, the power is
    ``t core^r t^-1``."""
    if r == 0:
        return ()
    n, t = len(word), 0
    while (2 * t + 1 < n and word[t][0] == word[n - 1 - t][0]
           and word[t][1] == -word[n - 1 - t][1]):
        t += 1
    return word[:t] + word[t:n - t] * r + word[n - t:]


def _join(left: Word, right: Word) -> Word:
    """Product of two freely reduced words, cancelling at the seam only."""
    n, i = min(len(left), len(right)), 0
    while (i < n and left[-1 - i][0] == right[i][0]
           and left[-1 - i][1] == -right[i][1]):
        i += 1
    return left[:len(left) - i] + right[i:]


def _key_section(product: Word, laps: int, tail: Word):
    """A strand's section of a proper power, ``product^laps`` followed by
    ``tail`` (both freely reduced), in its canonical form, with no
    materialized power when ``product`` is cyclically reduced and ``tail``
    is empty."""
    if (not tail and product and (product[0][0] != product[-1][0]
                                  or product[0][1] != -product[-1][1])):
        return _power_key(product, laps)
    return canonical(_join(_reduced_power(product, laps), tail))


class _Perms:
    """Interned permutations of {0..q-1}: ``ids`` maps images to an id (0
    is the identity), ``images`` lists them by id, and ``mul[a][b]`` is the
    id of a followed by b, from one ``LazyMap`` row per id that holds only
    the products asked for, as P may be all of S_q (``transposed_variant``)."""

    __slots__ = ("ids", "images", "mul")

    def __init__(self, q: int):
        self.ids: dict[tuple[int, ...], int] = {}
        self.images: list[tuple[int, ...]] = []
        self.mul: list[LazyMap] = []
        self.id(tuple(range(q)))

    def id(self, images: tuple[int, ...]) -> int:
        pid = self.ids.get(images)
        if pid is None:
            pid = self.ids[images] = len(self.images)
            self.images.append(images)
            self.mul.append(LazyMap(lambda b: self.id(
                tuple(map(self.images[b].__getitem__, images)))))
        return pid


class _NormalForm:
    """The states of the word problem for one table of generator images:
    normal forms in F(S) * P (see ``WreathRecursion.is_trivial``).

    A state is a flat tuple (p0, s1, p1, ..., sk, pk) of perm ids p and
    section letter codes s, the product p0 s1 p1 ... sk pk, in which no
    s p s' has p the identity and s' the inverse of s.  The section letter
    (i, sign) has the code ~(2i + (sign < 0)), so codes are negative and
    code ^ 1 is the inverse letter.  Perm ids compose by ``perms.mul``.
    ``strands`` reads a state's sections one strand at a time, each pair
    (s, p) of the state as one step row ``steps[s][p]``, built on first
    use: per position b, the section at b as ops and the strand that s and
    then p move b to.  ``fold`` refutes a state at the first strand that
    does not end where it starts.
    """

    def __init__(self, q: int,
                 letters: dict[Letter, tuple[tuple[int, ...], tuple[Word, ...]]]):
        self.q = q
        self.perms = _Perms(q)
        # per signed letter: its perm id if it is rooted, else its code
        self.ops: dict[Letter, int] = {}
        for (i, sign), (perm, sections) in letters.items():
            self.ops[(i, sign)] = (~(2 * i + (sign < 0)) if any(sections)
                                   else self.perms.id(perm))
        # per code, indexed by code: its step rows, keyed by perm id
        self.steps: list[LazyMap | None] = [None] * (2 * q)
        images = self.perms.images
        for letter, code in self.ops.items():
            if code < 0:
                perm, sections = letters[letter]
                base = tuple((tuple(op for op in self.word(sections[b]) if op),
                              perm[b]) for b in range(q))
                self.steps[code] = LazyMap(lambda p, base=base: tuple(
                    (section, images[p][b]) for section, b in base))

    def state(self, ops) -> tuple[int, ...]:
        """The state of the product of ``ops``: a perm id (>= 0) composes
        into the top permutation, and a section letter code cancels its
        inverse across an identity top or is pushed."""
        mul = self.perms.mul
        # the state below the top permutation, over a bottom 0 that no
        # letter code matches
        stack, top = [0], 0
        push, pop = stack.append, stack.pop
        for op in ops:
            if op < 0:
                if top == 0 and stack[-1] == op ^ 1:
                    pop()
                    top = pop()
                else:
                    push(top)
                    push(op)
                    top = 0
            elif top:
                top = mul[top][op]
            else:
                top = op
        push(top)
        return tuple(stack[1:])

    def word(self, word: Word) -> tuple[int, ...]:
        """The state of ``word``."""
        try:
            return self.state(map(self.ops.__getitem__, word))
        except KeyError:
            check_word(word, self.q)  # raises, naming the fault
            raise

    def join(self, left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
        """Product of two states, cancelling at the seam only."""
        i, top = 0, self.perms.mul[left[-1]][right[0]]
        while (top == 0 and 2 * i + 1 < min(len(left), len(right))
               and left[-2 - 2 * i] == right[2 * i + 1] ^ 1):
            i += 1
            top = self.perms.mul[left[-1 - 2 * i]][right[2 * i]]
        return left[:len(left) - 1 - 2 * i] + (top,) + right[2 * i + 1:]

    def conjugated(self, state: tuple[int, ...]) -> tuple[int, ...]:
        """``p0^-1 state p0``, which starts with the identity."""
        if not state[0] or len(state) == 1:
            return state
        return (0,) + state[1:-1] + (self.perms.mul[state[-1]][state[0]],)

    def power(self, state: tuple[int, ...], r: int) -> tuple[tuple[int, ...], int]:
        """``state^r`` for r >= 1, conjugated to start with the identity,
        and the length of a period of its body.  The power is
        ``t core^r t^-1``, where t is the part that cancels where two
        copies of ``state`` meet; with t empty the conjugated power is the
        identity followed by r copies of the conjugated state's body."""
        perms, mul = self.perms, self.perms.mul
        k, t = len(state) // 2, 0
        while (2 * t + 1 < k
               and mul[state[2 * (k - t)]][state[2 * t]] == 0
               and state[2 * (k - t) - 1] == state[2 * t + 1] ^ 1):
            t += 1
        if k == 2 * t:  # state = t p t^-1
            rooted = [0] * self.q
            for cycle in _cycles(perms.images[state[2 * t]]):
                for i, a in enumerate(cycle):
                    rooted[a] = cycle[(i + r) % len(cycle)]
            middle = perms.id(tuple(rooted))
            if middle == 0:
                return (0,), 0
            out = state[:2 * t] + (middle,) + state[2 * t + 1:]
        elif t == 0:
            unit = state[1:-1] + (mul[state[-1]][state[0]],)
            return (0,) + unit * r, len(unit)
        else:
            body = state[2 * t + 1:2 * (k - t)]
            seam = mul[state[2 * (k - t)]][state[2 * t]]
            out = (state[:2 * t + 1] + (body + (seam,)) * (r - 1) + body
                   + state[2 * (k - t):])
        out = self.conjugated(out)
        return out, len(out) - 1

    def strands(self, state: tuple[int, ...]
                ) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield strand a's section of ``state``, a state, and the strand it
        ends on (the image of a under the root permutation), one strand at
        a time for each a.  Each strand reads one step row per (code, perm)
        pair of ``state`` and pushes the row's section ops straight onto a
        cancelling stack, as ``state`` does."""
        images, mul, steps = self.perms.images, self.perms.mul, self.steps
        rows = [steps[code][p] for code, p in zip(state[1::2], state[2::2])]
        stack = [0]
        push, pop = stack.append, stack.pop
        for b in images[state[0]]:
            top = 0
            for row in rows:
                section, b = row[b]
                for op in section:
                    if op < 0:
                        if top == 0 and stack[-1] == op ^ 1:
                            pop()
                            top = pop()
                        else:
                            push(top)
                            push(op)
                            top = 0
                    elif top:
                        top = mul[top][op]
                    else:
                        top = op
            push(top)
            yield tuple(stack[1:]), b
            del stack[1:]

    def fold(self, state: tuple[int, ...], period: int
             ) -> list[tuple[tuple[int, ...], int]] | None:
        """The sections of a state that starts with the identity, each
        conjugated to start with the identity and paired with a period of
        its body, or None if the root permutation is not the identity.
        ``period`` is the length of a period of the body of ``state``.

        A body ``(s1, p1, ..., sk, pk)`` that is a proper power ``u^m``
        folds ``u`` once and builds each section from the cycle of
        ``perm(u)`` through its strand, as ``WreathRecursion.fold`` does
        for words.  Its root is searched for in the given period, and in a
        body without a shorter period only from ``_POWER_MIN // 2``
        section letters on."""
        k = len(state) // 2
        d = k
        if period < 2 * k or k >= _POWER_MIN // 2:
            d = _root_length(state[1:period + 1]) // 2
        if d == k:
            out = []
            for a, (section, end) in enumerate(self.strands(state)):
                if end != a:
                    return None
                section = self.conjugated(section)
                out.append((section, len(section) - 1))
            return out
        unit, m = state[:2 * d + 1], k // d
        sections, ends = zip(*self.strands(unit))
        cycles = _cycles(ends)
        if any(m % len(cycle) for cycle in cycles):
            return None
        out = [((0,), 0)] * self.q
        for cycle in cycles:
            for i, a in enumerate(cycle):
                lap = sections[a]
                for b in cycle[i + 1:] + cycle[:i]:
                    lap = self.join(lap, sections[b])
                out[a] = self.power(lap, m // len(cycle))
        return out


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0..q-1} stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"images {self.images} are not a permutation")

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
        if len(self.sections) != len(self.perm.images):
            raise ValueError("need one section per point of the permutation")

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

    def to_json(self) -> dict:
        return {
            "perm": list(self.perm.images),
            "sections": [render_word(s) for s in self.sections],
        }


@lru_cache(maxsize=64)
def _letter_tables(q: int, images: tuple
                   ) -> tuple[dict, _NormalForm, LazyMap, dict]:
    """Per signed letter, the row of (image, section) pairs that the fold
    reads at each position, with each section letter paired with its
    inverse, the word problem's normal form, and the fold rows of its
    permutations by perm id, built on first use from one shared (image, no
    section) pair per position, for generator images given as ``(i, perm
    images, sections)`` triples.
    Every recursion built from the same images shares them; they hold no
    word and no verdict, only the letter tables and the permutation
    products and rows asked for so far.  The sections are written in the
    alphabet's shared letters, so every fold writes them too; the last
    part is the map of those letters (``shared_letters``), kept with the
    tables so that the alphabet keeps it.  Generators with equal images
    share one table and one row per sign, so ``thue_morse(q)``, whose
    x_1..x_{q-1} are equal, costs O(q), not O(q^2)."""
    shared = shared_letters(q)

    def interned(sections):
        return tuple(tuple(map(shared.__getitem__, s)) for s in sections)

    def paired(sections):
        return tuple(tuple((letter, shared[letter[0], -letter[1]])
                           for letter in s) for s in sections)

    # per distinct (perm, sections): the tables of the image and of its
    # inverse, then their rows
    distinct: dict = {}
    letters, rows = {}, {}
    for i, perm, sections in images:
        tables = distinct.get((perm, sections))
        if tables is None:
            inv = WreathElement(sections, Permutation(perm)).inverse()
            plus = (perm, interned(sections))
            minus = (inv.perm.images, interned(inv.sections))
            tables = distinct[perm, sections] = (
                plus, minus, tuple(zip(perm, paired(plus[1]))),
                tuple(zip(minus[0], paired(minus[1]))))
        letters[i, 1], letters[i, -1], rows[i, 1], rows[i, -1] = tables
    nf = _NormalForm(q, letters)
    pairs = [(b, ()) for b in range(q)]
    moves = LazyMap(lambda p: tuple(map(pairs.__getitem__, nf.perms.images[p])))
    return rows, nf, moves, shared


@dataclass(frozen=True)
class NucleusResult:
    """Nucleus representatives modulo equality, and whether closure finished."""

    representatives: tuple[Word, ...]
    closed: bool

    def __len__(self) -> int:
        return len(self.representatives)


class WreathRecursion:
    """Generator images and every operation built on top of them."""

    def __init__(self, q: int, images: dict[int, WreathElement]):
        check_alphabet(q)
        if set(images) != set(range(q)):
            raise ValueError("need exactly one image per generator x0..x%d" % (q - 1))
        if any(el.q != q for el in images.values()):
            raise ValueError("generator image arity differs from q")
        # equal images are checked once; an inverse has sections as long
        growth = 0
        for sections in {el.sections for el in images.values()}:
            for s in sections:
                check_word(s, q)
                growth = max(growth, len(s))
        self.q = q
        # _letters is never read: holding it keeps the alphabet's shared
        # letters the ones that the rows write, after the tables are evicted
        self._rows, self._nf, self._moves, self._letters = _letter_tables(
            q, tuple((i, el.perm.images, el.sections)
                     for i, el in sorted(images.items())))
        # a word shorter than this has only sections shorter than
        # _POWER_MIN, and no Power is this short
        self._short = -(-_POWER_MIN // max(growth, 1))
        self._folds = _Memo()
        # the class table of ``algebra._closure``, which starts one
        self._classes = None
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
        return cls(q, images)

    @classmethod
    def inverted_variant(cls, q: int) -> "WreathRecursion":
        """The variant with x_0 = <x_0^-1,...,x_{q-1}^-1> rho' and
        x_i = <1,...,1>(0 <-> i)."""
        rho = Permutation.rotation(q, 1)
        images = {0: WreathElement(tuple(((a, -1),) for a in range(q)), rho)}
        trivial = ((),) * q
        for i in range(1, q):
            images[i] = WreathElement(trivial, Permutation.transposition(q, 0, i))
        return cls(q, images)

    @classmethod
    def transposed_variant(cls, q: int) -> "WreathRecursion":
        """Like ``inverted_variant`` but with plain sections on x_0."""
        rho = Permutation.rotation(q, 1)
        images = {0: WreathElement(tuple(((a, 1),) for a in range(q)), rho)}
        trivial = ((),) * q
        for i in range(1, q):
            images[i] = WreathElement(trivial, Permutation.transposition(q, 0, i))
        return cls(q, images)

    def fold(self, word: Word) -> tuple[tuple[int, ...], tuple[Word, ...]]:
        """Root permutation images and freely reduced sections of ``word``:
        ``_fold_key`` of its canonical form, with the sections written out.
        So a proper power u^m of at least ``_POWER_MIN`` letters is found
        by a C-speed comparison per prime factor of its length and folded
        through u (``_fold_power``); other words are read by the letter
        loop ``_fold_letters`` in O(q * len(word))."""
        images, sections = self._fold_key(canonical(word))
        return images, tuple(map(_expanded, sections))

    def _fold_letters(self, word: Word) -> tuple[tuple[int, ...], tuple[Word, ...]]:
        """The fold of ``word`` strand by strand.  The word is read once
        into steps: each section letter's row, and each run of rooted
        letters composed into one permutation (``_NormalForm.ops``,
        ``perms.mul``) and read as its row in ``_moves``.  Strand a then
        follows the steps from a, each giving the next position and the
        section read there, and collects its section on a stack that
        cancels on push.  The stack holds the generator sections' own
        letter objects, so no letter is built, and a letter cancels the top
        when the top is the inverse paired with it in its row: one identity
        test, however many letters share its index, as x_1 does in the
        collapsed recursion."""
        rows, moves, ops = self._rows, self._moves, self._nf.ops
        mul = self._nf.perms.mul
        steps = []
        run = 0  # the perm id of the rooted letters read since the last step
        try:
            for letter in word:
                op = ops[letter]
                if op < 0:
                    if run:
                        steps.append(moves[run])
                        run = 0
                    steps.append(rows[letter])
                elif run:
                    run = mul[run][op]
                else:
                    run = op
        except KeyError as fault:
            check_word(fault.args, self.q)  # raises, naming the letter
            raise
        if run:
            steps.append(moves[run])
        perm: list[int] = []
        out: list[Word] = []
        for start in range(self.q):
            b, stack = start, []
            for row in steps:
                b, section = row[b]
                for letter, inv in section:
                    if stack and stack[-1] is inv:
                        stack.pop()
                    else:
                        stack.append(letter)
            perm.append(b)
            out.append(tuple(stack))
        return tuple(perm), tuple(out)

    def _fold_power(self, root: Word, m: int) -> tuple[tuple[int, ...], tuple]:
        """The fold of ``root * m`` from one fold of ``root``, cycle by
        cycle of its root permutation.  With L the cycle length and C the
        product of root's sections around the cycle from strand a, a's
        section is ``C^(m // L)`` followed by the first ``m % L`` factors
        of C (``_key_section``).  For bounded images that costs O(q *
        |root|) to read root and O(q) of its sections per strand, plus the
        output."""
        images, sections = self._fold_letters(root)
        q = self.q
        perm: list[int] = [-1] * q
        out: list = [()] * q
        for cycle in _cycles(images):
            laps, rest = divmod(m, len(cycle))
            for i, a in enumerate(cycle):
                perm[a] = cycle[(i + m) % len(cycle)]
                order = cycle[i:] + cycle[:i]
                out[a] = _key_section(_product(sections, order), laps,
                                      _product(sections, order[:rest]))
        return tuple(perm), tuple(out)

    def _fold_key(self, word) -> tuple[tuple[int, ...], tuple]:
        """The fold of a canonical word of a closure key (``canonical``),
        with the sections in canonical form too.  A ``Power`` is folded
        through its root, and a section that is a power of a cyclically
        reduced cycle product is a ``Power`` built from that product, so a
        deep tower costs O(q * |root|) per class and is never written out.
        A tuple key word is not a proper power from ``_POWER_MIN`` letters
        on, so it is never searched for a root; a word too short to have a
        section of ``_POWER_MIN`` letters goes straight to the letter loop.

        Related closures share most of their words, so every fold is kept
        across calls in the recursion's memo ``_folds`` (``_Memo``), with
        equal permutations and sections shared.
        """
        out = self._folds.get(word)
        if out is not None:
            return out
        if len(word) < self._short:
            out = self._fold_letters(word)
        elif type(word) is Power:
            out = self._fold_power(word.root, word.m)
        else:
            images, sections = self._fold_letters(word)
            out = images, tuple(map(canonical, sections))
        letters = _held(word) + sum(map(_held, out[1]))
        if letters <= _MEMO_LETTERS:  # a fold that is kept shares its parts
            share = self._folds.share
            out = share(out[0]), tuple(map(share, out[1]))
        return self._folds.keep(word, out, letters)

    def decompose(self, word: Word) -> WreathElement:
        images, sections = self.fold(word)
        return WreathElement(sections, Permutation(images))

    def _walk(self, word: Word, vertex: tuple[int, ...]):
        """The image of ``vertex`` under ``word`` and the section of
        ``word`` at ``vertex``, one fold per vertex letter."""
        out: list[int] = []
        for a in vertex:
            if not 0 <= a < self.q:
                raise ValueError(f"vertex letter {a} is outside 0..{self.q - 1}")
            images, sections = self.fold(word)
            out.append(images[a])
            word = sections[a]
        return tuple(out), word

    def act(self, word: Word, vertex: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a tree vertex under the element given by ``word``."""
        return self._walk(word, vertex)[0]

    def section(self, word: Word, vertex: tuple[int, ...]) -> Word:
        """Iterated section of ``word`` along the vertex path."""
        return self._walk(free_reduce(word), vertex)[1]

    def is_trivial(self, word: Word, cap_states: int = 100_000) -> Verdict:
        """Word problem in the injective quotient by coinductive closure.

        Maintains a set of states assumed trivial; a nontrivial root
        permutation anywhere refutes the root, while a section-closed set
        with identity permutations certifies triviality of all its members.

        A state is the normal form of an element of F(S) * P, where a
        generator whose image has only empty sections is *rooted*, P is the
        group of the rooted generators' permutations and S holds the other
        generators: a rooted letter composes into the adjacent permutation,
        and a section letter cancels its inverse across an identity run, so
        x_1^q or x_i x_j^-1 in ``thue_morse`` vanish without a fold.
        Soundness: a rooted generator *is* its root permutation (its
        sections are trivial), so a state acts on the tree as its word
        does, and its sections are the states of the word's sections,
        permuted by the leading permutation conjugated off.  The states
        are thus the images of the words a closure on freely reduced words
        reaches: a decided verdict is the one that closure gives, and
        ``cap_states``, which counts states, is never reached sooner than
        there, where it counted words.
        """
        nf = self._nf
        n = len(word)
        d = _root_length(word) if n >= _POWER_MIN else n
        state, period = nf.power(nf.word(word[:d]), n // d if d else 1)
        closure = {state}
        stack = [(state, period)]
        while stack:
            if len(closure) > cap_states:
                return Verdict.unknown(cap_states, "cap_states")
            sections = nf.fold(*stack.pop())
            if sections is None:
                return Verdict.no()
            for s, period in sections:
                if s != (0,) and s not in closure:
                    closure.add(s)
                    stack.append((s, period))
        return Verdict.yes()

    def equal(self, left: Word, right: Word, cap_states: int = 100_000) -> Verdict:
        return self.is_trivial(left + inverse(right), cap_states)

    def order_of(self, word: Word, cap_power: int = 256,
                 cap_states: int = 100_000):
        """Least k >= 1 with word^k trivial, or an unknown Verdict past the
        caps."""
        base = free_reduce(word)
        for k in range(1, cap_power + 1):
            verdict = self.is_trivial(power(base, k), cap_states)
            if not verdict.is_false:
                return k if verdict.is_true else verdict
        return Verdict.unknown(cap_power, "cap_power")

    def moved_vertex(self, word: Word,
                     cap_states: int = 10_000) -> tuple[int, ...] | None:
        """Shortest tree vertex moved by the element, or None if the search
        budget runs out (in particular for trivial elements)."""
        queue = deque([((), free_reduce(word))])
        visited = 0
        while queue and visited < cap_states:
            path, w = queue.popleft()
            visited += 1
            images, sections = self.fold(w)
            moved = [a for a, b in enumerate(images) if b != a]
            if moved:
                return path + (moved[0],)
            queue.extend((path + (a,), s) for a, s in enumerate(sections) if s)
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
            level = [s for w in alive for s in self.fold(w)[1]]
        return tuple(counts)

    def portrait(self, word: Word, depth: int) -> dict:
        """Depth-truncated tree of root permutations of all sections.

        Raises ``ValueError`` before any fold when the tree would have more
        than ``_PORTRAIT_NODES`` nodes; the count stops at the first level
        past the bound, so a huge depth costs nothing."""
        nodes = level = 1
        for _ in range(depth):
            level *= self.q
            nodes += level
            if nodes > _PORTRAIT_NODES:
                raise ValueError(
                    f"a portrait of depth {depth} at q={self.q} has "
                    f"(q^(depth+1) - 1)/(q - 1) nodes, more than "
                    f"{_PORTRAIT_NODES}")

        def draw(w: Word, d: int) -> dict:
            images, sections = self.fold(w)
            node: dict = {"perm": list(images)}
            if d > 0:
                node["children"] = [draw(s, d - 1) for s in sections]
            return node

        return draw(word, depth)

    # -- nucleus ---------------------------------------------------------

    def _canonical(self, word: Word, reps: list[Word],
                   cap_states: int) -> Word:
        """The representative equal to ``word``, appending it if it equals
        none.  An equality left unknown within ``cap_states`` counts as
        refuted only by a moved vertex; otherwise it ends the computation."""
        w = free_reduce(word)
        for r in reps:
            if w == r:
                return r
            verdict = self.equal(w, r, cap_states)
            if verdict.is_true:
                return r
            if (verdict.is_unknown
                    and self.moved_vertex(w + inverse(r)) is None):
                raise ClassExplosionError(f"equality undecided within {verdict}")
        reps.append(w)
        return w

    def _limit_classes(self, word: Word, reps: list[Word], cap_nodes: int,
                       cap_states: int) -> set[Word]:
        """Classes that occur at arbitrarily large depth in the iterated
        section graph of ``word``: everything reachable from a cycle."""
        def children(u: Word):
            sections = [self._canonical(s, reps, cap_states)
                        for s in self.fold(u)[1]]
            return [(s, 1, a) for a, s in enumerate(sections)]

        graph = Closure(self._canonical(word, reps, cap_states), children,
                        cap_nodes)
        return {graph.keys[c] for c in graph.limit_classes()}

    def nucleus(self, cap_elements: int = 512,
                cap_states: int = 100_000) -> NucleusResult:
        """Minimal absorbing set of the recursion, as representatives modulo
        equality.  Starts from the limit classes of the generators and their
        inverses and closes under limit classes of pairwise products;
        ``closed`` is False when a cap, or an equality undecided within
        ``cap_states``, stops the closure."""
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
        try:
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
        except ClassExplosionError:
            return NucleusResult(tuple(current), closed=False)
