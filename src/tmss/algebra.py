"""Sparse noncommutative polynomials and the matrix decomposition.

Elements of the free associative algebra (mode A, positive letters only) or
of the free group algebra (mode B, signed letters, monomials freely reduced)
are stored as maps from monomial words to nonzero coefficients over a
coefficient ring: rationals, integers, or a prime field.

The decomposition ``phi`` sends a generator to a monomial q x q matrix and
extends multiplicatively and linearly.  On a monomial it is the wreath
decomposition of ``WreathRecursion.thue_morse`` from module ``group``: the
matrix carries section a at row a, column perm(a).  Under this assignment
``phi(theta(w))`` is exactly ``diag(w, gamma(w), ..., gamma^{q-1}(w))`` and
``phi(sigma(s_0, ..., s_{q-1}))`` has entry ``gamma^j(s_{(i-j) mod q})`` at
(i, j).

Zero testing asks whether some iterate ``phi^n(s)`` is the literally zero
matrix.  It walks the class graph of ``closure.Closure``, whose classes are
the normalized keys of the entries (``_class_key``, with each long proper
power held as a ``group.Power``), in one pass per level, and
stops on an empty level (zero), on a nonzero scalar entry, which is a
permanent obstruction (nonzero), or at the depth cap (unknown).
``contraction_depth`` walks the same graph.

Related elements, such as those of the sigma tower, share most classes
below their roots.  So every class key is numbered once, in the class
table that each recursion keeps for one ring (``_ClassTable``) and every
kernel shares, which also keeps the children of every class below a
closure's root as ids; ``_closure`` builds every closure over the algebra
on the ids.  The fold of every key word (``WreathRecursion._fold_key``) is
kept in a memo (``group._Memo``).  Both are kept across calls and bounded
by the letters they hold.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import group
from .closure import Closure
from .group import (
    _POWER_MIN,
    Permutation,
    WreathElement,
    WreathRecursion,
    _held,
    _join,
    _key_section,
    _root_length,
    canonical,
)
from .verdict import Verdict
from .words import (
    LazyMap,
    Word,
    _inverse_letters,
    _parse_token,
    _theta_blocks,
    check_alphabet,
    free_reduce,
    gamma as word_gamma,
    render_word,
    shared_letters,
)


class UnsupportedModeError(ValueError):
    """Raised when an operation needs the other algebra mode."""


# -- coefficient rings ----------------------------------------------------


@dataclass(frozen=True)
class Rationals:
    name = "Q"
    is_field = True

    def coerce(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def invert(self, x):
        return Fraction(1) / x

    def compact(self, x):
        """``x`` as a class key holds it: an integral rational as an int."""
        return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Integers:
    name = "Z"
    is_field = False

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    def invert(self, x):
        if x in (1, -1):
            return x
        raise ValueError(f"{x} is not a unit in the integers")

    def compact(self, x):
        return x


# the first 13 primes: as Miller-Rabin bases they decide primality below
# _PROVEN (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on ``_BASES``, for n < ``_PROVEN``."""
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _BASES:
        # n passes base b when b^d = 1 or b^(d 2^r) = -1 for some r < s
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int
    is_field = True

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p >= _PROVEN:
            raise ValueError(f"a prime modulus must be an integer below "
                             f"{_PROVEN}, where primality is proven")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return self.coerce(x.numerator) * self.invert(self.coerce(x.denominator)) % self.p
        return int(x) % self.p

    def invert(self, x):
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return pow(x, self.p - 2, self.p)

    def compact(self, x):
        return x % self.p


RATIONALS = Rationals()
INTEGERS = Integers()


# -- elements --------------------------------------------------------------


def _term_sort_key(term: tuple[Word, object]):
    return (len(term[0]), term[0])


def _lead_unit(ring, lead):
    """The unit that a key's terms are multiplied by so that its lead
    coefficient ``lead`` is normal: 1 over a field and positive over the
    integers; None when ``lead`` already is."""
    if lead == 1:
        return None
    if lead == -1:
        return -1
    if ring.is_field:
        return ring.invert(lead)
    return -1 if lead < 0 else None


class AlgebraElement:
    """Sparse sum of coefficient-weighted monomials.

    Every element holds one invariant, set up where its terms enter: every
    word is valid for ``(q, mode)``, freely reduced in mode B and made of
    the alphabet's shared letters (``words.shared_letters``), and every
    coefficient is a nonzero element of ``ring`` in its normal form
    (``ring.coerce``).  The validating constructor
    sets it up for ``zero``, ``one``, ``monomial``, ``generator``,
    ``parse_element`` and every term list a caller passes.  The
    operations rely on it and build their results with ``reduced=True``:
    ``+``, ``-``, negation, ``scale``, ``*`` (so ``**``), ``star``,
    ``gamma_map``, ``collapse_high_letters``, ``phi`` and the
    module's ``sigma`` and ``omega_generator``."""

    __slots__ = ("ring", "q", "mode", "terms")

    def __init__(self, ring, q: int, mode: str, terms, *, reduced: bool = False):
        """``terms`` is a dict from words to coefficients or an iterable of
        ``(word, coefficient)`` pairs.  Every letter is checked against the
        alphabet and the mode and replaced by its shared letter, and in
        mode B every word is freely reduced; equal words are summed, each
        sum is reduced in ``ring`` and zero sums are dropped.

        ``reduced`` promises that every word already holds the invariant
        of the class and every coefficient is a nonzero element of
        ``ring`` in normal form, as for the results of the operations and
        the words ``WreathRecursion.fold`` hands to ``_phi_cells``: no
        letter is read, and only a word that occurs more than once is
        summed, reduced in ``ring`` and dropped when its sum is zero."""
        if mode not in ("A", "B"):
            raise ValueError("mode must be 'A' or 'B'")
        check_alphabet(q)
        if isinstance(terms, dict):
            terms = terms.items()
        self.ring = ring
        self.q = q
        self.mode = mode
        if reduced:
            self.terms = out = {}
            repeated = set()
            for word, coeff in terms:
                n = len(out)
                first = out.setdefault(word, coeff)  # a new word is hashed once
                if len(out) == n:
                    out[word] = first + coeff
                    repeated.add(word)
            for word in repeated:
                if (coeff := ring.coerce(out[word])) != 0:
                    out[word] = coeff
                else:
                    del out[word]
            return
        shared = shared_letters(q).__getitem__
        sums: dict[Word, object] = {}
        for word, coeff in terms:
            word = tuple(map(shared, word))  # checks each letter not met yet
            if mode == "B":
                word = free_reduce(word)
            elif any(sign < 0 for _, sign in word):
                raise UnsupportedModeError("mode A admits positive letters only")
            sums[word] = sums[word] + coeff if word in sums else coeff
        self.terms = {word: coeff for word, total in sums.items()
                      if (coeff := ring.coerce(total)) != 0}

    def _reduced(self, terms) -> "AlgebraElement":
        """An element of this algebra from terms that hold the invariant."""
        return AlgebraElement(self.ring, self.q, self.mode, terms, reduced=True)

    # construction helpers

    @classmethod
    def zero(cls, ring, q: int, mode: str = "B") -> "AlgebraElement":
        return cls(ring, q, mode, {})

    @classmethod
    def one(cls, ring, q: int, mode: str = "B") -> "AlgebraElement":
        return cls(ring, q, mode, {(): 1})

    @classmethod
    def monomial(cls, ring, q: int, word: Word, coeff=1,
                 mode: str = "B") -> "AlgebraElement":
        return cls(ring, q, mode, {word: coeff})

    @classmethod
    def generator(cls, ring, q: int, i: int, mode: str = "B") -> "AlgebraElement":
        return cls(ring, q, mode, {((i, 1),): 1})

    def _compatible(self, other: "AlgebraElement") -> None:
        if (self.ring, self.q, self.mode) != (other.ring, other.q, other.mode):
            raise ValueError("elements live in different algebras")

    # arithmetic

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._compatible(other)
        return self._reduced(itertools.chain(
            self.terms.items(), other.terms.items()))

    def __neg__(self) -> "AlgebraElement":
        coerce = self.ring.coerce
        return self._reduced({w: coerce(-c) for w, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._compatible(other)
        coerce = self.ring.coerce
        return self._reduced(itertools.chain(
            self.terms.items(),
            ((w, coerce(-c)) for w, c in other.terms.items())))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """The product, each pair of words joined at the seam only."""
        self._compatible(other)
        coerce = self.ring.coerce
        return self._reduced(
            (_join(wa, wb), coerce(ca * cb))
            for wa, ca in self.terms.items() for wb, cb in other.terms.items())

    def scale(self, coeff) -> "AlgebraElement":
        coerce = self.ring.coerce
        coeff = coerce(coeff)
        if coeff == 0:
            return self._reduced(())
        return self._reduced({w: coerce(c * coeff) for w, c in self.terms.items()})

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise ValueError("negative powers are not defined on elements")
        out = AlgebraElement.one(self.ring, self.q, self.mode)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and (self.ring, self.q, self.mode) == (other.ring, other.q, other.mode)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.q, self.mode, self.key(scale=False)))

    @property
    def is_zero_literal(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> tuple[tuple[Word, object], ...]:
        return tuple(sorted(self.terms.items(), key=_term_sort_key))

    def key(self, scale: bool = True):
        """Hashable canonical form; with ``scale`` the lead coefficient is
        normalized by ``_lead_unit``, identifying scalar multiples by a
        unit of the ring."""
        items = self.sorted_terms()
        if scale and items and (unit := _lead_unit(self.ring, items[0][1])):
            items = tuple((w, self.ring.coerce(c * unit)) for w, c in items)
        return items

    # structure maps

    def star(self) -> "AlgebraElement":
        if self.mode != "B":
            raise UnsupportedModeError("star requires mode B")
        inverse = _inverse_letters(self.q).__getitem__
        return self._reduced({tuple(map(inverse, reversed(w))): c
                              for w, c in self.terms.items()})

    def gamma_map(self, shift: int = 1) -> "AlgebraElement":
        """Rotate every letter index by the integer ``shift`` modulo q.
        A rotation keeps every word valid, freely reduced and distinct."""
        return self._reduced(
            (word_gamma(w, shift, self.q), c) for w, c in self.terms.items())

    def collapse_high_letters(self) -> "AlgebraElement":
        """Send x_i to x_1 for i >= 2, keeping signs.  Safe for anything
        computed through phi, because those generators share one image.
        The collapsed words are valid, so they are only freely reduced
        (in mode A, where no letter is inverse, that keeps them)."""
        collapsed = _collapsed_letters(self.q).__getitem__
        return self._reduced((free_reduce(tuple(map(collapsed, w))), c)
                             for w, c in self.terms.items())

    # decomposition

    def phi(self) -> tuple[tuple["AlgebraElement", ...], ...]:
        """One decomposition step as a q x q matrix.

        Each monomial is folded once by ``WreathRecursion.fold``, so the
        cost is O(q * |root|) per monomial, plus the output.  Each cell is
        built once from the fold's reduced words (``_phi_cells``), and
        every empty cell holds one shared zero element.  This is the
        public matrix view; the closures hold a class as its key and
        read the keys of the sparse cells through ``_cell_children``
        instead, building no element.
        """
        q = self.q
        cells = _phi_cells(self, _thue_morse(q).fold)
        zero = AlgebraElement.zero(self.ring, q, self.mode)
        return tuple(tuple(cells.get((a, b), zero) for b in range(q))
                     for a in range(q))

    # rendering

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for word, coeff in self.sorted_terms():
            body = render_word(word) if word else "1"
            if word and coeff == 1:
                text = body
            elif word and coeff == -1:
                text = f"-{body}"
            elif word:
                text = f"{coeff}*{body}"
            else:
                text = str(coeff)
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append("- " + text[1:])
            else:
                parts.append("+ " + text)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self.mode}_{self.q}[{self.ring.name}] {self.render()}>"

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "q": self.q,
            "ring": self.ring.name,
            "terms": {render_word(w) if w else "1": str(c)
                      for w, c in self.sorted_terms()},
        }


@lru_cache(maxsize=64)
def _collapsed_letters(q: int) -> LazyMap:
    """The letter that ``collapse_high_letters`` writes for each letter;
    one table per alphabet, so that a process holds the letters of at most
    64 alphabets."""
    shared = shared_letters(q)

    def collapsed(letter):
        i, sign = letter
        return shared[min(i, 1), sign]
    return LazyMap(collapsed)


@lru_cache(maxsize=64)
def _thue_morse(q: int) -> WreathRecursion:
    """The wreath recursion that ``phi`` folds monomials with, kept for at
    most 64 alphabets: an evicted one frees its class table and folds."""
    return WreathRecursion.thue_morse(q)


@lru_cache(maxsize=64)
def _collapsed_thue_morse(q: int) -> WreathRecursion:
    """The Thue-Morse recursion on the quotient x_i -> x_1 (i >= 2):
    x_0 = <x_0, x_1, ..., x_1> rho and x_i = <1, ..., 1> rho.

    The generators x_1, ..., x_{q-1} have one image under ``phi``, so the
    letter map is compatible with the recursion, and folding a word here
    gives the root permutation and the collapsed sections of its fold in
    ``thue_morse``.  That image is certified once per q, in O(q): equal
    images share one letter row (``group._letter_tables``), so each row
    of x_2, ..., x_{q-1} in ``_thue_morse(q)`` must be the row of x_1;
    RuntimeError if one is not.
    """
    rows = _thue_morse(q)._rows
    for i in range(2, q):
        if rows[i, 1] is not rows[1, 1]:
            raise RuntimeError(f"x{i} and x1 have different images")
    rho = Permutation.rotation(q, -1)
    images = {0: WreathElement(tuple(((min(a, 1), 1),) for a in range(q)), rho)}
    for i in range(1, q):
        images[i] = WreathElement(((),) * q, rho)
    return WreathRecursion(q, images)


def _grid(terms, fold) -> dict[tuple[int, int], list[tuple[Word, object]]]:
    """One decomposition step of ``(word, coefficient)`` pairs, with
    ``fold`` the wreath fold of a recursion: the ``(section, coefficient)``
    pairs of every cell that some word reaches, keyed by (row, column).
    Word w with fold (perm, sections) puts section a at (a, perm[a])."""
    grid: dict[tuple[int, int], list[tuple[Word, object]]] = {}
    for word, coeff in terms:
        perm, sections = fold(word)
        for a, section in enumerate(sections):
            grid.setdefault((a, perm[a]), []).append((section, coeff))
    return grid


def _phi_cells(elem: AlgebraElement, fold) -> dict[tuple[int, int], AlgebraElement]:
    """The cells of one decomposition step of ``elem`` that some monomial
    reaches, keyed by (row, column), with ``fold`` the wreath fold of a
    recursion (``_grid``).  A cell whose terms cancel is literally zero.

    Each cell is built once, from the fold's reduced words, with the
    constructor's ``reduced`` promise; ``fold`` must keep words valid for
    ``(elem.q, elem.mode)`` and write shared letters, as the wreath folds
    of this module do.
    """
    ring, q, mode = elem.ring, elem.q, elem.mode
    return {cell: AlgebraElement(ring, q, mode, terms, reduced=True)
            for cell, terms in _grid(elem.terms.items(), fold).items()}


def _class_key(elem: AlgebraElement) -> tuple:
    """``elem.key()`` as a closure holds it: every word in its
    ``canonical`` form, a long proper power as a ``Power``, and every
    coefficient in the ring's ``compact`` form, so an integral rational is
    an int."""
    compact = elem.ring.compact
    return tuple((canonical(word), compact(c)) for word, c in elem.key())


def _cell_key(terms: list[tuple[Word, object]], ring) -> tuple:
    """The class key of one cell of ``_grid``, from the pairs of a class
    key: equal to the ``key()`` of the cell's element once each ``Power``
    is expanded, with the coefficients in ``compact`` form; () when the
    cell is literally zero."""
    if len(terms) == 1 and ring.is_field:
        return ((terms[0][0], 1),)
    compact = ring.compact
    sums: dict[Word, object] = {}
    for word, coeff in terms:
        sums[word] = sums[word] + coeff if word in sums else coeff
    if len(sums) < len(terms):  # a repeated word: reduce the sums, drop zeros
        items = sorted(((word, c) for word, total in sums.items()
                        if (c := compact(total)) != 0), key=_term_sort_key)
        if not items:
            return ()
    else:
        items = sorted(sums.items(), key=_term_sort_key)
    if unit := _lead_unit(ring, items[0][1]):
        return tuple((word, compact(c * unit)) for word, c in items)
    return tuple(items)


def _collapsed_key(elem: AlgebraElement) -> tuple:
    """``_class_key(elem.collapse_high_letters())``, read straight from the
    terms of ``elem`` with no element built: each word is collapsed by
    ``_collapsed_letters`` and freely reduced, but a proper power u^m of
    at least ``_POWER_MIN`` letters is collapsed through u once and
    rebuilt in canonical form by ``_key_section``, so a deep tower is not
    rewritten letter by letter; equal words are summed and the lead is
    normalized by ``_cell_key``.  () when the collapse is zero.  A word
    of the element is freely reduced already, so one that the collapse
    leaves as it is, as every word at q = 2, is not reduced again."""
    collapsed = _collapsed_letters(elem.q).__getitem__

    def collapse(word):
        out = tuple(map(collapsed, word))
        return word if out == word else free_reduce(out)

    compact = elem.ring.compact
    pairs = []
    for word, coeff in elem.terms.items():
        n = len(word)
        if n >= _POWER_MIN and (d := _root_length(word)) < n:
            word = _key_section(collapse(word[:d]), n // d, ())
        else:
            word = canonical(collapse(word))
        pairs.append((word, compact(coeff)))
    return _cell_key(pairs, elem.ring) if pairs else ()


def _cell_children(key: tuple, fold, ring) -> list:
    """The closure children of the class with key ``key`` (``_class_key``)
    under one decomposition step: a (key, 1, (row, column)) triple for
    every cell of ``_grid(key, fold)`` that is not literally zero, in
    row-major order.  No element is built; a kernel weighs the cells as
    its closure walks them (``_closure``).

    Every closure over the algebra reads its children here, through
    ``_closure``: the zero test, the contraction depth, the characters
    and the counting of ``L``; so do the group characters, whose word w
    is the monomial key ((w, 1),).  The order is that of the dense matrix
    ``phi``, which the zero test's witness and the class ids depend on.
    """
    grid = _grid(key, fold)
    return [(child, 1, cell) for cell in sorted(grid)
            if (child := _cell_key(grid[cell], ring))]


class _ClassTable:
    """The classes of the closures of one recursion over one ring, each
    numbered once (hash-consing: Filliâtre and Conchon, "Type-safe modular
    hash-consing", ML Workshop 2006).  ``ids`` maps a class key to its id,
    ``keys`` lists the keys by id, and ``children`` lists by id the
    children of a class below some closure's root, as a tuple of (child
    id, 1, (row, column)) triples, or None where none are stored; every
    kernel shares them.  Most triples and key pairs recur under many
    classes (a scalar or a letter reached at the same cell), so ``parts``
    keeps one object for each distinct triple and ``(word, coefficient)``
    pair, which every stored tuple and key shares.

    A closure hashes its root's key to find its id; any other key is
    hashed only when the children of a class are computed, so a walk over
    stored children reads ids alone.  The table holds each key's
    ``_held`` letters once, in ``letters``.  Its recursion keeps it as
    ``_classes``, next to the fold memo ``_folds``, and frees both."""

    __slots__ = ("ids", "keys", "children", "parts", "letters", "ring")

    def __init__(self, ring):
        self.ids: dict = {}
        self.keys: list = []
        self.children: list = []
        self.parts: dict = {}
        self.letters = 0
        self.ring = ring

    def id(self, key: tuple) -> int:
        """The id of the class with key ``key``, numbered on first use."""
        cid = self.ids.get(key)
        if cid is None:
            share = self.parts.setdefault
            key = tuple([share(pair, pair) for pair in key])
            cid = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.children.append(None)
            self.letters += sum(_held(w) for w, _ in key)
        return cid


def _closure(root: tuple, rec: WreathRecursion, ring, cap_classes=None,
             base=None, weights=None) -> Closure:
    """The ``Closure`` of the class key ``root`` on the ids of the class
    table of (``rec``, ``ring``), at most ``cap_classes`` classes: a
    class's children are its ``_cell_children`` through the fold of
    ``rec`` (``WreathRecursion._fold_key``), but a class whose key
    ``base`` accepts has none.  A cell weighs ``weights[row][column]``,
    and one of weight 0 is left out; with no weights every cell weighs 1.

    Related elements share most classes below their roots, so the children
    of every class but the root are kept across calls, with weight 1, in
    the one table of ``rec`` (``rec._classes``).  A call starts a new one
    when that table is over another ring, where a key equal as a tuple has
    other children.  A table leaves its recursion once it holds more than
    ``group._MEMO_LETTERS`` letters, but serves the closure in flight to
    its end.  The root is numbered like any other class, so a root that
    its closure reaches again is one class, but its children are not
    kept, so a repeated query does not become a cached answer."""
    table = rec._classes
    if table is None or table.ring != ring:
        table = rec._classes = _ClassTable(ring)
    keys, stored, number = table.keys, table.children, table.id
    shared = table.parts.setdefault
    fold = rec._fold_key
    root_id = number(root)
    if table.letters > group._MEMO_LETTERS:
        rec._classes = None

    def children(cid: int):
        if base is not None and base(keys[cid]):
            return None
        out = stored[cid]
        if out is None:
            out = tuple([(number(child), 1, cell) for child, _, cell
                         in _cell_children(keys[cid], fold, ring)])
            if table.letters > group._MEMO_LETTERS and rec._classes is table:
                rec._classes = None
            if cid != root_id:
                stored[cid] = out = tuple([shared(t, t) for t in out])
        if weights is None:
            return out
        return [(child, weight, cell) for child, _, cell in out
                if (weight := weights[cell[0]][cell[1]])]

    return Closure(root_id, children, cap_classes, table=table)


# -- matrices ---------------------------------------------------------------


Matrix = tuple[tuple[AlgebraElement, ...], ...]


def mat_add(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    q = len(m1)
    out = []
    for i in range(q):
        row = []
        for k in range(q):
            acc = None
            for j in range(q):
                prod = m1[i][j] * m2[j][k]
                acc = prod if acc is None else acc + prod
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_to_json(m: Matrix) -> list[list[str]]:
    return [[e.render() for e in row] for row in m]


def phi_iterate(s: AlgebraElement, n: int) -> dict[tuple[int, int], AlgebraElement]:
    """Sparse q^n x q^n matrix of phi^n(s), keyed by (row, column) index.

    Explicit materialization; use only for small n.
    """
    current = {(0, 0): s}
    q, fold = s.q, _thue_morse(s.q).fold
    for _ in range(n):
        current = {(u * q + i, v * q + j): cell
                   for (u, v), entry in current.items()
                   for (i, j), cell in sorted(_phi_cells(entry, fold).items())
                   if not cell.is_zero_literal}
    return current


# -- zero testing -----------------------------------------------------------


def is_zero(s: AlgebraElement, cap_depth: int = 60) -> Verdict:
    """Decide whether some phi-iterate of ``s`` is the zero matrix.

    Walks the scaling classes of nonzero entries level by level, expanding
    each class once, in one pass per level: each child is checked as it is
    reached, and the next level collects the children in first-occurrence
    order, with no multiplicities.  An empty level certifies zero.  A
    nonzero scalar entry certifies nonzero forever, with its first route as
    the witness, and ends the walk before the rest of its level is
    expanded.  The depth cap yields unknown.  The classes are the ids of
    keys, so the witness scalar is found by following the route's cells
    from ``s``: the entry that first reached each class on the route is
    the cell of the previous one.  The replay carries the entry as unsummed ``(word,
    coefficient)`` pairs of canonical words, which the walk has mostly
    folded already, and sums the empty word's coefficients at the end (a
    lone one is the scalar as it stands); by linearity the other words'
    coefficients cancel there.  It builds no element.
    """
    if s.is_zero_literal:
        return Verdict("zero", depth=0)
    if list(s.terms) == [()] and cap_depth >= 1:
        # phi(c) is c times the identity matrix, with entry c at (0, 0)
        return Verdict("nonzero", depth=1, witness=((0,), (0,), s.terms[()]))
    rec = _thue_morse(s.q)
    # the root is not scalar, so every scalar entry has a route of its own
    closure = _closure(_class_key(s), rec, s.ring)
    expand, key_of = closure.expand, closure.key
    level = (0,)
    for depth in range(1, cap_depth + 1):
        grown: dict[int, None] = {}
        for idx in level:
            for child in expand(idx):
                if child in grown:
                    continue
                key = key_of(child)
                if len(key) == 1 and not key[0][0]:
                    route = closure.path(child)
                    pairs = [(canonical(w), c) for w, c in s.terms.items()]
                    for cell in route:
                        pairs = _grid(pairs, rec._fold_key)[cell]
                    scalars = [c for w, c in pairs if not w]
                    scalar = (scalars[0] if len(scalars) == 1
                              else s.ring.coerce(sum(scalars)))
                    rows, cols = zip(*route)
                    return Verdict("nonzero", depth=depth,
                                   witness=(rows, cols, scalar))
                grown[child] = None
        if not grown:
            return Verdict("zero", depth=depth)
        level = grown
    return Verdict.unknown(cap_depth, "cap_depth")


# -- derived operations ------------------------------------------------------


def sigma(*components: AlgebraElement) -> AlgebraElement:
    """sigma(s_0, ..., s_{q-1}) = sum_m x_1^m theta(s_m).

    ``theta`` sends a freely reduced word to a freely reduced word, so
    each word of the result is x_1^m joined at the seam with the blocks
    of ``theta`` (``words._theta_blocks``); no letter is read again."""
    first = components[0]
    q = first.q
    if len(components) != q:
        raise ValueError(f"sigma needs exactly {q} components")
    for c in components[1:]:
        first._compatible(c)
    blocks = _theta_blocks(q).__getitem__
    x1 = shared_letters(q)[1, 1]
    return first._reduced(
        (_join((x1,) * m, tuple(itertools.chain.from_iterable(map(blocks, w)))), c)
        for m, comp in enumerate(components) for w, c in comp.terms.items())


def big_product_word(q: int) -> Word:
    return tuple((i, 1) for i in range(q))


def omega_generator(ring, q: int, i: int, k: int, mode: str = "B") -> AlgebraElement:
    """The element 1 - gamma^i (x_0 x_1 ... x_{q-1})^{q^k}.  The power of
    the rotated product of all letters is freely reduced, so the element
    is built from its two terms with no letter read."""
    check_alphabet(q)
    word = word_gamma(big_product_word(q), i, q) * q ** k
    return AlgebraElement(ring, q, mode, (((), ring.coerce(1)),
                                          (word, ring.coerce(-1))), reduced=True)


def omega_enumerate(ring, q: int, n: int, k_max: int, size_cap: int = 512,
                    mode: str = "B") -> list[AlgebraElement]:
    """Level-n elements of the sigma tower, deterministically ordered.

    Level 0 holds 0 and the elements 1 - gamma^i Pi^{q^k} for i < q and
    k <= k_max; level n+1 applies every gamma-shift of sigma to every
    q-tuple from level n.  Deduplication is syntactic on canonical keys.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if size_cap < 1:
        raise ValueError(f"size_cap must be at least 1, got {size_cap}")
    level: list[AlgebraElement] = [AlgebraElement.zero(ring, q, mode)]
    for k in range(k_max + 1):
        for i in range(q):
            level.append(omega_generator(ring, q, i, k, mode))
    level = level[:size_cap]
    for _ in range(n):
        grown: list[AlgebraElement] = []
        keys: set = set()
        for tup in itertools.product(range(len(level)), repeat=q):
            s = sigma(*(level[t] for t in tup))
            for i in range(q):
                cand = s.gamma_map(i)
                key = cand.key(scale=False)
                if key not in keys:
                    keys.add(key)
                    grown.append(cand)
            if len(grown) >= size_cap:
                break
        level = grown[:size_cap]
    return level


def contraction_depth(s: AlgebraElement, cap_depth: int = 12):
    """Least n with every entry of phi^n(s) in the span of 1 and single
    generators, or an unknown Verdict past the cap."""
    closure = _closure(_class_key(s), _thue_morse(s.q), s.ring)
    level = {0: 1}
    for depth in range(cap_depth + 1):
        if all(len(word) <= 1 for idx in level for word, _ in closure.key(idx)):
            return depth
        level = closure.step(level)
    return Verdict.unknown(cap_depth, "cap_depth")


def row_col_bound_profile(s: AlgebraElement, depth: int) -> list[tuple[int, int]]:
    """Per level, the maximum number of nonzero entries in any row and in
    any column of the explicit phi-iterate."""
    out: list[tuple[int, int]] = []
    for n in range(depth + 1):
        sparse = phi_iterate(s, n)
        rows: dict[int, int] = {}
        cols: dict[int, int] = {}
        for (u, v) in sparse:
            rows[u] = rows.get(u, 0) + 1
            cols[v] = cols.get(v, 0) + 1
        out.append((max(rows.values(), default=0), max(cols.values(), default=0)))
    return out


# -- parsing -----------------------------------------------------------------


# a ``^`` and the sign of its exponent, with the spaces around that sign
_EXPONENT = re.compile(r"\^\s*(-?)\s*")
# a ``+`` or ``-`` that is not the sign of an exponent
_TERM_SIGN = re.compile(r"(?<!\^)([+-])")
# a ``*`` between a ``^`` and its exponent, with the token around it
_STARRED_EXPONENT = re.compile(r"\S*\^[\s-]*\*\s*\S*")


def parse_element(text: str, ring, q: int, mode: str = "B") -> AlgebraElement:
    """Parse ``"2*x0 x1 - 1 + x1^-1 x0"`` style input.

    The text is a sum of terms, each led by any number of signs.  A term
    is coefficients, which multiply, followed by ``parse_word`` tokens,
    with no coefficient after an ``x`` token; ``*`` reads as a space
    outside an exponent, and an exponent may stand apart from its ``^``,
    as in ``x1^ -1``.

    A term's tokens are merged as (letter, exponent) runs, cancelling at
    the seams, so its word is freely reduced as it is read; it is written
    out once, in shared letters, and the element takes it as it stands.
    A power token such as ``x0^1953125`` is thus never read letter by
    letter.  In mode A a negative exponent raises UnsupportedModeError."""
    check_alphabet(q)
    if starred := _STARRED_EXPONENT.search(text):
        raise ValueError(f"'*' between '^' and its exponent in {starred[0]!r}")
    pieces = _TERM_SIGN.split(_EXPONENT.sub(r"^\1", text.replace("*", " ")))
    if len(pieces) > 1 and not pieces[-1].split():
        raise ValueError("trailing sign without a term")
    terms: list[tuple[list[tuple[int, int]], object]] = []
    negative, sign = False, 1
    for n, piece in enumerate(pieces):
        if n % 2:  # a sign
            sign = -sign if piece == "-" else sign
        elif tokens := piece.split():
            coeff, runs, lettered = ring.coerce(sign), [], False
            for tok in tokens:
                if tok == "1":  # the empty word
                    continue
                if tok.startswith("x"):
                    i, exponent = _parse_token(tok, q)
                    lettered, negative = True, negative or exponent < 0
                    if runs and runs[-1][0] == i:
                        exponent += runs.pop()[1]
                    if exponent:
                        runs.append((i, exponent))
                elif lettered:
                    raise ValueError(f"coefficient {tok!r} after letters")
                else:
                    coeff = coeff * ring.coerce(tok)
            terms.append((runs, coeff))
            sign = 1
    if not terms:
        raise ValueError("empty element")
    if negative and mode == "A":
        raise UnsupportedModeError("mode A admits positive letters only")
    shared = shared_letters(q)

    def word(runs) -> Word:
        blocks = [(shared[i, 1 if e > 0 else -1],) * abs(e) for i, e in runs]
        return blocks[0] if len(blocks) == 1 else tuple(
            itertools.chain.from_iterable(blocks))

    return AlgebraElement(ring, q, mode, (
        (word(runs), c) for runs, coeff in terms
        if (c := ring.coerce(coeff)) != 0), reduced=True)
