"""Exact evaluation of self-similar characters.

A character value is computed by closing the element under the
decomposition recursion

    q * chi(s) = sum over the q x q entries (i, j) of k(i, j) * chi(phi(s)_{i,j})

into finitely many scaling classes and attaching base values where the
axioms pin them (zero maps to 0, scalars map to 1, and for the spread kernel
every single monomial maps to 1).  The equations are then solved exactly
over the rationals by back-substitution along the class graph in
topological order: its strongly connected components are visited children
first, and only a component with a cycle of two or more classes needs an
elimination of its own.  Every other class sums its known children over
one common integer denominator and is reduced once, by its pivot, so a
class costs one gcd rather than one per edge; the value returned is a
Fraction, integral or not.  A group word w is the monomial with key
((w, 1),): its cells are the sections of its wreath recursion, so

    q * chi(w) = sum over strands a of k(a, perm(a)) * chi(section_a(w)),

and the empty word is the scalar base class.

The class graph and its solve live in ``closure.Closure``, and every
closure here is built by ``algebra._closure``, whose classes are the
normalized keys (``algebra._class_key``) of the cells of one
decomposition step, so no element is built per class; this module gives
it only a cap, the base classes and the kernel weights.
``_closure_value`` solves the closure for both kinds of character;
``count_L`` walks the same class graph level by level with unit weights,
from a root key read collapsed from the element's terms, and stops at the
first level whose classes are all countable, so any depth costs at most
the levels before that one.  The classes and their children are kept
across calls, per recursion and ring, so related elements and every
kernel share them; the kernel weighs each cell as the closure walks it,
and the solve runs afresh on every call.  ``spread_char`` and
``Kernel.ones`` build no kernel matrix: every cell weighs 1, as stored.
No floating point is used in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebra import (
    RATIONALS,
    AlgebraElement,
    _class_key,
    _closure,
    _collapsed_key,
    _collapsed_thue_morse,
    _thue_morse,
    omega_generator,
    sigma,
)
from .group import WreathRecursion, canonical
from .verdict import ClassExplosionError, Verdict
from .words import Word, free_reduce, power as word_power


# -- exact value rendering ---------------------------------------------------


def q_power_denominator(value: Fraction, q: int) -> int | None:
    """The k with denominator q^k, or None when there is no such k."""
    den = value.denominator
    k = 0
    while den > 1:
        if den % q:
            return None
        den //= q
        k += 1
    return k


def render_exact(value: Fraction, q: int) -> str:
    k = q_power_denominator(value, q)
    if k is None:
        return f"{value.numerator}/{value.denominator}"
    if k == 0:
        return str(value.numerator)
    return f"{value.numerator}/{q}^{k}"


def exact_json(value: Fraction, q: int, classes_used: int, depth: int) -> dict:
    return {
        "value": render_exact(value, q),
        "num": value.numerator,
        "den": value.denominator,
        "classes_used": classes_used,
        "depth": depth,
    }


# -- kernels ------------------------------------------------------------------


class Kernel:
    """q x q weight matrix for the self-similarity recursion."""

    def __init__(self, entries):
        """``entries`` is a list of rows, each a list of rationals (ints,
        Fractions, floats or rational strings such as ``"1/2"``).

        ``weights`` holds the same matrix with every integral entry as an
        ``int``, so that the closures sum integer edge weights; it is None
        only for ``Kernel.ones``."""
        if not isinstance(entries, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in entries):
            raise ValueError("kernel must be a list of rows of numbers")
        rows = tuple(tuple(_rational(e) for e in row) for row in entries)
        q = len(rows)
        if any(len(row) != q for row in rows):
            raise ValueError("kernel must be square")
        self.entries = rows
        self.weights = tuple(
            tuple(e.numerator if e.denominator == 1 else e for e in row)
            for row in rows)
        self.q = q

    @classmethod
    def ones(cls, q: int) -> "Kernel":
        """The all-ones kernel, built in O(q): its rows are one tuple, and
        its weights are None, so that its closures take the stored
        children, each of weight 1, as they are."""
        kernel = cls.__new__(cls)
        kernel.entries = ((Fraction(1),) * q,) * q
        kernel.weights = None
        kernel.q = q
        return kernel

    @classmethod
    def identity(cls, q: int) -> "Kernel":
        """The identity kernel, unparsed: two shared Fractions, int weights."""
        kernel = cls.ones(q)
        kernel.entries, kernel.weights = (
            tuple((zero,) * i + (one,) + (zero,) * (q - 1 - i) for i in range(q))
            for zero, one in ((Fraction(0), Fraction(1)), (0, 1)))
        return kernel

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        return self.entries[idx[0]][idx[1]]

    def psd_report(self) -> dict:
        if self.weights is None:  # Kernel.ones is 1 1^T: symmetric and PSD
            return {"symmetric": True, "psd": True}
        q = self.q
        sym = all(self.entries[i][j] == self.entries[j][i]
                  for i in range(q) for j in range(i))
        s = [[(self.entries[i][j] + self.entries[j][i]) / 2 for j in range(q)]
             for i in range(q)]
        return {"symmetric": sym, "psd": _is_psd(s)}


def _rational(entry) -> Fraction:
    """A kernel entry as a Fraction; ValueError for anything that is not a
    rational number (None, a bool, a list, an infinity)."""
    if not isinstance(entry, bool):
        try:
            return Fraction(entry)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"kernel entry {entry!r} is not a rational number")


def _is_psd(m: list[list[Fraction]]) -> bool:
    """Exact positive semidefiniteness of a symmetric matrix, in O(n^3).

    Symmetric elimination is a congruence, so it preserves the property; a
    negative pivot, or a zero pivot with a nonzero rest of its row (a 2 x 2
    principal minor -b^2 < 0), refutes it.  Modifies ``m``.
    """
    n = len(m)
    for k in range(n):
        pivot = m[k][k]
        if pivot < 0 or (pivot == 0 and any(m[k][k + 1:])):
            return False
        if pivot == 0:
            continue
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            if factor:
                for j in range(k + 1, n):
                    m[i][j] -= factor * m[k][j]
    return True


# -- algebra characters --------------------------------------------------------


def _closure_value(root, rec, ring, weights, monomial_base: bool,
                   cap_classes: int, with_info: bool):
    """The character value of the class with key ``root`` for the
    ``rec.q`` x ``rec.q`` kernel ``weights`` (all ones when None), on the
    closure of ``algebra._closure`` through ``rec``, or an unknown Verdict
    at the cap.  The key () of zero has value 0; a scalar, or with
    ``monomial_base`` any single term, is a base class."""
    if not root:
        info = {"classes_used": 0, "depth": 0, "largest_component": 0}
        return (Fraction(0), info) if with_info else Fraction(0)

    def base(key) -> bool:
        return len(key) == 1 and (monomial_base or not key[0][0])

    try:
        value, info = _closure(root, rec, ring, cap_classes, base,
                               weights).solve(rec.q)
    except ClassExplosionError:
        value, info = Verdict.unknown(cap_classes, "cap_classes"), None
    return (value, info) if with_info else value


def algebra_char(s: AlgebraElement, kernel: Kernel, cap_classes: int = 10_000,
                 monomial_base: bool = False, with_info: bool = False):
    """Character of an algebra element for an arbitrary kernel.

    The kernel delta_{i=j} gives the fixed-point character; the all-ones
    kernel reproduces the spread character.
    """
    if kernel.q != s.q:
        raise ValueError("kernel size does not match the alphabet")
    return _closure_value(_class_key(s), _thue_morse(s.q), s.ring,
                          kernel.weights, monomial_base, cap_classes, with_info)


def spread_char(s: AlgebraElement, cap_classes: int = 10_000,
                with_info: bool = False):
    """All-ones kernel character; every single monomial is a base case
    with value 1.  A value that is not a nonnegative element of Z[1/q]
    raises RuntimeError: the spread values are certified to be.

    No kernel matrix is built: the closure gives every cell weight 1, so
    its class children are those of the zero test and shared with it."""
    value, info = _closure_value(_class_key(s), _thue_morse(s.q), s.ring, None,
                                 True, cap_classes, True)
    if not isinstance(value, Verdict):
        # the value lies in Z[1/q]: its denominator divides a power of q,
        # which at composite q need not be a power of q itself (6/4 = 3/2)
        den = value.denominator
        while (g := gcd(den, s.q)) > 1:
            den //= g
        if value < 0 or den != 1:
            raise RuntimeError(
                f"spread value {value} escapes nonnegative values in Z[1/{s.q}]")
    return (value, info) if with_info else value


# -- group characters ----------------------------------------------------------


def group_char(rec: WreathRecursion, word: Word, kernel: Kernel | None = None,
               cap_classes: int = 10_000, with_info: bool = False):
    """Character of a group word from the wreath recursion closure.

    The word w is the monomial with key ((w, 1),) and its children are
    the cells of its fold in ``rec``, as for ``algebra_char``.  The
    identity kernel weights only fixed strands and matches the
    fixed-vertex measure; the all-ones kernel gives the trivial character.
    """
    q = rec.q
    if kernel is None:
        kernel = Kernel.identity(q)
    if kernel.q != q:
        raise ValueError("kernel size does not match the alphabet")
    key = ((canonical(free_reduce(word)), 1),)
    return _closure_value(key, rec, RATIONALS, kernel.weights,
                          False, cap_classes, with_info)


# -- language counting -----------------------------------------------------------


def _is_countable(key: tuple) -> bool:
    """Membership of the class with key ``key`` in k^x union k^x x_0 union
    k^x x_1 after letter collapse."""
    return len(key) == 1 and len(key[0][0]) <= 1


def count_L(s: AlgebraElement, k: int, cap_classes: int = 10_000):
    """Number of index pairs (u, v) at depth k whose entry is a nonzero
    scalar multiple of 1, x_0 or x_1, or an unknown Verdict when more than
    ``cap_classes`` classes are reached.

    The multiset of entry scaling classes is evolved level by level
    without materializing the q^k x q^k matrix; a class is expanded only
    once it is reached.  Generators above index 1 are collapsed to x_1
    throughout: the root key is read collapsed from the terms of ``s``
    (``_collapsed_key``, which collapses a long power through its root),
    and the entries are folded through the Thue-Morse recursion on that
    quotient, so they come out collapsed.  The identification is
    certified once per q by a zero test on the differences x_i - x_1,
    whose matrix images coincide.

    On that quotient a countable class c w (|w| <= 1) has exactly q
    nonzero cells, each countable again, so the walk stops at the first
    level t whose classes are all countable, and the count is their
    summed multiplicity times q^(k - t).
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    rec = _collapsed_thue_morse(s.q)
    root = _collapsed_key(s)
    if not root:
        return 0
    try:
        closure = _closure(root, rec, s.ring, cap_classes)
        counts: dict[int, int] = {0: 1}
        for t in range(k):
            if all(_is_countable(closure.key(idx)) for idx in counts):
                return sum(counts.values()) * s.q ** (k - t)
            counts = closure.step(counts)
    except ClassExplosionError:
        return Verdict.unknown(cap_classes, "cap_classes")
    return sum(multiplicity for idx, multiplicity in counts.items()
               if _is_countable(closure.key(idx)))


def growth_constant(s: AlgebraElement, k_min: int, k_max: int,
                    cap_classes: int = 10_000):
    """The defect q^k * chi_s(s) - count_L(s, k) over a depth range.

    Returns (constant at k_max, stable flag), or the first unknown Verdict;
    the defect becomes constant once k is large enough.
    """
    if k_min >= k_max:
        raise ValueError("need k_min < k_max")
    chi = spread_char(s, cap_classes=cap_classes)
    if isinstance(chi, Verdict):
        return chi
    defects = []
    for k in range(k_min, k_max + 1):
        count = count_L(s, k, cap_classes)
        if isinstance(count, Verdict):
            return count
        defects.append(Fraction(s.q) ** k * chi - count)
    return defects[-1], all(d == defects[-1] for d in defects)


# -- additivity over the sigma tower ---------------------------------------------


def additivity_check(components, cap_classes: int = 10_000):
    """Exact two-sided check of value additivity under sigma, with the
    per-element diagonality and gamma-invariance side conditions; the first
    unknown Verdict instead when a value hits the cap."""
    components = list(components)
    q = components[0].q
    sigma_value = spread_char(sigma(*components), cap_classes=cap_classes)
    if isinstance(sigma_value, Verdict):
        return sigma_value
    reports = []
    total = Fraction(0)
    for comp in components:
        values = [spread_char(comp.gamma_map(i) if i else comp,
                              cap_classes=cap_classes) for i in range(q)]
        unknown = next((v for v in values if isinstance(v, Verdict)), None)
        if unknown is not None:
            return unknown
        value = values[0]
        total += value
        block = comp.phi()
        diagonal = all(block[i][j].is_zero_literal
                       for i in range(q) for j in range(q) if i != j)
        gamma_invariant = all(v == value for v in values[1:])
        reports.append({
            "value": value,
            "diagonal": diagonal,
            "gamma_invariant": gamma_invariant,
        })
    return {
        "sigma_value": sigma_value,
        "component_sum": total,
        "additive": sigma_value == total,
        "components": reports,
    }


# -- witness construction ----------------------------------------------------------


def theorem_witness(target, q: int, ring=RATIONALS, mode: str = "B",
                    budget_leaves: int = 729, cap_classes: int = 10_000):
    """Search for an element whose spread character equals ``target``.

    Targets 2a/q^k are reached by combining a copies of the level-k tower
    generator through sigma, padding with zeros; every candidate is
    verified by exact evaluation before being returned.  The search is
    best-effort: a target out of reach (odd numerators over odd q, more
    copies than ``budget_leaves``, a class cap) gives an unknown Verdict.
    """
    target = Fraction(target)
    if target < 0:
        raise ValueError("target must be nonnegative")
    k = q_power_denominator(target, q)
    if k is None:
        raise ValueError(f"target denominator must be a power of {q}")

    def verified(candidate):
        value = spread_char(candidate, cap_classes=cap_classes)
        if isinstance(value, Verdict):
            return value
        if value != target:
            return Verdict.unknown(None, "candidate failed exact verification")
        return candidate

    if target == 0:
        return verified(AlgebraElement.zero(ring, q, mode))
    if target == 1:
        return verified(AlgebraElement.generator(ring, q, 0, mode))

    num = target.numerator
    if num % 2 == 1:
        if q % 2 == 1:
            return Verdict.unknown(
                None, "odd numerator over odd q: sigma sums of tower values "
                      "2/q^j keep even numerators")
        num, k = num * q // 2, k + 1
        copies = num
    else:
        copies = num // 2
    if copies > budget_leaves:
        return Verdict.unknown(budget_leaves, "budget_leaves")
    if copies == 1:
        # the tower element 1 - x_0^{q^{k+1}} evaluates to 2/q^k directly
        word = word_power(((0, 1),), q ** (k + 1))
        one = AlgebraElement.one(ring, q, mode)
        return verified(one - AlgebraElement.monomial(ring, q, word, mode=mode))

    zero = AlgebraElement.zero(ring, q, mode)
    layer = [omega_generator(ring, q, 0, k, mode) for _ in range(copies)]
    while len(layer) > 1:
        grouped = []
        for start in range(0, len(layer), q):
            batch = layer[start:start + q]
            batch += [zero] * (q - len(batch))
            grouped.append(sigma(*batch))
        layer = grouped
    return verified(layer[0])
