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
matrix; a nonzero scalar entry in any iterate is a permanent obstruction and
certifies nonzero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .group import WreathRecursion
from .words import (
    Word,
    free_reduce,
    gamma as word_gamma,
    inverse as word_inverse,
    power as word_power,
    theta as word_theta,
)


class UnsupportedModeError(ValueError):
    """Raised when an operation needs the other algebra mode."""


# -- coefficient rings ----------------------------------------------------


class Rationals:
    name = "Q"
    is_field = True

    def coerce(self, x):
        return Fraction(x)

    def parse(self, text: str):
        return Fraction(text)

    def render(self, x) -> str:
        return str(x)

    def invert(self, x):
        return Fraction(1) / x

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return type(other) is Rationals

    def __hash__(self):
        return hash("Rationals")


class Integers:
    name = "Z"
    is_field = False

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    def parse(self, text: str):
        return int(text)

    def render(self, x) -> str:
        return str(x)

    def invert(self, x):
        if x in (1, -1):
            return x
        raise ValueError(f"{x} is not a unit in the integers")

    def __repr__(self):
        return "Integers()"

    def __eq__(self, other):
        return type(other) is Integers

    def __hash__(self):
        return hash("Integers")


class PrimeField:
    is_field = True

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return self.coerce(x.numerator) * self.invert(self.coerce(x.denominator)) % self.p
        return int(x) % self.p

    def parse(self, text: str):
        return int(text) % self.p

    def render(self, x) -> str:
        return str(x % self.p)

    def invert(self, x):
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return pow(x, self.p - 2, self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return type(other) is PrimeField and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


RATIONALS = Rationals()
INTEGERS = Integers()


# -- elements --------------------------------------------------------------


def _monomial_sort_key(word: Word):
    return (len(word), word)


class AlgebraElement:
    """Sparse sum of coefficient-weighted monomials."""

    __slots__ = ("ring", "q", "mode", "terms")

    def __init__(self, ring, q: int, mode: str, terms: dict[Word, object]):
        if mode not in ("A", "B"):
            raise ValueError("mode must be 'A' or 'B'")
        if q < 2:
            raise ValueError("alphabet size must be at least 2")
        clean: dict[Word, object] = {}
        for word, coeff in terms.items():
            for i, sign in word:
                if not 0 <= i < q:
                    raise ValueError(f"letter x{i} is outside x0..x{q - 1}")
                if mode == "A" and sign != 1:
                    raise UnsupportedModeError(
                        "mode A admits positive letters only")
            if mode == "B":
                word = free_reduce(word)
            coeff = ring.coerce(coeff)
            if word in clean:
                coeff = clean[word] + coeff
            if coeff == 0:
                clean.pop(word, None)
            else:
                clean[word] = coeff
        self.ring = ring
        self.q = q
        self.mode = mode
        self.terms = clean

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
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            new = terms.get(word, 0) + coeff
            if new == 0:
                terms.pop(word, None)
            else:
                terms[word] = new
        return AlgebraElement(self.ring, self.q, self.mode, terms)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.ring, self.q, self.mode,
                              {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._compatible(other)
        terms: dict[Word, object] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                word = wa + wb
                if self.mode == "B":
                    word = free_reduce(word)
                new = terms.get(word, 0) + ca * cb
                if new == 0:
                    terms.pop(word, None)
                else:
                    terms[word] = new
        return AlgebraElement(self.ring, self.q, self.mode, terms)

    def scale(self, coeff) -> "AlgebraElement":
        coeff = self.ring.coerce(coeff)
        return AlgebraElement(self.ring, self.q, self.mode,
                              {w: c * coeff for w, c in self.terms.items()})

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

    @property
    def is_scalar(self) -> bool:
        return set(self.terms) <= {()}

    @property
    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def max_monomial_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def sorted_terms(self) -> tuple[tuple[Word, object], ...]:
        return tuple(sorted(self.terms.items(), key=lambda t: _monomial_sort_key(t[0])))

    def key(self, scale: bool = True):
        """Hashable canonical form; with ``scale`` the first coefficient is
        normalized to 1, identifying nonzero scalar multiples."""
        items = self.sorted_terms()
        if scale and items:
            lead = items[0][1]
            if self.ring.is_field:
                inv = self.ring.invert(lead)
                items = tuple((w, self.ring.coerce(c * inv)) for w, c in items)
            elif lead < 0:
                items = tuple((w, -c) for w, c in items)
        return items

    # structure maps

    def star(self) -> "AlgebraElement":
        if self.mode != "B":
            raise UnsupportedModeError("star requires mode B")
        return AlgebraElement(self.ring, self.q, self.mode,
                              {word_inverse(w): c for w, c in self.terms.items()})

    def theta_map(self) -> "AlgebraElement":
        return AlgebraElement(self.ring, self.q, self.mode,
                              {word_theta(w, self.q): c for w, c in self.terms.items()})

    def gamma_map(self, shift: int = 1) -> "AlgebraElement":
        return AlgebraElement(self.ring, self.q, self.mode,
                              {word_gamma(w, shift, self.q): c for w, c in self.terms.items()})

    def collapse_high_letters(self) -> "AlgebraElement":
        """Send x_i to x_1 for i >= 2, keeping signs.  Safe for anything
        computed through phi, because those generators share one image."""
        terms: dict[Word, object] = {}
        for w, c in self.terms.items():
            cw = tuple((min(i, 1), s) for i, s in w)
            if self.mode == "B":
                cw = free_reduce(cw)
            new = terms.get(cw, 0) + c
            if new == 0:
                terms.pop(cw, None)
            else:
                terms[cw] = new
        return AlgebraElement(self.ring, self.q, self.mode, terms)

    # decomposition

    def phi(self) -> tuple[tuple["AlgebraElement", ...], ...]:
        """One decomposition step as a q x q matrix."""
        q = self.q
        fold = _thue_morse(q).fold
        grid: list[list[dict[Word, object]]] = [
            [dict() for _ in range(q)] for _ in range(q)]
        for word, coeff in self.terms.items():
            perm, entries = fold(word)
            for a, entry in enumerate(entries):
                cell = grid[a][perm[a]]
                new = cell.get(entry, 0) + coeff
                if new == 0:
                    cell.pop(entry, None)
                else:
                    cell[entry] = new
        return tuple(
            tuple(AlgebraElement(self.ring, q, self.mode, grid[a][b])
                  for b in range(q))
            for a in range(q))

    # rendering

    def render(self) -> str:
        if not self.terms:
            return "0"
        from .words import render_word

        parts: list[str] = []
        for word, coeff in self.sorted_terms():
            body = render_word(word) if word else "1"
            if word and coeff == 1:
                text = body
            elif word and coeff == -1:
                text = f"-{body}"
            elif word:
                text = f"{self.ring.render(coeff)}*{body}"
            else:
                text = self.ring.render(coeff)
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
        from .words import render_word

        return {
            "mode": self.mode,
            "q": self.q,
            "ring": self.ring.name,
            "terms": {render_word(w) if w else "1": self.ring.render(c)
                      for w, c in self.sorted_terms()},
        }


@cache
def _thue_morse(q: int) -> WreathRecursion:
    """The wreath recursion that ``phi`` folds monomials with."""
    return WreathRecursion.thue_morse(q)


# -- matrices ---------------------------------------------------------------


Matrix = tuple[tuple[AlgebraElement, ...], ...]


def mat_identity(ring, q: int, mode: str = "B") -> Matrix:
    return tuple(
        tuple(AlgebraElement.one(ring, q, mode) if a == b
              else AlgebraElement.zero(ring, q, mode) for b in range(q))
        for a in range(q))


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


def mat_is_zero(m: Matrix) -> bool:
    return all(e.is_zero_literal for row in m for e in row)


def mat_to_json(m: Matrix) -> list[list[str]]:
    return [[e.render() for e in row] for row in m]


def phi(s: AlgebraElement) -> Matrix:
    return s.phi()


def phi_iterate(s: AlgebraElement, n: int) -> dict[tuple[int, int], AlgebraElement]:
    """Sparse q^n x q^n matrix of phi^n(s), keyed by (row, column) index.

    Explicit materialization; use only for small n.
    """
    current = {(0, 0): s}
    q = s.q
    for _ in range(n):
        grown: dict[tuple[int, int], AlgebraElement] = {}
        for (u, v), entry in current.items():
            block = entry.phi()
            for i in range(q):
                for j in range(q):
                    cell = block[i][j]
                    if not cell.is_zero_literal:
                        grown[(u * q + i, v * q + j)] = cell
        current = grown
    return current


# -- zero testing -----------------------------------------------------------


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of membership testing in the union of vanishing ideals."""

    state: str  # "zero" | "nonzero" | "unknown"
    depth: int | None = None
    witness_row: tuple[int, ...] | None = None
    witness_col: tuple[int, ...] | None = None
    witness_scalar: object | None = None
    cap: int | None = None

    @property
    def is_zero(self) -> bool:
        return self.state == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.state == "nonzero"

    @property
    def is_unknown(self) -> bool:
        return self.state == "unknown"

    def __str__(self) -> str:
        if self.state == "zero":
            return f"zero(depth={self.depth})"
        if self.state == "nonzero":
            u = "".join(map(str, self.witness_row))
            v = "".join(map(str, self.witness_col))
            return f"nonzero(witness=({u or 'e'},{v or 'e'}), scalar={self.witness_scalar})"
        return f"unknown(cap={self.cap})"


def is_zero(s: AlgebraElement, cap_depth: int = 60) -> ZeroVerdict:
    """Decide whether some phi-iterate of ``s`` is the zero matrix.

    Tracks one representative per scaling class of nonzero entries, with the
    vertex pair that produced it.  A nonzero scalar entry certifies nonzero
    forever; an empty entry set certifies zero; a stable class set or the
    depth cap yields unknown.
    """
    if s.is_zero_literal:
        return ZeroVerdict("zero", depth=0)
    frontier: dict = {s.key(): (s, (), ())}
    seen: set = set(frontier)
    for depth in range(1, cap_depth + 1):
        grown: dict = {}
        for rep, u, v in frontier.values():
            block = rep.phi()
            for i, row in enumerate(block):
                for j, entry in enumerate(row):
                    if entry.is_zero_literal:
                        continue
                    if entry.is_scalar:
                        return ZeroVerdict(
                            "nonzero", depth=depth,
                            witness_row=u + (i,), witness_col=v + (j,),
                            witness_scalar=entry.terms[()])
                    key = entry.key()
                    if key not in grown:
                        grown[key] = (entry, u + (i,), v + (j,))
        if not grown:
            return ZeroVerdict("zero", depth=depth)
        if set(grown) <= seen:
            return ZeroVerdict("unknown", cap=cap_depth)
        seen |= set(grown)
        frontier = grown
    return ZeroVerdict("unknown", cap=cap_depth)


# -- derived operations ------------------------------------------------------


def sigma(*components: AlgebraElement) -> AlgebraElement:
    """sigma(s_0, ..., s_{q-1}) = sum_m x_1^m theta(s_m)."""
    first = components[0]
    q = first.q
    if len(components) != q:
        raise ValueError(f"sigma needs exactly {q} components")
    for c in components[1:]:
        first._compatible(c)
    out = AlgebraElement.zero(first.ring, q, first.mode)
    for m, comp in enumerate(components):
        shift = AlgebraElement.monomial(first.ring, q, ((1, 1),) * m,
                                        mode=first.mode)
        out = out + shift * comp.theta_map()
    return out


def big_product_word(q: int) -> Word:
    return tuple((i, 1) for i in range(q))


def omega_generator(ring, q: int, i: int, k: int, mode: str = "B") -> AlgebraElement:
    """The element 1 - gamma^i (x_0 x_1 ... x_{q-1})^{q^k}."""
    word = word_gamma(word_power(big_product_word(q), q ** k), i, q)
    one = AlgebraElement.one(ring, q, mode)
    return one - AlgebraElement.monomial(ring, q, word, mode=mode)


def omega_enumerate(ring, q: int, n: int, k_max: int, size_cap: int = 512,
                    mode: str = "B") -> list[AlgebraElement]:
    """Level-n elements of the sigma tower, deterministically ordered.

    Level 0 holds 0 and the elements 1 - gamma^i Pi^{q^k} for i < q and
    k <= k_max; level n+1 applies every gamma-shift of sigma to every
    q-tuple from level n.  Deduplication is syntactic on canonical keys.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
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
    generators, or Unknown past the cap."""
    from .verdict import Unknown

    frontier = {s.key(): s}
    for depth in range(cap_depth + 1):
        if all(rep.max_monomial_length() <= 1 for rep in frontier.values()):
            return depth
        grown: dict = {}
        for rep in frontier.values():
            for row in rep.phi():
                for entry in row:
                    if not entry.is_zero_literal:
                        grown.setdefault(entry.key(), entry)
        frontier = grown
    return Unknown(cap_depth)


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


def parse_element(text: str, ring, q: int, mode: str = "B") -> AlgebraElement:
    """Parse ``"2*x0 x1 - 1 + x1^-1 x0"`` style input."""
    from .words import parse_word

    stripped = text.strip()
    if not stripped:
        raise ValueError("empty element")
    tokens = stripped.replace("*", " ").replace("+", " + ").replace("-", " - ").split()
    # repair exponents that got split: "x1^", "-", "1" -> "x1^-1"
    fixed: list[str] = []
    idx = 0
    while idx < len(tokens):
        tok = tokens[idx]
        if tok.endswith("^") and idx + 2 < len(tokens) and tokens[idx + 1] == "-":
            fixed.append(tok + "-" + tokens[idx + 2])
            idx += 3
        elif tok.endswith("^") and idx + 1 < len(tokens):
            fixed.append(tok + tokens[idx + 1])
            idx += 2
        else:
            fixed.append(tok)
            idx += 1

    # group tokens into signed terms
    groups: list[tuple[int, list[str]]] = []
    sign = 1
    body: list[str] = []
    seen_sign = False
    for tok in fixed:
        if tok in ("+", "-"):
            if body:
                groups.append((sign, body))
                body = []
                sign = 1
                seen_sign = False
            if tok == "-":
                sign = -sign
            seen_sign = True
        else:
            body.append(tok)
    if body:
        groups.append((sign, body))
    elif seen_sign:
        raise ValueError("trailing sign without a term")
    if not groups:
        raise ValueError("empty element")

    terms: dict[Word, object] = {}
    for sgn, toks in groups:
        coeff = ring.coerce(1)
        letters: list[tuple[int, int]] = []
        for tok in toks:
            if tok == "1":
                continue
            elif tok.startswith("x"):
                letters.extend(parse_word(tok, q))
            elif letters:
                raise ValueError(f"coefficient {tok!r} after letters")
            else:
                coeff = coeff * ring.parse(tok)
        if sgn < 0:
            coeff = -coeff
        coeff = ring.coerce(coeff)
        word = tuple(letters)
        if mode == "B":
            word = free_reduce(word)
        new = terms.get(word, 0) + coeff
        if new == 0:
            terms.pop(word, None)
        else:
            terms[word] = new
    return AlgebraElement(ring, q, mode, terms)
