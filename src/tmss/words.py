"""Free-group words over x_0, ..., x_{q-1} and the cyclic substitution.

A letter is a pair ``(i, sign)`` with ``0 <= i < q`` and ``sign`` in
``{+1, -1}``; a word is a tuple of letters.  The substitution ``theta`` sends
``x_i`` to the length-q block ``x_i x_{i+1} ... x_{i-1}`` (indices mod q) and
an inverse letter to the inverse of that block, so it extends to an
endomorphism of the free group.  The rotation ``gamma`` sends ``x_i`` to
``x_{i+shift}`` and commutes with ``theta``.  Iterating ``theta`` on ``x_0``
converges to an infinite fixed word; ``tm_prefix`` returns its prefixes, which
for q = 2 form the Thue-Morse sequence.

Each alphabet has one object per letter (``shared_letters``); ``theta`` and
``gamma`` write those objects, and so do the elements of the algebra.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import chain

Letter = tuple[int, int]
Word = tuple[Letter, ...]


class InvalidLetterError(ValueError):
    """Raised when a letter index falls outside 0 .. q-1."""


def check_alphabet(q: int) -> None:
    """Validate the alphabet size: the objects need letters x0 and x1."""
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")


def check_word(word: Word, q: int) -> Word:
    """Validate every letter of ``word`` against the alphabet size ``q``;
    the one letter check of the package."""
    for i, sign in word:
        if not 0 <= i < q or i != int(i):
            raise InvalidLetterError(f"letter x{i} is outside x0..x{q - 1}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
    return word


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[Letter] = []
    for let in word:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    return tuple(stack)


def inverse(word: Word) -> Word:
    return tuple((i, -sign) for i, sign in reversed(word))


def power(word: Word, k: int) -> Word:
    if k < 0:
        return inverse(word) * (-k)
    return word * k


def commutator(a: Word, b: Word) -> Word:
    return a + b + inverse(a) + inverse(b)


class LetterMap(dict):
    """A map of letters, filled on first use of each letter: ``image(letter)``
    gives the value of a letter not seen yet.  Words mapped through it share
    their letter objects, and a map for a large alphabet holds only the
    letters that were used."""

    __slots__ = ("image",)

    def __init__(self, image):
        super().__init__()
        self.image = image

    def __missing__(self, letter):
        value = self[letter] = self.image(letter)
        return value


@lru_cache(maxsize=64)
def shared_letters(q: int) -> LetterMap:
    """The alphabet's one object for each letter, filled on first use.

    A letter is checked (``check_word``) the first time it is looked up,
    and maps to the normalized pair ``(int i, +1 or -1)``, so ``(0, True)``
    enters as ``(0, 1)``.  Every map of this module and every element of
    the algebra write these objects, so equal letters in their words are
    one object and words compare letter by letter by identity.  The maps
    of the last 64 alphabets used are kept; an alphabet whose map was
    dropped gets new objects, which are still equal to the old ones."""
    def normalized(letter: Letter) -> Letter:
        (i, sign), = check_word((letter,), q)
        return int(i), 1 if sign == 1 else -1
    return LetterMap(normalized)


@lru_cache(maxsize=64)
def _theta_blocks(q: int) -> LetterMap:
    """The block that ``theta`` writes for each letter, of shared letters."""
    shared = shared_letters(q)

    def block(letter: Letter) -> Word:
        i, sign = letter
        if sign == 1:
            return tuple(shared[(i + k) % q, 1] for k in range(q))
        return tuple(shared[(i + k) % q, -1] for k in range(q - 1, -1, -1))
    return LetterMap(block)


@lru_cache(maxsize=64)
def _inverse_letters(q: int) -> LetterMap:
    """The shared inverse of each letter."""
    shared = shared_letters(q)

    def inverted(letter: Letter) -> Letter:
        i, sign = letter
        return shared[i, -sign]
    return LetterMap(inverted)


def theta(word: Word, q: int) -> Word:
    """Apply the substitution once.  No free reduction: |theta(w)| = q|w|."""
    check_word(word, q)
    return tuple(chain.from_iterable(map(_theta_blocks(q).__getitem__, word)))


def theta_iter(word: Word, q: int, n: int) -> Word:
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    for _ in range(n):
        word = theta(word, q)
    return word


@lru_cache(maxsize=256)
def _gamma_letters(shift: int, q: int) -> LetterMap:
    """The shared letter that ``gamma`` writes for each letter."""
    shared = shared_letters(q)

    def rotated(letter: Letter) -> Letter:
        i, sign = letter
        return shared[(i + shift) % q, sign]
    return LetterMap(rotated)


def gamma(word: Word, shift: int, q: int) -> Word:
    """Rotate every letter index by ``shift`` modulo q, keeping signs."""
    return tuple(map(_gamma_letters(shift, q).__getitem__, word))


def tm_prefix(q: int, n: int) -> tuple[int, ...]:
    """First ``n`` letter indices of the fixed word of ``theta``.

    Works by iterating the substitution on x_0 and truncating to ``n``
    letters each round; truncation is safe because the fixed word begins
    with theta^k(x_0) for every k, so memory stays linear in ``n``.
    """
    check_alphabet(q)
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    seq: list[int] = [0]
    while len(seq) < n:
        grown: list[int] = []
        for i in seq:
            grown.extend((i + k) % q for k in range(q))
            if len(grown) >= n:
                break
        seq = grown
    return tuple(seq[:n])


_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def _parse_token(tok: str, q: int) -> tuple[int, int]:
    """The letter index and the signed exponent of one ``parse_word`` token
    other than ``"1"``, such as ``"x1^-3"``; ValueError for a malformed
    token, a letter outside the alphabet or an exponent too large for a
    word to hold."""
    m = _TOKEN.match(tok)
    if m is None:
        raise ValueError(f"cannot parse word token {tok!r}")
    i = int(m.group(1))
    check_word(((i, 1),), q)
    exponent = int(m.group(2)) if m.group(2) is not None else 1
    if abs(exponent) > sys.maxsize:
        raise ValueError(f"exponent of word token {tok!r} is too large")
    return i, exponent


def parse_word(text: str, q: int) -> Word:
    """Parse ``"x0 x1^-1 x2"`` style input; ``"1"`` stands for the empty word."""
    check_alphabet(q)
    out: list[Letter] = []
    for tok in text.split():
        if tok != "1":
            i, exponent = _parse_token(tok, q)
            out.extend(((i, 1 if exponent >= 0 else -1),) * abs(exponent))
    return tuple(out)


def render_word(word: Word) -> str:
    """Inverse of ``parse_word`` up to grouping of adjacent equal letters."""
    if not word:
        return "1"
    parts: list[str] = []
    idx = 0
    while idx < len(word):
        i, sign = word[idx]
        run = 1
        while idx + run < len(word) and word[idx + run] == (i, sign):
            run += 1
        exponent = run * sign
        parts.append(f"x{i}" if exponent == 1 else f"x{i}^{exponent}")
        idx += run
    return " ".join(parts)
