"""Seeded inputs, oracles and queries for the four benchmark workloads.

``build(name, tm, seed, tiny)`` makes one workload from the imported
``tmss`` package ``tm``.  Inputs depend only on the seed.  Every oracle is a
closed form or is computed by code in this file (a tree action, a free
reduction, a count over the explicit ``phi_iterate``, a pixel binning),
never by the call that is timed.  A query is a zero-argument call into the
public API of ``tmss``; its check turns the answer into OK, WRONG or UNKNOWN
(a budget or cap was hit).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

OK, WRONG, UNKNOWN = "ok", "wrong", "unknown"

Check = Callable[[Any, list], str]  # (answer, all answers of the pass) -> status


@dataclass
class Workload:
    """Queries of one pass, in order, with one check per query.

    ``make_pass`` returns the calls of a fresh pass, aligned with ``checks``,
    and a state dict the tracer may read after the pass.  ``final_checks``
    runs once per run, outside every timed region, and returns one status
    per extra confirmation it makes.
    """

    labels: list[str]
    checks: list[Check]
    make_pass: Callable[[], tuple[list[Callable[[], Any]], dict]]
    final_checks: Callable[[], list[str]] = field(default=lambda: [])


def _equals(expected) -> Check:
    return lambda answer, _answers: OK if answer == expected else WRONG


# -- words, independent of tmss ------------------------------------------------


def push_reduced(stack: list, word) -> None:
    """Append ``word`` to the freely reduced ``stack``, cancelling pairs."""
    for letter in word:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)


def reduce_word(word):
    stack: list = []
    push_reduced(stack, word)
    return tuple(stack)


def inverse_word(word):
    return tuple((i, -sign) for i, sign in reversed(word))


def random_reduced_word(rng: random.Random, q: int, length: int):
    word = []
    while len(word) < length:
        letter = (rng.randrange(q), rng.choice((1, -1)))
        if word and word[-1] == (letter[0], -letter[1]):
            continue
        word.append(letter)
    return tuple(word)


def tree_act(word, vertex, q: int):
    """Image of a vertex under a word of the Thue-Morse group G_q.

    Closed form of the recursion x_0 = <x_0, ..., x_{q-1}> rho and
    x_i = <1, ..., 1> rho with rho(a) = a - 1: a letter rotates the first
    vertex letter and, for x_0^{+-1}, continues one level down with the
    section x_a^{+-1}.  Letters act left to right.
    """
    v = list(vertex)
    for i, sign in word:
        pos = 0
        while pos < len(v):
            a = (v[pos] - 1) % q if sign == 1 else (v[pos] + 1) % q
            section = v[pos] if sign == 1 else a
            v[pos] = a
            if i != 0:
                break
            i = section
            pos += 1
    return tuple(v)


def find_moved_vertex(word, q: int, rng: random.Random):
    """A random vertex of depth 12 that the word moves, or None after 64
    tries."""
    for _ in range(64):
        vertex = tuple(rng.randrange(q) for _ in range(12))
        if tree_act(word, vertex, q) != vertex:
            return vertex
    return None


# -- tower-chars ---------------------------------------------------------------


def _tower_chars(tm, seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"tower-chars:{seed}")
    ring = tm.RATIONALS
    k_max = 2 if tiny else 5
    labels, checks, calls = [], [], []

    def one_minus(q, word):
        return (tm.AlgebraElement.one(ring, q)
                - tm.AlgebraElement.monomial(ring, q, word))

    # per (q, k): the power of x_0 and the shifts gamma^i of the power of Pi;
    # at q = 5 two seeded shifts, since all five cost the same and would
    # crowd out the rest.  The 13 values at (5, k >= 3) and (3, 5) cost well
    # over the rest, so p90 falls inside that group whatever the seed.
    for q in (2, 3, 5):
        for k in range(1, k_max + 1):
            s = one_minus(q, ((0, 1),) * q ** k)
            labels.append(f"spread 1-x0^({q}^{k})")
            checks.append(_equals(Fraction(2, q ** (k - 1))))
            calls.append(lambda s=s: tm.spread_char(s))
            block = tuple((i, 1) for i in range(q)) * q ** k
            for i in range(q) if q < 5 else rng.sample(range(q), 2):
                shifted = tuple(((a + i) % q, sign) for a, sign in block)
                s = one_minus(q, shifted)
                labels.append(f"spread 1-gamma^{i} Pi^({q}^{k})")
                checks.append(_equals(Fraction(2, q ** k)))
                calls.append(lambda s=s: tm.spread_char(s))

    # sigma combinations: the value is the sum of the components' closed
    # forms 2/q^k, because the spread character is gamma-invariant and every
    # entry of phi(sigma(s)) is a gamma-shift of one component.  Every
    # pattern of tower levels k (None for a zero component) is used once, so
    # the cost of a pass hardly depends on the seed; the seed picks the shifts.
    for q, levels in ((2, (None, 0, 1, 2, 3)), (3, (None, 0, 1))):
        patterns = [p for p in itertools.product(levels, repeat=q)
                    if any(k is not None for k in p)]
        for pattern in patterns[:2] if tiny else patterns:
            comps = [tm.AlgebraElement.zero(ring, q) if k is None
                     else tm.omega_generator(ring, q, rng.randrange(q), k)
                     for k in pattern]
            value = sum((Fraction(2, q ** k) for k in pattern if k is not None),
                        Fraction(0))
            shift = rng.randrange(q)
            labels.append(f"spread gamma^{shift} sigma{pattern} q={q}")
            checks.append(_equals(value))
            calls.append(lambda c=tuple(comps), g=shift:
                         tm.spread_char(tm.sigma(*c).gamma_map(g)))

    return Workload(labels, checks, lambda: (calls, {}))


# -- word-problem --------------------------------------------------------------


def _relators(q: int):
    rels = [((1, 1),) * q]
    rels += [((i, 1), (j, -1)) for i in range(1, q) for j in range(1, q) if i != j]
    left = ((0, 1), (1, -1)) * q
    right = ((1, -1), (0, 1)) * q
    rels.append(left + right + inverse_word(left) + inverse_word(right))
    return rels


def _word_problem(tm, seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"word-problem:{seed}")
    strata, lo, hi = (4, 40, 200) if tiny else (45, 200, 4000)
    labels, checks, specs = [], [], []
    refuted: list[tuple[int, tuple]] = []
    for stratum in range(strata):
        # three queries per stratum, with length lo * (hi/lo)^(u^4): most
        # queries are short and the longest reach the quadratic tail of
        # decompose.  The seed changes the words, not their lengths.  Strata
        # 16-28 share one length and so do strata 34-41, so that p50 and p90
        # each fall amid 24 or more queries of one length, not on a jump
        # between lengths or between the costs of the three kinds.
        u = stratum / (strata - 1)
        if not tiny and 16 <= stratum <= 28:
            u = 22 / (strata - 1)
        elif not tiny and 34 <= stratum <= 41:
            u = 37 / (strata - 1)
        length = round(lo * (hi / lo) ** (u ** 4))
        for kind, q in (("relators", 2), ("relators", 3),
                        ("random", 2 + stratum % 2)):
            if kind == "relators":
                rels, stack = _relators(q), []
                while len(stack) < length:
                    # near the end only x1^q with a short conjugator, so the
                    # word overshoots its length by a few letters at most
                    room = length - len(stack)
                    rel = rng.choice(rels) if room > 40 else rels[0]
                    if rng.random() < 0.5:
                        rel = inverse_word(rel)
                    g = random_reduced_word(rng, q, rng.randint(0, min(12, room // 3)))
                    push_reduced(stack, g + rel + inverse_word(g))
                word = tuple(stack)
                checks.append(lambda v, _a: (UNKNOWN if v.is_unknown
                                             else OK if v.is_true else WRONG))
            else:
                while True:
                    word = random_reduced_word(rng, q, length)
                    if find_moved_vertex(word, q, rng) is not None:
                        break
                refuted.append((q, word))
                checks.append(lambda v, _a: (UNKNOWN if v.is_unknown
                                             else OK if v.is_false else WRONG))
            labels.append(f"is_trivial {kind} q={q} len={len(word)}")
            specs.append((q, word))
    order = list(range(len(specs)))
    rng.shuffle(order)
    labels = [labels[i] for i in order]
    checks = [checks[i] for i in order]
    specs = [specs[i] for i in order]

    def make_pass():
        # fresh recursions: the triviality cache only holds what this pass saw
        recs = {q: tm.WreathRecursion.thue_morse(q) for q in (2, 3)}
        calls = [lambda q=q, w=w: recs[q].is_trivial(w) for q, w in specs]
        return calls, {"recs": recs}

    def final_checks():
        # a false verdict is confirmed by a vertex the engine says it moves,
        # and the closed-form tree action agrees on the image
        recs = {q: tm.WreathRecursion.thue_morse(q) for q in (2, 3)}
        out = []
        for q, word in refuted:
            vertex = recs[q].moved_vertex(word)
            if vertex is None:
                out.append(UNKNOWN)
                continue
            image = recs[q].act(word, vertex)
            out.append(OK if image != vertex and image == tree_act(word, vertex, q)
                       else WRONG)
        return out

    return Workload(labels, checks, make_pass, final_checks)


# -- zero-count ----------------------------------------------------------------


def _countable_entries(entries) -> int:
    """Entries that, with x_i -> x_1 for i >= 2 and free reduction, are a
    nonzero multiple of 1, x_0 or x_1."""
    count = 0
    for entry in entries:
        terms: dict = {}
        for word, coeff in entry.terms.items():
            collapsed = reduce_word(tuple((min(i, 1), s) for i, s in word))
            terms[collapsed] = terms.get(collapsed, 0) + coeff
        alive = [w for w, c in terms.items() if c != 0]
        count += len(alive) == 1 and len(alive[0]) <= 1
    return count


def _zero_count(tm, seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"zero-count:{seed}")
    ring = tm.RATIONALS
    # elements per level at q = 2 and q = 3.  The group sizes put p50 inside
    # the 300 count_L(s, 30) queries on level-1 elements, and p90 inside the
    # 150 on level-2 elements at q = 3, the costliest group, whatever the seed.
    per_level = {2: (6, 4), 3: (6, 4)} if tiny else {2: (150, 50), 3: (150, 150)}
    count_depth = 30
    labels, checks, calls = [], [], []
    elements = []

    for q, k_max in ((2, 4), (3, 1)):
        pool = [(tm.AlgebraElement.zero(ring, q), Fraction(0))]
        pool += [(tm.omega_generator(ring, q, i, k), Fraction(2, q ** k))
                 for k in range(k_max + 1) for i in range(q)]
        for level, wanted in zip((1, 2), per_level[q]):
            found: dict = {}
            for _ in range(50 * wanted):
                if len(found) == wanted:
                    break
                picks = [rng.choice(pool) for _ in range(q)]
                s = tm.sigma(*(p[0] for p in picks)).gamma_map(rng.randrange(q))
                found.setdefault(s.key(scale=False),
                                 (q, level, s, sum((p[1] for p in picks), Fraction(0))))
            elements += found.values()
            # level 2 combines level-1 elements, whose values are known
            pool = [(s, value) for _q, _level, s, value in found.values()]

    for q, level, s, value in elements:
        # a literally nonzero chi certifies nonzero; zero only for sigma(0..0)
        expected = "zero" if value == 0 else "nonzero"
        labels.append(f"is_zero level-{level} q={q}")
        checks.append(lambda v, _a, e=expected: (UNKNOWN if v.is_unknown
                                                 else OK if v.state == e else WRONG))
        calls.append(lambda s=s: tm.is_zero(s))
        # past the contraction depth every entry is a countable monomial,
        # so count_L(s, k) = q^k chi(s) with chi the sum of the tower values
        labels.append(f"count_L({count_depth}) level-{level} q={q}")
        checks.append(_equals(int(value * q ** count_depth)))
        calls.append(lambda s=s: tm.count_L(s, count_depth))

    # shallow counts against the explicit phi-iterate, on the same number
    # of elements from each (q, level) bucket
    picked = []
    for bucket in ((2, 1), (2, 2), (3, 1), (3, 2)):
        members = [e for e in elements if e[:2] == bucket]
        picked += rng.sample(members, 1 if tiny else 3)
    for q, level, s, _value in picked:
        depth = 5 if q == 2 else 4
        expected = _countable_entries(tm.phi_iterate(s, depth).values())
        labels.append(f"count_L({depth}) level-{level} q={q}")
        checks.append(_equals(expected))
        calls.append(lambda s=s, d=depth: tm.count_L(s, d))

    # products with the defining relations vanish
    for n in range(4 if tiny else 40):
        q = 2 + n % 2
        one = tm.AlgebraElement.one(ring, q)
        mono = lambda w: tm.AlgebraElement.monomial(ring, q, w)  # noqa: E731
        if n % 4 < 2:
            u = mono(((0, 1), (1, -1)) * q)
            v = mono(((1, -1), (0, 1)) * q)
            relation = (u - one) * (v - one)
        else:
            relation = mono(((1, 1),) * q) - one

        def small():
            out = tm.AlgebraElement.zero(ring, q)
            while out.is_zero_literal:
                for _ in range(rng.randint(1, 2)):
                    word = random_reduced_word(rng, q, rng.randint(0, 3))
                    out = out + mono(word).scale(rng.choice((-2, -1, 1, 2)))
            return out

        s = small() * relation * small()
        labels.append(f"is_zero relation product q={q}")
        checks.append(lambda v, _a: (UNKNOWN if v.is_unknown
                                     else OK if v.is_zero else WRONG))
        calls.append(lambda s=s: tm.is_zero(s))

    return Workload(labels, checks, lambda: (calls, {}))


# -- julia -----------------------------------------------------------------------


def _horner(coeffs, z: complex) -> complex:
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def bin_points(points, center: complex, width: float, px: int, py: int):
    """Grayscale grid of a point cloud: 255 minus 96 per hit, clamped."""
    height = width * py / px
    x0 = center.real - width / 2
    y0 = center.imag - height / 2
    counts = [[0] * px for _ in range(py)]
    for p in points:
        ix = int((p.real - x0) / width * px)
        iy = int((p.imag - y0) / height * py)
        if 0 <= ix < px and 0 <= iy < py:
            counts[py - 1 - iy][ix] += 1
    return [bytearray(max(0, 255 - 96 * c) for c in row) for row in counts]


def _julia(tm, seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"julia:{seed}")
    points, burn_in = (30, 10) if tiny else (300, 50)
    per_map = 4 if tiny else 20
    labels, checks, calls = [], [], []

    for name in ("z2", "f2", "f3", "f4", "f5"):
        f = tm.PRESETS[name]
        cfgs = [tm.RenderConfig(points=points, burn_in=burn_in,
                                seed=rng.randrange(2 ** 31))
                for _ in range(per_map - 1)]
        first = len(calls)
        for n, cfg in enumerate(cfgs + cfgs[:1]):
            labels.append(f"julia_points {name} seed={cfg.seed}")
            checks.append(_julia_check(f, name, points, rng.randrange(2 ** 31),
                                       first if n == len(cfgs) else None))
            calls.append(lambda f=f, cfg=cfg: tm.julia_points(f, cfg))

    for _ in range(4 if tiny else 20):
        cfg = tm.RenderConfig(center=complex(rng.uniform(-0.5, 0.5),
                                             rng.uniform(-0.5, 0.5)),
                              width=4.0, pixels_x=96, pixels_y=96)
        cloud = [complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
                 for _ in range(200 if tiny else 2000)]
        expected = bin_points(cloud, cfg.center, cfg.width, cfg.pixels_x,
                              cfg.pixels_y)
        labels.append("render 96x96")
        checks.append(_equals(expected))
        calls.append(lambda c=cloud, cfg=cfg: tm.render(c, cfg))

    return Workload(labels, checks, lambda: (calls, {}))


def _julia_check(f, name: str, points: int, sample_seed: int,
                 repeat_of: int | None) -> Check:
    """Count, unit-circle bound for z2, preimage residuals of sampled
    consecutive points, and bit-identical output for a repeated seed."""
    num, den = f.num, f.den

    def check(cloud, answers):
        if len(cloud) != points:
            return WRONG
        if name == "z2" and max(abs(abs(p) - 1) for p in cloud) > 1e-6:
            return WRONG
        sample = random.Random(sample_seed).sample(range(points - 1),
                                                   min(16, points - 1))
        for k in sample:
            w, z = cloud[k + 1], cloud[k]
            if abs(_horner(num, w) / _horner(den, w) - z) >= 1e-9:
                return WRONG
        if repeat_of is not None and cloud != answers[repeat_of]:
            return WRONG
        return OK

    return check


WORKLOADS = {
    "tower-chars": _tower_chars,
    "word-problem": _word_problem,
    "zero-count": _zero_count,
    "julia": _julia,
}


def build(name: str, tm, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](tm, seed, tiny)
