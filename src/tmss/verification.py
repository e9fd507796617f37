"""Replayable verification suite.

Every check recomputes a published value or property from scratch through
the public API and reports pass/fail with timing.  Each is declared once,
with its name and budget, by ``_check``, which registers it in
``ALL_CHECKS``; the CLI ``verify`` command runs them by ``SUITES`` and the
acceptance tests replay every registered check.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    RATIONALS,
    is_zero,
    mat_add,
    mat_mul,
    omega_enumerate,
    omega_generator,
    row_col_bound_profile,
)
from .characters import (
    Kernel,
    additivity_check,
    count_L,
    group_char,
    growth_constant,
    spread_char,
    theorem_witness,
)
from .dynamics import PRESETS, RationalMap, RenderConfig, julia_points, render
from .group import WreathRecursion
from .verdict import Verdict
from .words import (
    commutator,
    free_reduce,
    gamma,
    inverse,
    power,
    theta,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float | None = None

    @property
    def ok(self) -> bool:
        return self.passed and (self.budget is None or self.seconds <= self.budget)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail} [{self.seconds:.2f}s]"


ALL_CHECKS: list = []  # (name, check) pairs in definition order


def _check(name: str, budget: float | None = None):
    """Register the decorated body under ``name`` as a check that times it
    and returns its ``CheckResult``; a raised exception fails the check."""

    def register(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            try:
                passed, detail = body(*args, **kwargs)
            except Exception as exc:  # surfaced, never swallowed silently
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(name, passed, detail,
                               time.perf_counter() - start, budget)

        ALL_CHECKS.append((name, check))
        return check

    return register


def _one_minus_word(q: int, word) -> AlgebraElement:
    return (AlgebraElement.one(RATIONALS, q, "B")
            - AlgebraElement.monomial(RATIONALS, q, word, mode="B"))


def _random_word(rng: random.Random, q: int, max_len: int):
    length = rng.randint(0, max_len)
    return free_reduce(tuple(
        (rng.randrange(q), rng.choice((1, -1))) for _ in range(length)))


def _random_element(rng: random.Random, q: int) -> AlgebraElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = tuple((rng.randrange(q), rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 3)))
        terms[free_reduce(word)] = rng.choice((-2, -1, 1, 2))
    return AlgebraElement(RATIONALS, q, "B", terms)


# -- the thirteen checks -----------------------------------------------------


@_check("tower-values")
def check_tower_values(qs=(2, 3, 5), k_max=5):
    """Exact spread values 2/q^{k-1} and 2/q^k on the power tower."""
    worst = 0.0
    checked = 0
    for q in qs:
        for k in range(1, k_max + 1):
            t0 = time.perf_counter()
            value = spread_char(_one_minus_word(q, power(((0, 1),), q ** k)))
            if value != Fraction(2, q ** (k - 1)):
                return False, f"1-x0^{q}^{k} gave {value} at q={q}"
            worst = max(worst, time.perf_counter() - t0)
            checked += 1
            base = power(tuple((i, 1) for i in range(q)), q ** k)
            for i in range(q):
                t0 = time.perf_counter()
                value = spread_char(_one_minus_word(q, gamma(base, i, q)))
                if value != Fraction(2, q ** k):
                    return False, f"shifted tower q={q} k={k} i={i} gave {value}"
                worst = max(worst, time.perf_counter() - t0)
                checked += 1
    if not checked:
        return False, "no value checked"
    if worst > 1.0:
        return False, f"slowest of {checked} values took {worst:.2f}s"
    return True, f"{checked} exact values, slowest {worst:.3f}s"


@_check("base-values")
def check_base_values():
    """spread(x_0) = spread(x_1) = 1 and spread(1-x_0) = spread(1-x_1) = 2."""
    for q in (2, 3):
        for i in (0, 1):
            gen = AlgebraElement.generator(RATIONALS, q, i)
            if spread_char(gen) != 1:
                return False, f"x{i} at q={q}"
            if spread_char(AlgebraElement.one(RATIONALS, q) - gen) != 2:
                return False, f"1-x{i} at q={q}"
    return True, "generator and 1-generator values exact at q=2,3"


@_check("substitution-diagonal", 30.0)
def check_substitution_diagonal():
    """decompose(theta(w)) is perm-trivial with section i equal to
    the i-shifted word, on random words."""
    rng = random.Random(3)
    recs = {q: WreathRecursion.thue_morse(q) for q in (2, 3)}
    for n in range(100):
        q = 2 if n % 2 == 0 else 3
        rec = recs[q]
        w = _random_word(rng, q, 8)
        elem = rec.decompose(theta(w, q))
        if not elem.perm.is_identity:
            return False, f"nontrivial perm for {w} at q={q}"
        for i in range(q):
            if not rec.equal(elem.sections[i], gamma(w, i, q)).is_true:
                return False, f"section {i} mismatch for {w} at q={q}"
    return True, "100 random words at q=2,3, all diagonal and shifted"


@_check("word-problem", 10.0)
def check_word_problem():
    """Known trivial words certify, powers of x_0 refute, x_1 has order q."""
    cap = 100_000
    for q in (2, 3):
        rec = WreathRecursion.thue_morse(q)
        if not rec.is_trivial(((1, 1),) * q, cap_states=cap).is_true:
            return False, f"x1^{q} not certified at q={q}"
        for i in range(1, q):
            for j in range(1, q):
                word = ((i, 1), (j, -1))
                if not rec.is_trivial(word, cap_states=cap).is_true:
                    return False, f"x{i} x{j}^-1 not certified at q={q}"
        left = power(((0, 1), (1, -1)), q)
        right = power(((1, -1), (0, 1)), q)
        if not rec.is_trivial(commutator(left, right), cap_states=cap).is_true:
            return False, f"power commutator not certified at q={q}"
        for k in (1, 2, 3):
            verdict = rec.is_trivial(((0, 1),) * q ** k, cap_states=cap)
            if not verdict.is_false:
                return False, f"x0^{q}^{k} not refuted at q={q}: {verdict}"
        if rec.order_of(((1, 1),), cap_states=cap) != q:
            return False, f"order of x1 is not {q}"
    return True, "relations certified, tower powers refuted, order exact"


@_check("nucleus", 30.0)
def check_nucleus():
    """The nucleus is exactly the classes of 1, x_0^{+-1}, x_1^{+-1}."""
    for q in (2, 3, 4):
        rec = WreathRecursion.thue_morse(q)
        result = rec.nucleus()
        if not result.closed:
            return False, f"nucleus computation hit its cap at q={q}"
        targets = [(), ((0, 1),), ((0, -1),), ((1, 1),), ((1, -1),)]
        classes: list = []
        for t in targets:
            if not any(rec.equal(t, c).is_true for c in classes):
                classes.append(t)
        reps = list(result.representatives)
        if len(reps) != len(classes):
            return False, (f"q={q}: {len(reps)} classes, "
                           f"expected {len(classes)}")
        for t in classes:
            if not any(rec.equal(t, r).is_true for r in reps):
                return False, f"q={q}: missing class of {t}"
    return True, "exact class sets at q=2,3,4 (4, 5, 5 classes)"


@_check("algebra-relations", 5.0)
def check_algebra_relations():
    """x_1^q - 1 and the defining product vanish; x_0 - 1 does not."""
    for q in (2, 3):
        one = AlgebraElement.one(RATIONALS, q)

        rel1 = AlgebraElement.monomial(RATIONALS, q, ((1, 1),) * q) - one
        v1 = is_zero(rel1)
        if not v1.is_zero:
            return False, f"x1^{q}-1 gave {v1} at q={q}"

        u = AlgebraElement.monomial(RATIONALS, q, power(((0, 1), (1, -1)), q))
        v = AlgebraElement.monomial(RATIONALS, q, power(((1, -1), (0, 1)), q))
        v2 = is_zero((u - one) * (v - one))
        if not v2.is_zero:
            return False, f"defining product gave {v2} at q={q}"

        v3 = is_zero(AlgebraElement.generator(RATIONALS, q, 0) - one)
        if v3.state != "nonzero":
            return False, f"x0-1 gave {v3} at q={q}"
    return True, "both relations vanish, x0-1 refuted by a scalar entry"


@_check("homomorphism-laws", 60.0)
def check_homomorphism_laws():
    """decompose and phi respect products (and phi respects sums)."""
    rng = random.Random(7)
    recs = {q: WreathRecursion.thue_morse(q) for q in (2, 3)}
    for n in range(200):
        q = 2 if n % 2 == 0 else 3
        rec = recs[q]
        v = _random_word(rng, q, 6)
        w = _random_word(rng, q, 6)
        if rec.decompose(v + w) != rec.decompose(v) * rec.decompose(w):
            return False, f"group product law failed for {v}, {w} at q={q}"
    for n in range(200):
        q = 2 if n % 2 == 0 else 3
        s = _random_element(rng, q)
        t = _random_element(rng, q)
        if (s * t).phi() != mat_mul(s.phi(), t.phi()):
            return False, f"matrix product law failed at q={q}"
        if (s + t).phi() != mat_add(s.phi(), t.phi()):
            return False, f"matrix sum law failed at q={q}"
    return True, "200 product pairs per structure, zero failures"


@_check("counting-defect")
def check_counting_defect():
    """q^k chi_s(s) - count_L(s, k) is constant on k in [3, 6], and depth-20
    counting works through class evolution."""
    for q in (2, 3):
        one = AlgebraElement.one(RATIONALS, q)
        x0 = AlgebraElement.generator(RATIONALS, q, 0)
        tower = _one_minus_word(q, ((0, 1),) * q)
        for s in (x0, one - x0, tower):
            result = growth_constant(s, 3, 6)
            if isinstance(result, Verdict):
                return False, f"{result} for {s.render()} at q={q}"
            if not result[1]:
                return False, f"defect not constant for {s.render()} at q={q}"
        t0 = time.perf_counter()
        count_L(tower, 20)
        if time.perf_counter() - t0 > 5.0:
            return False, f"depth-20 count too slow at q={q}"
    return True, "defects constant on [3,6]; depth-20 counts are fast"


@_check("sigma-additivity", 60.0)
def check_sigma_additivity():
    """Character values add along sigma on tower elements, with the
    diagonal and shift-invariance side conditions."""
    q = 2
    rng = random.Random(9)
    pool = [AlgebraElement.zero(RATIONALS, q)]
    for k in range(3):
        for i in range(q):
            pool.append(omega_generator(RATIONALS, q, i, k))
    level1 = omega_enumerate(RATIONALS, q, 1, 2, size_cap=200)
    for elem in level1:
        block = elem.phi()
        diagonal = all(block[i][j].is_zero_literal
                       for i in range(q) for j in range(q) if i != j)
        if diagonal and not elem.is_zero_literal:
            pool.append(elem)
    for _ in range(20):
        batch = [rng.choice(pool) for _ in range(q)]
        report = additivity_check(batch)
        if isinstance(report, Verdict):
            return False, f"additivity check gave {report}"
        if not report["additive"]:
            return False, f"additivity failed: {report['sigma_value']}"
        for comp in report["components"]:
            if not (comp["diagonal"] and comp["gamma_invariant"]):
                return False, "side condition failed on a component"
    return True, "20 tuples additive with side conditions intact"


@_check("range-witnesses")
def check_range_witnesses():
    """Witness search reaches the even-numerator range and never returns a
    wrong value on odd numerators."""
    for q in (2, 3):
        for a in range(1, 6):
            for k in range(0, 4):
                target = Fraction(2 * a, q ** k)
                found = theorem_witness(target, q)
                if isinstance(found, Verdict):
                    return False, f"no witness for {target} at q={q}"
                if spread_char(found, cap_classes=20_000) != target:
                    return False, f"wrong witness value for {target}"
    for target in (Fraction(1, 3), Fraction(5, 9), Fraction(7, 27)):
        found = theorem_witness(target, 3)
        if not isinstance(found, Verdict):
            if spread_char(found, cap_classes=20_000) != target:
                return False, f"wrong value returned for {target}"
    one_witness = theorem_witness(Fraction(1), 3)
    if isinstance(one_witness, Verdict):
        return False, "no witness for 1"
    return True, "all even-numerator targets reached; odd ones never wrong"


@_check("fixed-point-oracle", 60.0)
def check_fixed_point_oracle():
    """Identity-kernel group character equals the depth-8 fixed-vertex
    fraction whenever the denominators are compatible."""
    q = 2
    depth = 8
    rec = WreathRecursion.thue_morse(q)
    rng = random.Random(11)
    memo: dict = {}

    def fixed_count(word, d) -> int:
        word = free_reduce(word)
        if not word:
            return q ** d
        if d == 0:
            return 1
        key = (word, d)
        if key not in memo:
            elem = rec.decompose(word)
            total = 0
            for a in range(q):
                if elem.perm(a) == a:
                    total += fixed_count(elem.sections[a], d - 1)
            memo[key] = total
        return memo[key]

    compared = 0
    for _ in range(25):
        w = _random_word(rng, q, 6)
        value = group_char(rec, w, Kernel.identity(q))
        if isinstance(value, Verdict):
            return False, f"unknown verdict for {w}"
        if (q ** depth) % value.denominator == 0:
            oracle = Fraction(fixed_count(w, depth), q ** depth)
            if value != oracle:
                return False, f"engine {value} vs oracle {oracle} for {w}"
            compared += 1
    return True, f"{compared} of 25 words compared exactly at depth 8"


@_check("boundedness", 10.0)
def check_boundedness():
    """x_0 stays boundedly decorated, x_1 dies out, matrix profile is 1."""
    for q in (2, 3):
        rec = WreathRecursion.thue_morse(q)
        profile = rec.boundedness_profile(((0, 1),), 10)
        if any(count > q for count in profile):
            return False, f"x0 profile {profile} exceeds {q}"
        tail = rec.boundedness_profile(((1, 1),), 10)[2:]
        if any(count != 0 for count in tail):
            return False, f"x1 profile tail {tail} is not zero"
        x0 = AlgebraElement.generator(RATIONALS, q, 0)
        rc = row_col_bound_profile(x0, 5)
        if any(pair != (1, 1) for pair in rc):
            return False, f"matrix profile {rc} is not constant 1"
    return True, "profiles bounded by q, x1 vanishes, matrix profile 1"


@_check("julia-renderer")
def check_julia_renderer():
    """Unit-circle oracle, preimage residuals, determinism, and speed."""
    z2 = PRESETS["z2"]
    cfg = RenderConfig(points=2000, seed=5)
    cloud = julia_points(z2, cfg)
    deviation = max(abs(abs(p) - 1) for p in cloud)
    if deviation > 1e-6:
        return False, f"unit circle deviation {deviation:.2e}"

    f2 = PRESETS["f2"]
    z = f2.repelling_fixed_point()
    rng = random.Random(1)
    for _ in range(500):
        pre = f2.preimages(z)
        if not pre:
            return False, "preimage solve failed on the f2 chain"
        w = pre[rng.randrange(len(pre))]
        if abs(f2(w) - z) >= 1e-9:
            return False, f"residual {abs(f2(w) - z):.2e} too large"
        z = w

    small = RenderConfig(points=3000, seed=42, pixels_x=64, pixels_y=64)
    first = render(julia_points(f2, small), small)
    second = render(julia_points(f2, small), small)
    if first != second:
        return False, "renders with equal seeds differ"

    big = RenderConfig(points=100_000, seed=0)
    t0 = time.perf_counter()
    julia_points(f2, big)
    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        return False, f"100000 points took {elapsed:.1f}s"
    return True, (f"circle within 1e-6, residuals under 1e-9, "
                  f"deterministic, 100000 points in {elapsed:.1f}s")


# the suites of ``tmss verify``, each the checks it runs in order
SUITES = {
    "all": tuple(check for _, check in ALL_CHECKS),
    "lemma-tm": (check_substitution_diagonal,),
    "lemma-infinitesimal": (check_tower_values, check_base_values),
    "lemma-additive": (check_sigma_additivity,),
    "presentation": (check_word_problem, check_algebra_relations),
    "counting": (check_counting_defect,),
}
