"""Julia set sampling for rational maps by backward iteration.

A rational map is stored as ascending complex coefficient lists.  Points
are generated by walking preimages backwards from a repelling fixed point:
every step solves f(w) = z for w, picks one root at random, and emits the
point once a burn-in prefix has been discarded.  Backward orbits
accumulate on the Julia set regardless of escape behaviour, which suits
maps with no polynomial escape structure.

Roots of degree 3 and more are found by Laguerre's method with synthetic
deflation, the last two by the quadratic formula, all in pure Python.  A
point cloud is returned as a ``PointCloud``, a sequence of complex points
packed two floats a point.

This is the only module that uses floating-point arithmetic; chains are
generated sequentially from a single seeded generator, so equal seeds give
bit-identical output.
"""

from __future__ import annotations

import cmath
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass


def _polyval(coeffs, z: complex) -> complex:
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _polyderiv(coeffs) -> tuple[complex, ...]:
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0j,)


def _degree(coeffs) -> int:
    """Index of the last nonzero ascending coefficient; 0 for zero."""
    n = len(coeffs) - 1
    while n > 0 and coeffs[n] == 0:
        n -= 1
    return n


# fractions of a Laguerre step, one taken every tenth iteration, that break
# the limit cycles the method can fall into
_CYCLE_BREAKS = (0.5, 0.25, 0.75, 0.13, 0.38, 0.62, 0.88, 1.0)


def _laguerre(desc, reach: float) -> complex:
    """One root of the polynomial with descending coefficients ``desc``,
    none of whose roots is further than ``reach / 2`` from 0.

    Laguerre's method from 0, which tends to reach a root of least modulus
    first.  Convergence to a simple root is cubic, so a step below 1e-7 of
    the iterate leaves an error far below the 1e-9 residual that
    ``preimages`` asks for.
    """
    n = len(desc) - 1
    x = 0j
    for it in range(1, 81):
        p, dp, half_ddp = desc[0], 0j, 0j
        for c in desc[1:]:
            half_ddp = half_ddp * x + dp
            dp = dp * x + p
            p = p * x + c
        if p == 0:
            return x
        # Laguerre's step n / (G +- sqrt((n-1)(nH - G^2))), G = p'/p and
        # H = G^2 - p''/p, times p/p: no division by a tiny p to overflow
        sq = cmath.sqrt((n - 1) * ((n - 1) * dp * dp - 2 * n * p * half_ddp))
        plus, minus = dp + sq, dp - sq
        den = plus if abs(plus) >= abs(minus) else minus
        step = n * p / den if den else reach
        if abs(step) >= reach:
            # a degenerate local model, as where p' = p'' = 0 (w^3 + 1 at
            # 0): step off by the bound, at an angle that turns each time
            step = reach / 2 * cmath.exp(1j * it)
        if it % 10 == 0:
            step *= _CYCLE_BREAKS[(it // 10 - 1) % len(_CYCLE_BREAKS)]
        x -= step
        if abs(step) <= 1e-7 * abs(x):
            return x
    return x


def _deflate(desc, r):
    """The quotient of ``desc`` (descending) by w - r, dropping the
    remainder.  Dividing from the leading coefficient is stable for a root
    of modulus below the geometric mean of all the roots' moduli, and from
    the constant term for one above it."""
    m = len(desc) - 1
    if abs(r) ** m * abs(desc[0]) <= abs(desc[m]):
        quot = [desc[0]]
        for c in desc[1:m]:
            quot.append(c + r * quot[-1])
        return quot
    quot = [-desc[m] / r]
    for c in desc[m - 1:0:-1]:
        quot.append((quot[-1] - c) / r)
    quot.reverse()
    return quot


class RationalMap:
    """Quotient of two polynomials with complex coefficients, ascending."""

    def __init__(self, numerator, denominator):
        self.num = tuple(complex(c) for c in numerator)
        self.den = tuple(complex(c) for c in denominator)
        if all(abs(c) == 0 for c in self.den):
            raise ValueError("denominator is identically zero")
        # divide out the roots they share: z(z - 1)/(z - 1) has degree 1
        for r in self._roots(self.den):
            size = _polyval([abs(c) for c in self.num], abs(r)).real
            if abs(_polyval(self.num, r)) <= 1e-9 * size:
                self.num, self.den = (tuple(_deflate(p[::-1], r)[::-1])
                                      for p in (self.num, self.den))
        self._dnum = _polyderiv(self.num)
        self._dden = _polyderiv(self.den)

    @property
    def degree(self) -> int:
        return max(_degree(self.num), _degree(self.den))

    def __call__(self, z: complex) -> complex:
        den = _polyval(self.den, z)
        if den == 0:
            return complex("inf")
        return _polyval(self.num, z) / den

    def derivative(self, z: complex) -> complex:
        n, d = _polyval(self.num, z), _polyval(self.den, z)
        dn, dd = _polyval(self._dnum, z), _polyval(self._dden, z)
        if d == 0:
            return complex("inf")
        return (dn * d - n * dd) / (d * d)

    def _roots(self, coeffs) -> list[complex]:
        # descending order, leading near-zeros trimmed
        desc = list(reversed(coeffs))
        scale = max(abs(c) for c in desc) or 1.0
        while desc and abs(desc[0]) < 1e-14 * scale:
            desc.pop(0)
        if len(desc) < 2:
            return []
        if len(desc) == 2:
            b, c = desc
            return [-c / b]
        # every root lies within the Fujiwara bound 2 max |a_k / a_0|^(1/k)
        # of 0, so no useful Laguerre step is longer than twice that
        lead = abs(desc[0])
        reach = 4 * max((abs(c) / lead) ** (1 / k)
                        for k, c in enumerate(desc[1:], 1))
        roots = []
        while len(desc) > 3:
            roots.append(_laguerre(desc, reach))
            desc = _deflate(desc, roots[-1])
        a, b, c = desc
        disc = cmath.sqrt(b * b - 4 * a * c)
        if abs(b - disc) > abs(b + disc):
            disc = -disc
        top = -(b + disc) / 2
        first = top / a
        second = c / top if top != 0 else -b / a - first
        roots += (first, second)
        return roots

    def preimages(self, z: complex) -> list[complex]:
        """All w with f(w) = z, Newton-polished to a residual below 1e-9."""
        coeffs = list(self.num) + [0j] * max(0, len(self.den) - len(self.num))
        for k, c in enumerate(self.den):
            coeffs[k] -= z * c
        polished = []
        for w in self._roots(coeffs):
            val = self(w) - z
            for _ in range(12):
                if abs(val) < 1e-9:
                    break
                dv = self.derivative(w)
                if dv == 0 or not cmath.isfinite(dv):
                    break
                w = w - val / dv
                val = self(w) - z
            if abs(val) < 1e-9:
                polished.append(w)
        return polished

    def fixed_points(self) -> list[complex]:
        coeffs = list(self.num) + [0j] * (len(self.den) + 1 - len(self.num))
        for k, c in enumerate(self.den):
            coeffs[k + 1] -= c
        return self._roots(coeffs)

    def repelling_fixed_point(self) -> complex:
        fixed = self.fixed_points()
        if not fixed:
            raise ValueError("map has no finite fixed point")
        repelling = [w for w in fixed if abs(self.derivative(w)) > 1]
        if repelling:
            return max(repelling, key=lambda w: abs(self.derivative(w)))
        return max(fixed, key=lambda w: abs(self.derivative(w)))


@dataclass(frozen=True)
class RenderConfig:
    center: complex = 0j
    width: float = 4.0
    pixels_x: int = 400
    pixels_y: int = 400
    points: int = 100_000
    seed: int = 0
    burn_in: int = 100

    def __post_init__(self):
        if self.pixels_x <= 0 or self.pixels_y <= 0:
            raise ValueError("pixel dimensions must be positive")
        if self.points < 0 or self.burn_in < 0:
            raise ValueError("point and burn-in budgets must be nonnegative")
        if not cmath.isfinite(self.center):
            raise ValueError("viewport center must be finite")
        if not cmath.isfinite(self.width):
            raise ValueError("viewport width must be finite")
        if self.width <= 0:
            raise ValueError("viewport width must be positive")


class PointCloud(Sequence):
    """Immutable sequence of complex points, held as interleaved real and
    imaginary parts in one ``array('d')``: 16 bytes a point, against 40
    for a list of complex numbers.  Compares equal to a point cloud, list
    or tuple with the same points in the same order."""

    __slots__ = ("_xy",)

    def __init__(self, xy: array):
        self._xy = xy

    def __len__(self) -> int:
        return len(self._xy) // 2

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        n = len(self)
        if not -n <= k < n:
            raise IndexError("point index out of range")
        k = 2 * (k % n)
        return complex(self._xy[k], self._xy[k + 1])

    def __iter__(self):
        return map(complex, self._xy[::2], self._xy[1::2])

    def __eq__(self, other):
        if isinstance(other, PointCloud):
            return self._xy == other._xy
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PointCloud({list(self)!r})"


def julia_points(f: RationalMap, cfg: RenderConfig) -> PointCloud:
    """Backward-iteration point cloud; deterministic for a fixed seed."""
    if f.degree < 2:
        raise ValueError("backward iteration needs degree at least 2")
    xy = array("d")
    if cfg.points == 0:
        return PointCloud(xy)
    rng = random.Random(cfg.seed)
    z = f.repelling_fixed_point()
    skips = 0
    steps = cfg.points + cfg.burn_in
    allowed_skips = max(100, steps // 5)
    done = 0
    while done < steps:
        roots = f.preimages(z)
        if not roots:
            skips += 1
            if skips > allowed_skips:
                raise RuntimeError(
                    f"root finding failed {skips} times after {done} steps")
            z = f.repelling_fixed_point()
            continue
        z = roots[rng.randrange(len(roots))]
        done += 1
        if done > cfg.burn_in:
            xy.append(z.real)
            xy.append(z.imag)
    return PointCloud(xy)


def render(points, cfg: RenderConfig) -> list[bytearray]:
    """Bin points into a grayscale grid; more hits darken a pixel."""
    half = cfg.width / 2
    height = cfg.width * cfg.pixels_y / cfg.pixels_x
    x0 = cfg.center.real - half
    y0 = cfg.center.imag - height / 2
    counts = [[0] * cfg.pixels_x for _ in range(cfg.pixels_y)]
    for p in points:
        px = int((p.real - x0) / cfg.width * cfg.pixels_x)
        py = int((p.imag - y0) / height * cfg.pixels_y)
        if 0 <= px < cfg.pixels_x and 0 <= py < cfg.pixels_y:
            counts[cfg.pixels_y - 1 - py][px] += 1
    return [bytearray(max(0, 255 - 96 * c) for c in row) for row in counts]


def write_pgm(path: str, grid: list[bytearray]) -> None:
    """Binary portable graymap, one byte per pixel."""
    height = len(grid)
    width = len(grid[0]) if height else 0
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        for row in grid:
            handle.write(bytes(row))


PRESETS: dict[str, RationalMap] = {
    "z2": RationalMap([0, 0, 1], [1]),
    "f2": RationalMap([1], [0, 1, -0.5]),
    "f3": RationalMap(
        [0.128775 + 0.0942072j],
        [0, 1, -1.74702 + 0.285702j, 0.831347 - 0.190468j]),
    "f4": RationalMap(
        [0.0232438 + 0.0757918j],
        [0, 1, -2.67804 + 1.10938j, 2.37852 - 1.93187j, -0.694865 + 0.89421j]),
    "f5": RationalMap(
        [-0.00877156 + 0.0526634j],
        [0, 1, -3.22614 + 2.0417j, 3.13076 - 5.12089j, -0.677772 + 4.35662j,
         -0.245783 - 1.22944j]),
}
