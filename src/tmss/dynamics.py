"""Julia set sampling for rational maps by backward iteration.

A rational map is stored as ascending complex coefficient lists.  Points
are generated by walking preimages backwards from a repelling fixed point:
every step draws which of the d roots of f(w) = z to keep, finds and
Newton-polishes that root only, and emits the point once a burn-in prefix
has been discarded.  Backward orbits accumulate on the Julia set
regardless of escape behaviour, which suits maps with no polynomial
escape structure.

Roots come one at a time from a lazy sequence: Laguerre's method with
synthetic deflation down to a quadratic, then the quadratic formula, all
in pure Python.  ``preimages`` reads the whole sequence; a step of
``julia_points`` stops it at the root it drew.  A point cloud is returned
as a ``PointCloud``, a sequence of complex points packed two floats a
point, and ``render`` bins it into a ``PixelGrid``, a sequence of byte rows
that holds each pixel's hit count in 2 bits.

This is the only module that uses floating-point arithmetic; chains are
generated sequentially from a single seeded generator, so equal seeds give
bit-identical output.
"""

from __future__ import annotations

import cmath
import random
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice


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
    lead, tail = desc[0], desc[1:]
    x = 0j
    for it in range(1, 81):
        p, dp, half_ddp = lead, 0j, 0j
        for c in tail:
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


def _trimmed(coeffs) -> list[complex]:
    """The ascending ``coeffs`` in descending order, leading near-zeros
    trimmed; its length less one is the degree the roots are found for."""
    desc = list(reversed(coeffs))
    scale = max(map(abs, desc)) or 1.0
    while desc and abs(desc[0]) < 1e-14 * scale:
        desc.pop(0)
    return desc


def _root_sequence(desc) -> Iterator[complex]:
    """The roots of the trimmed descending ``desc``, one at a time: Laguerre
    and deflation down to a quadratic, then its two roots.  Nothing past
    the root a reader stops at is computed."""
    if len(desc) < 2:
        return
    if len(desc) == 2:
        b, c = desc
        yield -c / b
        return
    if len(desc) > 3:
        # every root lies within the Fujiwara bound 2 max |a_k / a_0|^(1/k)
        # of 0, so no useful Laguerre step is longer than twice that
        lead = abs(desc[0])
        reach = 4 * max((abs(c) / lead) ** (1 / k)
                        for k, c in enumerate(desc[1:], 1))
    while len(desc) > 3:
        root = _laguerre(desc, reach)
        yield root
        desc = _deflate(desc, root)
    a, b, c = desc
    disc = cmath.sqrt(b * b - 4 * a * c)
    if abs(b - disc) > abs(b + disc):
        disc = -disc
    top = -(b + disc) / 2
    first = top / a
    yield first
    yield c / top if top != 0 else -b / a - first


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

    def _roots(self, coeffs) -> Iterator[complex]:
        """The roots of the ascending ``coeffs``, lazily, in the order
        ``_root_sequence`` finds them."""
        return _root_sequence(_trimmed(coeffs))

    def _shifted(self, z: complex) -> list[complex]:
        """Ascending coefficients of num(w) - z den(w), whose roots are the
        preimages of z."""
        coeffs = list(self.num) + [0j] * max(0, len(self.den) - len(self.num))
        for k, c in enumerate(self.den):
            coeffs[k] -= z * c
        return coeffs

    def _polished(self, w: complex, z: complex) -> complex | None:
        """``w`` after up to 12 Newton steps on f(w) = z, or None unless
        its residual is then below 1e-9."""
        val = self(w) - z
        for _ in range(12):
            if abs(val) < 1e-9:
                return w
            dv = self.derivative(w)
            if dv == 0 or not cmath.isfinite(dv):
                return None
            w = w - val / dv
            val = self(w) - z
        return w if abs(val) < 1e-9 else None

    def preimages(self, z: complex) -> list[complex]:
        """All w with f(w) = z, Newton-polished to a residual below 1e-9."""
        polished = (self._polished(w, z) for w in self._roots(self._shifted(z)))
        return [w for w in polished if w is not None]

    def _backward_step(self, z: complex, rng: random.Random) -> complex | None:
        """One preimage of z, uniform over those ``preimages`` returns, or
        None when there is none.

        Draws k below the degree d first and finds and polishes only root k.
        If that root fails the 1e-9 gate, draws again over ``preimages(z)``,
        so each of the d - f roots that pass is kept with probability
        1/d + (f/d) 1/(d - f) = 1/(d - f).  When every root passes, the draw
        and the point are those of ``preimages(z)[rng.randrange(d)]``."""
        desc = _trimmed(self._shifted(z))
        if len(desc) < 2:
            return None
        k = rng.randrange(len(desc) - 1)
        w = self._polished(next(islice(_root_sequence(desc), k, None)), z)
        if w is None:
            roots = self.preimages(z)
            if not roots:
                return None
            w = roots[rng.randrange(len(roots))]
        return w

    def fixed_points(self) -> list[complex]:
        coeffs = list(self.num) + [0j] * (len(self.den) + 1 - len(self.num))
        for k, c in enumerate(self.den):
            coeffs[k + 1] -= c
        return list(self._roots(coeffs))

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
        w = f._backward_step(z, rng)
        if w is None:
            skips += 1
            if skips > allowed_skips:
                raise RuntimeError(
                    f"root finding failed {skips} times after {done} steps")
            z = f.repelling_fixed_point()
            continue
        z = w
        done += 1
        if done > cfg.burn_in:
            xy.append(z.real)
            xy.append(z.imag)
    # the grown array over-allocates; its copy holds exactly 2 * points
    return PointCloud(xy[:])


# the shade of a pixel hit 0, 1, 2 and 3 or more times: 255 less 96 a hit
_SHADES = (255, 159, 63, 0)
# _UNPACK[i] maps a byte of four 2-bit hit counts to the shade of count i
_UNPACK = tuple(bytes(_SHADES[b >> 2 * i & 3] for b in range(256))
                for i in range(4))


class PixelGrid(Sequence):
    """Immutable grayscale image: a sequence of ``bytes`` rows of shades,
    top row first.  Holds each pixel's hit
    count (0 to 3) in 2 bits, four pixels a byte, each row padded to whole
    bytes: a 96 x 96 grid holds 2,337 bytes, against 15,896 for a list of
    ``bytearray`` rows.  Compares equal to a pixel grid, list or tuple with
    the same rows in the same order."""

    __slots__ = ("_counts", "_width")

    def __init__(self, counts: bytes, width: int):
        self._counts = counts
        self._width = width

    def _shades(self, start: int, stop: int) -> bytearray:
        """Rows ``start`` to ``stop``, padding included, as one buffer."""
        stride = (self._width + 3) // 4
        packed = self._counts[start * stride:stop * stride]
        out = bytearray(4 * len(packed))
        for i, table in enumerate(_UNPACK):
            out[i::4] = packed.translate(table)
        return out

    def __len__(self) -> int:
        return len(self._counts) // ((self._width + 3) // 4)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        n = len(self)
        if not -n <= k < n:
            raise IndexError("row index out of range")
        k %= n
        return bytes(self._shades(k, k + 1)[:self._width])

    def __iter__(self):
        width, stride = self._width, 4 * ((self._width + 3) // 4)
        shades = self._shades(0, len(self))
        return (bytes(shades[i:i + width])
                for i in range(0, len(shades), stride))

    def __eq__(self, other):
        if isinstance(other, PixelGrid):
            return self._width == other._width and self._counts == other._counts
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PixelGrid({list(self)!r})"


def render(points, cfg: RenderConfig) -> PixelGrid:
    """Bin points into a grayscale grid; more hits darken a pixel.

    Counts hits in one flat ``bytearray``, top row first and each row
    padded to a multiple of 4 pixels, saturating at 3, and packs the counts
    four to a byte; the grid maps them to the shades 255, 159, 63 and 0
    with ``bytes.translate`` as its rows are read.  Points outside the
    viewport are dropped."""
    px, py, width = cfg.pixels_x, cfg.pixels_y, cfg.width
    height = width * py / px
    x0 = cfg.center.real - width / 2
    y0 = cfg.center.imag - height / 2
    stride = 4 * ((px + 3) // 4)
    counts = bytearray(stride * py)
    for p in points:
        ix = int((p.real - x0) / width * px)
        iy = int((p.imag - y0) / height * py)
        if 0 <= ix < px and 0 <= iy < py:
            k = (py - 1 - iy) * stride + ix
            if counts[k] < 3:
                counts[k] += 1
    # no count exceeds 3, so the four shifted counts of a byte never overlap
    packed = 0
    for i in range(4):
        packed |= int.from_bytes(counts[i::4], "little") << 2 * i
    return PixelGrid(packed.to_bytes(len(counts) // 4, "little"), px)


def write_pgm(path: str, grid: Sequence[bytes]) -> None:
    """Binary portable graymap, one byte per pixel, of a ``PixelGrid`` or
    any sequence of equal rows; the pixels are written in one call."""
    height = len(grid)
    width = len(grid[0]) if height else 0
    pixels = b"".join(grid)
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels)


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
