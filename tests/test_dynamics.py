"""Floating-point Julia set sampling; everything else in the package is exact."""

import cmath
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmss.dynamics import (
    PRESETS,
    PixelGrid,
    PointCloud,
    RationalMap,
    RenderConfig,
    _polyval,
    julia_points,
    render,
    write_pgm,
)


def test_preset_degrees():
    assert PRESETS["z2"].degree == 2
    assert PRESETS["f2"].degree == 2
    assert PRESETS["f3"].degree == 3
    assert PRESETS["f4"].degree == 4
    assert PRESETS["f5"].degree == 5
    # no preset has a common factor to cancel, so each keeps its coefficients
    sizes = {"z2": (3, 1), "f2": (1, 3), "f3": (1, 4), "f4": (1, 5), "f5": (1, 6)}
    for name, f in PRESETS.items():
        assert (len(f.num), len(f.den)) == sizes[name]
        again = RationalMap(f.num, f.den)
        assert (again.num, again.den, again.degree) == (f.num, f.den, f.degree)


def test_evaluation_of_squaring_map():
    f = PRESETS["z2"]
    assert f(2 + 1j) == (2 + 1j) ** 2
    assert abs(f.derivative(3j) - 6j) < 1e-12


def test_evaluation_of_quotient():
    f = PRESETS["f2"]
    z = 0.3 + 0.2j
    assert abs(f(z) - 1 / (z - 0.5 * z * z)) < 1e-12
    h = 1e-7
    numeric = (f(z + h) - f(z)) / h
    assert abs(f.derivative(z) - numeric) < 1e-5


def test_fixed_points_of_squaring_map():
    f = PRESETS["z2"]
    fixed = sorted(f.fixed_points(), key=abs)
    assert len(fixed) == 2
    assert abs(fixed[0]) < 1e-9
    assert abs(fixed[1] - 1) < 1e-9
    assert abs(f.repelling_fixed_point() - 1) < 1e-9


def test_fixed_points_solve_the_equation():
    for name in ("f2", "f3", "f4", "f5"):
        f = PRESETS[name]
        for w in f.fixed_points():
            assert abs(f(w) - w) < 1e-6


def test_preimages_invert_the_map():
    rng = random.Random(7)
    for name, f in PRESETS.items():
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            roots = f.preimages(z)
            assert roots, (name, z)
            for w in roots:
                assert abs(f(w) - z) < 1e-9


def test_quadratic_roots_match_numpy():
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(3)]
        if abs(coeffs[2]) < 1e-3:
            continue
        f = RationalMap(coeffs, [1])
        mine = sorted(f._roots(list(coeffs)), key=lambda w: (w.real, w.imag))
        ref = sorted(np.roots(list(reversed(coeffs))),
                     key=lambda w: (w.real, w.imag))
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-7


def test_unit_circle_oracle():
    cfg = RenderConfig(points=2000, seed=3)
    for z in julia_points(PRESETS["z2"], cfg):
        assert abs(abs(z) - 1) < 1e-6


def test_point_cloud_is_deterministic():
    cfg = RenderConfig(points=500, seed=42)
    first = julia_points(PRESETS["f2"], cfg)
    second = julia_points(PRESETS["f2"], cfg)
    assert first == second
    shifted = julia_points(PRESETS["f2"], RenderConfig(points=500, seed=43))
    assert first != shifted


def test_grids_are_deterministic():
    cfg = RenderConfig(points=800, seed=5, pixels_x=64, pixels_y=64)
    one = render(julia_points(PRESETS["f3"], cfg), cfg)
    two = render(julia_points(PRESETS["f3"], cfg), cfg)
    assert one == two


def test_point_cloud_is_a_sequence_of_the_chain():
    f = PRESETS["f3"]
    cloud = julia_points(f, RenderConfig(points=50, seed=9))
    assert isinstance(cloud, PointCloud) and len(cloud) == 50
    points = list(cloud)
    assert all(type(p) is complex for p in points)
    assert [cloud[k] for k in range(-50, 50)] == points + points
    assert cloud[10:13] == points[10:13] and cloud[::-7] == points[::-7]
    for k in (50, -51):
        with pytest.raises(IndexError):
            cloud[k]
    # one backward chain: each point is a preimage of the one before
    for z, w in zip(points, points[1:]):
        assert abs(f(w) - z) < 1e-9
    assert cloud == points and cloud == tuple(points) and points == cloud
    assert cloud != points[:-1] and cloud != "points"
    assert cloud.index(points[7]) == 7 and points[3] in cloud
    assert repr(cloud) == f"PointCloud({points!r})"


def _all_roots_chain(f, cfg):
    """The step loop ``julia_points`` had when it solved for every root: all
    preimages, then a uniform draw over them."""
    rng = random.Random(cfg.seed)
    z = f.repelling_fixed_point()
    out = []
    while len(out) < cfg.burn_in + cfg.points:
        roots = f.preimages(z)
        if not roots:
            z = f.repelling_fixed_point()
            continue
        z = roots[rng.randrange(len(roots))]
        out.append(z)
    return out[cfg.burn_in:]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_lazy_pick_matches_the_all_roots_chain_bit_for_bit(name):
    f = PRESETS[name]
    for seed in range(10):
        cfg = RenderConfig(points=300, burn_in=50, seed=seed)
        cloud = julia_points(f, cfg)
        assert [(p.real, p.imag) for p in cloud] == [
            (p.real, p.imag) for p in _all_roots_chain(f, cfg)]


def test_cloud_holds_exactly_its_points():
    # the array is copied at the end, not preallocated from cfg.points
    cloud = julia_points(PRESETS["f3"], RenderConfig(points=300, burn_in=50))
    assert cloud._xy.buffer_info()[1] == 600
    assert sys.getsizeof(cloud._xy) == sys.getsizeof(array("d")) + 8 * 600


_POLISHED = RationalMap._polished


def _failing_once(monkeypatch):
    """Make the first ``_polished`` call fail the gate; return its calls."""
    calls = []

    def patched(self, w, z):
        calls.append(w)
        return None if len(calls) == 1 else _POLISHED(self, w, z)

    monkeypatch.setattr(RationalMap, "_polished", patched)
    return calls


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_chosen_root_that_fails_falls_back_to_a_draw_over_preimages(
        name, monkeypatch):
    f = PRESETS[name]
    z = f.repelling_fixed_point()
    roots = f.preimages(z)
    assert len(roots) == f.degree
    for seed in range(5):
        calls = _failing_once(monkeypatch)
        cloud = julia_points(f, RenderConfig(points=1, burn_in=0, seed=seed))
        # one failed pick, then preimages(z) polishes every root again
        assert len(calls) == 1 + f.degree
        rng = random.Random(seed)
        rng.randrange(f.degree)
        assert list(cloud) == [roots[rng.randrange(len(roots))]]


class _Draws:
    """A generator of scripted draws that records each range asked for."""

    def __init__(self, *draws):
        self.draws, self.ranges = list(draws), []

    def randrange(self, n):
        self.ranges.append(n)
        return self.draws.pop(0)


@pytest.mark.parametrize("name, failing", [
    ("f2", {1}), ("f3", {0}), ("f4", {1, 3}), ("f5", {0, 2, 4}), ("f5", {4})])
def test_the_pick_stays_uniform_over_the_roots_that_pass(name, failing,
                                                         monkeypatch):
    # with f of d roots failing, a passing root is kept with probability
    # 1/d + (f/d) 1/(d - f) = 1/(d - f), and a failing one never
    f = PRESETS[name]
    z = f.repelling_fixed_point()
    roots = f.preimages(z)
    d, bad = len(roots), {roots[k] for k in failing}

    def gate(self, w, z):
        w = _POLISHED(self, w, z)
        return None if w in bad else w

    monkeypatch.setattr(RationalMap, "_polished", gate)
    passing = f.preimages(z)
    assert passing == [w for w in roots if w not in bad]
    chance = dict.fromkeys(roots, Fraction(0))
    for k in range(d):
        if k in failing:
            for j in range(len(passing)):
                draws = _Draws(k, j)
                chance[f._backward_step(z, draws)] += Fraction(
                    1, d * len(passing))
                assert draws.ranges == [d, len(passing)]
        else:
            draws = _Draws(k)
            assert f._backward_step(z, draws) == roots[k]
            chance[roots[k]] += Fraction(1, d)
            assert draws.ranges == [d]
    assert chance == {w: Fraction(0) if w in bad else Fraction(1, d - len(bad))
                      for w in roots}


def test_a_step_with_no_passing_root_draws_once_and_gives_none(monkeypatch):
    f = PRESETS["f3"]
    monkeypatch.setattr(RationalMap, "_polished", lambda self, w, z: None)
    draws = _Draws(2)
    assert f._backward_step(0.3 + 0.1j, draws) is None
    assert draws.ranges == [3]


def test_zero_points_gives_empty_cloud():
    cfg = RenderConfig(points=0)
    assert julia_points(PRESETS["z2"], cfg) == []


def test_degree_one_map_is_rejected():
    line = RationalMap([0, 2], [1])
    with pytest.raises(ValueError):
        julia_points(line, RenderConfig(points=10))


@pytest.mark.parametrize("num, den", [
    ([0, 2, 0], [1]),        # z -> 2z
    ([1], [0, 1, 0, 0]),     # z -> 1/z
])
def test_zero_top_coefficients_do_not_count_towards_the_degree(num, den):
    f = RationalMap(num, den)
    assert f.degree == 1
    with pytest.raises(ValueError, match="degree at least 2"):
        julia_points(f, RenderConfig(points=5, seed=1))


@pytest.mark.parametrize("num, den, degree", [
    ([0, -1, 1], [-1, 1], 1),            # z(z - 1)/(z - 1) is z
    ([0, 1, -1], [0, 0, 1, -1], 1),      # z(1 - z)/(z^2 (1 - z)) is 1/z
    ([-1, 0, 1], [1, -2, 1], 1),         # (z^2 - 1)/(z - 1)^2
    ([0, -1, 0, 1], [-1, 1], 2),         # (z^3 - z)/(z - 1) is z^2 + z
])
def test_common_factors_are_cancelled(num, den, degree):
    f = RationalMap(num, den)
    assert f.degree == degree
    for z in (0.3 + 0.2j, -1.7j, 2.5):
        assert abs(f(z) - _polyval(num, z) / _polyval(den, z)) < 1e-9
    if degree < 2:
        with pytest.raises(ValueError, match="degree at least 2"):
            julia_points(f, RenderConfig(points=5, seed=1))


def test_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(pixels_x=0)
    with pytest.raises(ValueError):
        RenderConfig(points=-1)
    with pytest.raises(ValueError):
        RenderConfig(width=0)


@pytest.mark.parametrize("center, width", [
    (complex(float("nan"), 0), 4.0),
    (complex(0, float("inf")), 4.0),
    (0j, float("nan")),
    (0j, float("inf")),
])
def test_config_rejects_a_non_finite_viewport(center, width):
    with pytest.raises(ValueError, match="must be finite"):
        RenderConfig(center=center, width=width)


def _bin_points(points, center, width, px, py):
    """The list of rows ``render`` returned before it packed its grid."""
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


@pytest.mark.parametrize("seed", range(6))
def test_render_matches_a_binning_reference(seed):
    rng = random.Random(seed)
    px, py = rng.randrange(1, 40), rng.randrange(1, 40)
    cfg = RenderConfig(center=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       width=rng.uniform(0.5, 4), pixels_x=px, pixels_y=py)
    # wider than the viewport, so some points are clipped, and many per
    # pixel, so some pixels saturate
    cloud = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
             for _ in range(8 * px * py)]
    cloud += [cfg.center] * 5
    grid = render(cloud, cfg)
    expected = _bin_points(cloud, cfg.center, cfg.width, px, py)
    assert isinstance(grid, PixelGrid) and grid == expected
    shades = {v for row in expected for v in row}
    assert 0 in shades and 255 in shades


def test_render_of_a_julia_cloud_matches_the_binning_reference():
    cfg = RenderConfig(points=3000, seed=42, pixels_x=64, pixels_y=48,
                       center=0.2 - 0.1j, width=3.0)
    cloud = julia_points(PRESETS["f3"], cfg)
    assert render(cloud, cfg) == _bin_points(cloud, cfg.center, cfg.width,
                                             64, 48)


def _grid(hits):
    """The grid ``render`` draws from ``hits[r][c]`` points on the pixel in
    row r (from the top) and column c: each pixel is a unit square."""
    py, px = len(hits), len(hits[0])
    cfg = RenderConfig(width=float(px), pixels_x=px, pixels_y=py, points=0)
    return render([complex(c + 0.5 - px / 2, py / 2 - r - 0.5)
                   for r, row in enumerate(hits)
                   for c, n in enumerate(row) for _ in range(n)], cfg)


def test_pixel_grid_is_a_sequence_of_byte_rows():
    grid = _grid([[0, 1, 2], [3, 0, 0], [2, 2, 4], [1, 3, 0]])
    rows = [bytes([255, 159, 63]), bytes([0, 255, 255]), bytes([63, 63, 0]),
            bytes([159, 0, 255])]
    assert isinstance(grid, PixelGrid)
    assert len(grid) == 4 and list(grid) == rows
    assert all(type(row) is bytes for row in grid)
    assert [grid[k] for k in range(-4, 4)] == rows + rows
    assert grid[1:3] == rows[1:3] and grid[::-3] == rows[::-3]
    assert grid[5:] == []
    for k in (4, -5):
        with pytest.raises(IndexError):
            grid[k]
    assert grid.index(rows[2]) == 2 and rows[3] in grid
    assert repr(grid) == f"PixelGrid({rows!r})"
    # four pixels a byte, each row padded to whole bytes
    assert len(grid._counts) == 4
    assert len(_grid([[1] * 96] * 96)._counts) == 96 * 96 // 4


def test_pixel_grids_compare_by_rows():
    hits = [[0, 1, 2, 3, 0], [3, 0, 0, 1, 1]]
    grid = _grid(hits)
    rows = [bytes([255, 159, 63, 0, 255]), bytes([0, 255, 255, 159, 159])]
    as_bytearrays = [bytearray(row) for row in rows]
    assert grid == as_bytearrays and as_bytearrays == grid
    assert grid == tuple(rows) and grid == _grid(hits)
    assert not grid != as_bytearrays
    # the same pixels in another shape; one pixel off; a row short; not rows
    assert grid != _grid([hits[0] + hits[1]])
    assert grid != _grid([[0, 1, 2, 3, 0], [3, 0, 0, 1, 0]])
    assert grid != [bytearray(rows[0]), bytearray(rows[1][:-1] + b"\xfe")]
    assert grid != as_bytearrays[:1] and grid != tuple(rows[:1])
    assert grid != _grid(hits[:1])
    assert grid != b"".join(rows) and grid != "rows"


def test_render_bins_points():
    cfg = RenderConfig(center=0j, width=4.0, pixels_x=4, pixels_y=4, points=0)
    grid = render([0.1 + 0.1j], cfg)
    assert len(grid) == 4 and all(len(row) == 4 for row in grid)
    # one hit darkens exactly one pixel by one step
    flat = [v for row in grid for v in row]
    assert sorted(set(flat)) == [255 - 96, 255]
    # y axis grows upward, so the slightly northeast point lands
    # in the upper right quadrant
    assert grid[1][2] == 255 - 96


def test_render_clips_outside_points():
    cfg = RenderConfig(width=2.0, pixels_x=2, pixels_y=2, points=0)
    grid = render([100 + 100j, -50j], cfg)
    assert all(v == 255 for row in grid for v in row)


def test_saturated_pixel_floors_at_black():
    cfg = RenderConfig(width=4.0, pixels_x=2, pixels_y=2, points=0)
    grid = render([0.5 + 0.5j] * 10, cfg)
    assert min(v for row in grid for v in row) == 0


def test_pgm_output(tmp_path):
    cfg = RenderConfig(width=4.0, pixels_x=4, pixels_y=2, points=0)
    grid = render([1 + 0.5j], cfg)
    target = tmp_path / "out.pgm"
    write_pgm(str(target), grid)
    blob = target.read_bytes()
    assert blob == b"P5\n4 2\n255\n" + b"".join(grid)
    assert len(blob) == len(b"P5\n4 2\n255\n") + 8
    # a list of rows is written the same way
    write_pgm(str(target), [bytearray(row) for row in grid])
    assert target.read_bytes() == blob


def _same_roots(mine, ref, tol):
    """Each of ``mine`` within ``tol`` of its own element of ``ref``."""
    assert len(mine) == len(ref)
    left = [complex(r) for r in ref]
    for w in mine:
        near = min(left, key=lambda r: abs(r - w))
        assert abs(near - w) <= tol, (w, near)
        left.remove(near)


@st.composite
def separated_roots(draw):
    """3 to 8 roots, one per cell of a 0.5-spaced grid, at least 0.3 apart."""
    cells = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=3, max_size=8, unique=True))
    jitter = st.floats(-0.1, 0.1)
    return [complex(0.5 * x + draw(jitter), 0.5 * y + draw(jitter))
            for x, y in cells]


@given(separated_roots(), st.floats(0.5, 2), st.floats(-3.2, 3.2))
@settings(max_examples=300, deadline=None)
def test_roots_match_numpy_on_separated_roots(roots, modulus, angle):
    coeffs = [cmath.rect(modulus, angle)]
    for r in roots:
        # multiply the ascending coefficients by (w - r)
        coeffs = [a - r * b for a, b in zip([0j] + coeffs, coeffs + [0j])]
    mine = list(RationalMap([1], [1])._roots(coeffs))
    _same_roots(mine, np.roots(list(reversed(coeffs))), 1e-7)
    _same_roots(mine, roots, 1e-7)


@pytest.mark.parametrize("coeffs, tol", [
    ([1, 0, 0, 1], 1e-12),          # p' = p'' = 0 at the start
    ([0, 0, 0, 1], 0),              # a triple root at the start
    ([-1, 3, -3, 1], 1e-4),         # a triple root elsewhere
    ([1e-300, 1, 0, 0, 1], 1e-12),  # a root of modulus 1e-300
    # Laguerre's method cycles here unless a fraction of a step breaks it
    ([-320 - 42j, 0.12 - 6.9e-05j, -0.00034 + 0.00097j, 0.075 + 0.00031j,
      0.0014 + 0.11j, 620 + 0.0037j, -0.012 - 27j], 1e-9),
    # the first root is the largest: only dividing from the constant term
    # keeps the other five
    ([3.1 - 1800j, -1.9 - 0.00049j, 0.00068 + 0.00042j, 0.071 - 0.021j,
      0.033 - 810j, -0.0011 - 1200j, -0.85 - 0.91j], 1e-9),
])
def test_roots_of_awkward_polynomials_match_numpy(coeffs, tol):
    coeffs = [complex(c) for c in coeffs]
    mine = list(RationalMap([1], [1])._roots(coeffs))
    _same_roots(mine, np.roots(list(reversed(coeffs))), tol)


@pytest.mark.parametrize("name", ["f3", "f4", "f5"])
def test_preset_preimage_roots_match_numpy(name):
    # c - z D(w), which is D(w) - c/z up to the factor -z
    f = PRESETS[name]
    (c,), den = f.num, f.den
    rng = random.Random(13)
    for _ in range(200):
        z = cmath.rect(rng.uniform(0.05, 3), rng.uniform(-3.2, 3.2))
        coeffs = [c - z * den[0]] + [-z * d for d in den[1:]]
        _same_roots(list(f._roots(coeffs)), np.roots(list(reversed(coeffs))), 1e-9)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_backward_chains_keep_every_preimage(name):
    # a dropped root would bias the uniform choice of preimage
    f = PRESETS[name]
    for seed in range(3):
        rng = random.Random(seed)
        z = f.repelling_fixed_point()
        for _ in range(400):
            roots = f.preimages(z)
            assert len(roots) == f.degree, (z, roots)
            for w in roots:
                assert abs(f(w) - z) < 1e-9
            z = roots[rng.randrange(len(roots))]


def test_preimages_polish_rough_roots_and_drop_bad_ones(monkeypatch):
    f, z = PRESETS["f4"], 0.3 + 0.4j
    rough = [w + 1e-6j for w in f.preimages(z)]
    assert all(abs(f(w) - z) >= 1e-9 for w in rough)
    monkeypatch.setattr(RationalMap, "_roots",
                        lambda self, coeffs: rough + [complex("nan")])
    polished = f.preimages(z)
    assert len(polished) == 4
    for w, start in zip(polished, rough):
        assert abs(f(w) - z) < 1e-9 and abs(w - start) < 1e-5


def test_quintic_preimages_are_all_found():
    f = PRESETS["f5"]
    roots = f.preimages(0.7 - 0.1j)
    assert len(roots) == 5
    for w in roots:
        assert abs(f(w) - (0.7 - 0.1j)) < 1e-9


def test_drawing_a_julia_set_with_every_preset_loads_no_numpy():
    # a fresh interpreter: this one has numpy loaded already
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, tmss, tmss.cli\n"
            "for f in tmss.PRESETS.values():\n"
            "    tmss.julia_points(f, tmss.RenderConfig(points=20, burn_in=5))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["[]"]
