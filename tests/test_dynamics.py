"""Floating-point Julia set sampling; everything else in the package is exact."""

import cmath
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tmss.dynamics import (
    PRESETS,
    RationalMap,
    RenderConfig,
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


def test_zero_points_gives_empty_cloud():
    cfg = RenderConfig(points=0)
    assert julia_points(PRESETS["z2"], cfg) == []


def test_degree_one_map_is_rejected():
    line = RationalMap([0, 2], [1])
    with pytest.raises(ValueError):
        julia_points(line, RenderConfig(points=10))


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
    assert blob.startswith(b"P5\n4 2\n255\n")
    assert len(blob) == len(b"P5\n4 2\n255\n") + 8


def test_high_degree_preimages_use_companion_fallback():
    f = PRESETS["f5"]
    roots = f.preimages(0.7 - 0.1j)
    assert len(roots) == 5
    for w in roots:
        assert abs(f(w) - (0.7 - 0.1j)) < 1e-9


def test_numpy_is_loaded_only_to_draw_a_julia_set():
    # a fresh interpreter: this one has numpy loaded already
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, tmss, tmss.cli; loaded = 'numpy' in sys.modules; "
            "tmss.julia_points(tmss.PRESETS['f3'], tmss.RenderConfig(points=2)); "
            "print(loaded, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["False", "True"]
