"""The package's lazy exports, and the modules a session loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmss

SRC = Path(__file__).resolve().parent.parent / "src"

# the names that ``tmss`` exported when it imported every submodule
EXPORTS = {
    "AlgebraElement", "INTEGERS", "Integers", "InvalidLetterError", "Kernel",
    "NucleusResult", "PRESETS", "Permutation", "PixelGrid", "PointCloud",
    "PrimeField", "RATIONALS", "RationalMap", "Rationals", "RenderConfig",
    "SingularSystemError", "Verdict", "WreathElement", "WreathRecursion",
    "additivity_check", "algebra", "algebra_char", "characters", "closure",
    "commutator", "contraction_depth", "count_L", "dynamics", "free_reduce",
    "gamma", "group", "group_char", "growth_constant", "inverse", "is_zero",
    "julia_points", "mat_add", "mat_mul", "omega_enumerate", "omega_generator",
    "parse_element", "parse_word", "phi_iterate", "power", "render",
    "render_exact", "render_word", "row_col_bound_profile", "sigma",
    "spread_char", "theorem_witness", "theta", "theta_iter", "tm_prefix",
    "verdict", "words", "write_pgm",
}
SUBMODULES = ("algebra", "characters", "cli", "closure", "dynamics", "group",
              "verdict", "verification", "words")
# the submodules that define the names in EXPORTS that are not submodules
HOMES = ("algebra", "characters", "closure", "dynamics", "group", "verdict",
         "words")


def _probe(code: str):
    """The JSON value that ``code`` prints last in a fresh interpreter that
    has imported ``json`` and ``sys``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}"],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_after(code: str) -> set[str]:
    """The ``tmss`` modules loaded in a fresh interpreter after ``code``."""
    return set(_probe(f"{code}\nprint(json.dumps(sorted(m for m in sys.modules "
                      "if m == 'tmss' or m.startswith('tmss.'))))"))


def test_all_keeps_the_exported_names():
    assert len(tmss.__all__) == 57
    assert tmss.__all__ == sorted(EXPORTS)


def test_dir_lists_every_export():
    listed = dir(tmss)
    assert EXPORTS <= set(listed) and listed == sorted(listed)
    assert "__version__" in listed


@pytest.mark.parametrize("name", sorted(EXPORTS - set(SUBMODULES)))
def test_each_export_is_the_object_its_module_defines(name):
    value = getattr(tmss, name)
    homes = [home for home in HOMES
             if getattr(importlib.import_module(f"tmss.{home}"), name, None)
             is value]
    assert homes, name
    # a class, a function or an instance of a class names its module
    defined_in = getattr(value, "__module__", None)
    if defined_in is not None:
        assert defined_in in {f"tmss.{home}" for home in homes}


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(tmss, "nope")
    with pytest.raises(AttributeError, match="'tmss' has no attribute 'nope'"):
        tmss.nope


def test_a_name_is_bound_in_the_package_when_first_read():
    # a fresh package binds no export; the first read binds the object of
    # its submodule, and later reads give that object, as an eager import
    # would have bound it
    bound = _probe(
        "import tmss\n"
        "before = [n for n in tmss.__all__ if n in vars(tmss)]\n"
        "import tmss.words\n"
        "first = tmss.free_reduce is tmss.words.free_reduce\n"
        "kept = vars(tmss)['free_reduce'] is tmss.words.free_reduce\n"
        "tmss.words.free_reduce = len\n"
        "print(json.dumps([before, first, kept, tmss.free_reduce is not len]))")
    assert bound == [[], True, True, True]


def test_every_submodule_resolves_through_the_package():
    names = ", ".join(map(repr, SUBMODULES))
    loaded = _loaded_after(
        f"import tmss\n"
        f"for name in ({names}):\n"
        f"    assert getattr(tmss, name).__name__ == 'tmss.' + name, name")
    assert loaded == {"tmss", *(f"tmss.{name}" for name in SUBMODULES)}


CLI = {"tmss", "tmss.cli", "tmss.verdict", "tmss.words"}


@pytest.mark.parametrize("code, loaded", [
    ("import tmss", {"tmss"}),
    ("import tmss, tmss.cli; tmss.cli.build_parser()", CLI),
    ("import tmss, tmss.cli; tmss.cli.main(['--help'])", CLI),
    ("import tmss, tmss.cli; tmss.cli.main(['word', 'prefix', '3'])", CLI),
    ("import tmss, tmss.cli; tmss.cli.main(['group', 'trivial', 'x0 x0^-1'])",
     CLI | {"tmss.group", "tmss.closure"}),
    ("import os, tmss, tmss.cli; tmss.cli.main(['julia', 'render', '--points', "
     "'20', '--pixels', '4,4', '--out', os.devnull])",
     CLI | {"tmss.dynamics"}),
    ("import tmss, tmss.cli; tmss.cli.main(['verify', 'lemma-tm'])",
     {"tmss", *(f"tmss.{name}" for name in SUBMODULES)}),
], ids=["import", "parser", "help", "word prefix", "group trivial",
        "julia render", "verify lemma-tm"])
def test_a_session_loads_only_the_modules_it_uses(code, loaded):
    assert _loaded_after(code) == loaded
