"""Exact arithmetic for substitution self-similar groups and algebras.

The package follows one substitution: each generator x_i maps to the block
x_i x_{i+1} ... x_{i-1} of cyclically ascending letters.  Groups are
handled through wreath recursions with exact word-problem certificates;
algebras through sparse matrix decompositions; characters through closed
linear systems, back-substituted over the rationals in topological order
with elimination only inside cyclic components; and a floating-point renderer
draws Julia sets of the associated rational maps.

Importing the package loads none of its submodules.  An exported name is
read from the submodule that defines it on first access (PEP 562) and then
kept in the package namespace, where an eager import would have bound it,
so a session loads only the engines it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    "algebra": (
        "AlgebraElement", "INTEGERS", "Integers", "PrimeField", "RATIONALS",
        "Rationals", "contraction_depth", "is_zero", "mat_add", "mat_mul",
        "omega_enumerate", "omega_generator", "parse_element", "phi_iterate",
        "row_col_bound_profile", "sigma",
    ),
    "characters": (
        "Kernel", "additivity_check", "algebra_char", "count_L", "group_char",
        "growth_constant", "render_exact", "spread_char", "theorem_witness",
    ),
    "closure": ("SingularSystemError",),
    "dynamics": (
        "PRESETS", "PixelGrid", "PointCloud", "RationalMap", "RenderConfig",
        "julia_points", "render", "write_pgm",
    ),
    "group": ("NucleusResult", "Permutation", "WreathElement", "WreathRecursion"),
    "verdict": ("Verdict",),
    "words": (
        "InvalidLetterError", "commutator", "free_reduce", "gamma", "inverse",
        "parse_word", "power", "render_word", "theta", "theta_iter", "tm_prefix",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset([*_EXPORTS, "cli", "verification"])

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = globals()[name] = getattr(
            _import_module(f"{__name__}.{module}"), name)
        return value
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
