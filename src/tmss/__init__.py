"""Exact arithmetic for substitution self-similar groups and algebras.

The package follows one substitution: each generator x_i maps to the block
x_i x_{i+1} ... x_{i-1} of cyclically ascending letters.  Groups are
handled through wreath recursions with exact word-problem certificates;
algebras through sparse matrix decompositions; characters through closed
linear systems, back-substituted over the rationals in topological order
with elimination only inside cyclic components; and a floating-point renderer
draws Julia sets of the associated rational maps.
"""

from .algebra import (
    AlgebraElement,
    INTEGERS,
    Integers,
    PrimeField,
    RATIONALS,
    Rationals,
    contraction_depth,
    is_zero,
    mat_add,
    mat_mul,
    omega_enumerate,
    omega_generator,
    parse_element,
    phi_iterate,
    row_col_bound_profile,
    sigma,
)
from .characters import (
    Kernel,
    additivity_check,
    algebra_char,
    count_L,
    group_char,
    growth_constant,
    render_exact,
    spread_char,
    theorem_witness,
)
from .closure import SingularSystemError
from .dynamics import (
    PRESETS,
    PixelGrid,
    PointCloud,
    RationalMap,
    RenderConfig,
    julia_points,
    render,
    write_pgm,
)
from .group import NucleusResult, Permutation, WreathElement, WreathRecursion
from .verdict import Verdict
from .words import (
    InvalidLetterError,
    commutator,
    free_reduce,
    gamma,
    inverse,
    parse_word,
    power,
    render_word,
    theta,
    theta_iter,
    tm_prefix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
