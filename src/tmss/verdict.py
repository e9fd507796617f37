"""The one answer type for semi-decided questions.

Closure-based procedures certify an answer or run into a budget.  A yes/no
question answers with a ``Verdict`` (``true``/``false``, or ``zero``/
``nonzero`` for the zero test); a value-returning call (an order, a
character value, a count) returns its bare value, or an unknown
``Verdict`` naming the budget that ran out.  Inside a closure, running past
the class cap raises ``ClassExplosionError``; no public call lets it escape.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Verdict:
    """A certified answer, or ``unknown`` with what stopped the search.

    ``state`` is ``"true"``, ``"false"``, ``"zero"``, ``"nonzero"`` or
    ``"unknown"``.  An unknown verdict carries ``cap``, the value of the
    budget that ran out, and ``limit``, its name (``cap_states``,
    ``cap_power``, ``cap_depth``, ``cap_classes``, ``budget_leaves``) or the
    reason an answer is out of reach.  A zero test carries the ``depth`` it
    was certified at and, when nonzero, the ``witness`` (row, col, scalar).
    """

    state: str
    cap: int | None = None
    limit: str | None = None
    depth: int | None = None
    witness: tuple | None = None

    @staticmethod
    def yes() -> "Verdict":
        return _YES

    @staticmethod
    def no() -> "Verdict":
        return _NO

    @staticmethod
    def unknown(cap: int | None, limit: str) -> "Verdict":
        return Verdict("unknown", cap, limit)

    @property
    def is_true(self) -> bool:
        return self.state == "true"

    @property
    def is_false(self) -> bool:
        return self.state == "false"

    @property
    def is_zero(self) -> bool:
        return self.state == "zero"

    @property
    def is_unknown(self) -> bool:
        return self.state == "unknown"

    def __str__(self) -> str:
        if self.state == "zero":
            return f"zero(depth={self.depth})"
        if self.state == "nonzero":
            row, col, scalar = self.witness
            u = "".join(map(str, row)) or "e"
            v = "".join(map(str, col)) or "e"
            return f"nonzero(witness=({u},{v}), scalar={scalar})"
        if self.state == "unknown":
            return (f"unknown(cap={self.cap})" if self.cap is not None
                    else f"unknown({self.limit})")
        return self.state


# the verdict is frozen, so every plain yes and no can be one shared object
_YES = Verdict("true")
_NO = Verdict("false")


class ClassExplosionError(RuntimeError):
    """A closure exceeded its class cap; callers turn it into an unknown
    ``Verdict``."""
