"""Three-valued answers for semi-decidable questions.

Closure-based procedures can certify a positive or a negative answer, or run
into their budget.  ``Verdict`` carries the three-valued outcome of a yes/no
question; ``Unknown`` is the budget-exhausted marker for value-returning
operations (orders, character values).  Inside a closure, running past the
class cap raises ``ClassExplosionError``; callers that return a value turn
it into ``Unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """Certified ``true``/``false`` or ``unknown`` with the cap that was hit."""

    state: bool | None
    cap: int | None = None

    @staticmethod
    def yes() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def no() -> "Verdict":
        return Verdict(False)

    @staticmethod
    def unknown(cap: int) -> "Verdict":
        return Verdict(None, cap)

    @property
    def is_true(self) -> bool:
        return self.state is True

    @property
    def is_false(self) -> bool:
        return self.state is False

    @property
    def is_unknown(self) -> bool:
        return self.state is None

    def __str__(self) -> str:
        if self.state is None:
            return f"unknown(cap={self.cap})"
        return "true" if self.state else "false"


@dataclass(frozen=True)
class Unknown:
    """Budget-exhausted marker for operations that otherwise return a value."""

    cap: int

    def __str__(self) -> str:
        return f"unknown(cap={self.cap})"


class ClassExplosionError(RuntimeError):
    """Closure exceeded the class cap; carries the partial class count."""

    def __init__(self, message: str, classes_seen: int):
        super().__init__(message)
        self.classes_seen = classes_seen
