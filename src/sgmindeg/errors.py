"""Exception types shared across the library."""

from __future__ import annotations


class SemigroupError(Exception):
    """Base class for all library errors."""


class NonAssociative(SemigroupError):
    """Raised by table validation; carries a witness triple (s, t, u)."""

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        s, t, u = witness
        super().__init__(f"multiplication table is not associative: ({s}*{t})*{u} != {s}*({t}*{u})")


class IndexOutOfRange(SemigroupError):
    """A table entry or map value is outside the valid element/point range."""


class EmptyGeneratorSet(SemigroupError):
    """No generators were supplied."""


class SizeLimitExceeded(SemigroupError):
    """A closure grew past the configured element cap."""


class NotRegular(SemigroupError):
    """The requested J-class contains no idempotent."""


class NotSubgroup(SemigroupError):
    """The given subset is not a subgroup."""


class GroupTooLarge(SemigroupError):
    """Group order exceeds the subgroup-enumeration cap."""


class NotIrreducible(SemigroupError):
    """The J-class is not RM-irreducible."""


class NotSemisimpleAction(SemigroupError):
    """The action has a null or non-invariant strong orbit."""


class NotRhodesSemisimple(SemigroupError):
    """The semigroup admits no faithful semisimple action; carries the GGM partition.

    ``classes`` holds the partition of element indices induced by the
    intersection of the per-J-class two-sided congruences, as a diagnostic.
    """

    def __init__(self, classes: list[list[int]]):
        self.classes = classes
        nontrivial = sum(1 for c in classes if len(c) > 1)
        super().__init__(
            f"semigroup is not Rhodes semisimple: {len(classes)} congruence classes, "
            f"{nontrivial} of them non-singletons"
        )


class BadParameters(SemigroupError):
    """A builder family or an oracle query received invalid parameters."""


class InvariantViolated(SemigroupError):
    """A computed result failed its own certificate check; this is a bug."""
