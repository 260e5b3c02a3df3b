"""Shared exception types."""


class CapExceededError(ValueError):
    """An enumeration cap was exceeded; pass a larger cap explicitly to override."""


class NotAMatroidError(ValueError):
    """An independence family (or a rank oracle) violates the matroid axioms."""


class MissingWitnessError(KeyError):
    """A certificate lacks the witness for the contraction set tau, its argument."""

    def __str__(self) -> str:
        return f"no witness for tau={list(self.args[0])}"


class InternalCheckError(RuntimeError):
    """An internally re-verified identity failed: a bug, not bad input."""
