"""Shared exception types. `InputError` and its subclasses are the one kind
of exception a file, a flag or an argument can provoke; the CLI reports it
with exit 3. Any other exception, `InternalCheckError` included, is a bug."""


class InputError(ValueError):
    """The input (a file, a flag or an argument) is malformed or out of range."""


class CapExceededError(InputError):
    """An enumeration cap was exceeded; pass a larger cap explicitly to override."""


class NotAMatroidError(InputError):
    """An independence family (or a rank oracle) violates the matroid axioms."""


class MissingWitnessError(InputError):
    """A certificate lacks the witness for the contraction set tau, its argument."""

    def __str__(self) -> str:
        return f"no witness for tau={list(self.args[0])}"


class InternalCheckError(RuntimeError):
    """An internally re-verified identity failed: a bug, not bad input."""
