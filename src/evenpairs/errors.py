"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or out-of-contract input (bad pair, bad format, wrong kind)."""


class NotEvenPairError(ValueError):
    """A pair offered for contraction is not an even pair.

    Carries the odd-path witness that disqualifies it.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonBergeError(ValueError):
    """An operation that requires a Berge input was given a non-Berge one."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TheoremContradictionError(RuntimeError):
    """An internal step that a proved statement guarantees has failed, or
    two independent oracles for the same question disagree.

    This is surfaced loudly and never swallowed: it means either a bug or a
    counterexample, and both must be looked at.
    """
