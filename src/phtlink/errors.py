"""Exception hierarchy shared across the package.

Every error that crosses a module boundary derives from PhtError so callers
can catch the whole family, while protocol code can still attribute failures
to a specific phase (outer integrity vs decryption vs inner signature, etc.).
"""

from __future__ import annotations


class PhtError(Exception):
    """Base class for all package errors."""


class MalformedField(PhtError):
    """A quasi-identifier field could not be canonicalized."""

    def __init__(self, field: str, raw: object, detail: str = ""):
        self.field = field
        self.raw = raw
        msg = f"malformed {field}: {raw!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InvalidSpec(PhtError):
    """A synthetic population spec violates its invariants."""


class EntropyUnavailable(PhtError):
    """The platform randomness source failed."""


class RunMismatch(PhtError):
    """Key or salt material is bound to a different run."""


class OuterIntegrityFailure(PhtError):
    """Outer authentication tag of a sealed package did not verify."""


class DecryptionFailure(PhtError):
    """Content key unwrap or payload decryption failed."""


class InnerSignatureFailure(PhtError):
    """Inner signature binding plaintext to run and sender did not verify."""


class MissingPseudonyms(PhtError):
    """Linkage was attempted on a dataset without pseudonym vectors."""


class DegenerateParams(PhtError):
    """Linkage parameters have m <= u on some field."""


class CandidateBudgetExceeded(PhtError):
    """Blocking leaves more candidate pairs than one linkage pass may score."""

    def __init__(self, candidates: int, limit: int):
        self.candidates = candidates
        self.limit = limit
        super().__init__(f"{candidates} candidate pairs exceed the limit of {limit}")


class BinBudgetExceeded(PhtError):
    """A bin_width asks for more bins than one binned association may build."""

    def __init__(self, width: float, limit: int):
        super().__init__(f"bin_width {width} asks for more than {limit} bins")


class SchemaCollision(PhtError):
    """Merged schema still collides after station-id prefixing."""


class UnknownVariable(PhtError):
    """Analysis references a variable absent from the merged schema."""


class TypeMismatch(PhtError):
    """Analysis applies a numeric statistic to a non-numeric variable."""


class DecodeError(PhtError, ValueError):
    """Received bytes could not be decoded: a wire frame, a sealed package,
    a dataset body, or a JSON document inside one. It is a ValueError, like
    every other rejected value, so one ``except ValueError`` fails it closed."""

    def __init__(self, offset: int, cause: str):
        self.offset = offset
        self.cause = cause
        super().__init__(f"decode error at offset {offset}: {cause}")


class StorageWiped(PhtError):
    """Attempted to read TSE storage after the run was wiped."""


class BadConfig(PhtError):
    """A station or run configuration file is invalid."""
