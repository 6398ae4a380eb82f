"""Shared exception types, and the check of a size against its cap.

Exit-code mapping used by the CLI: usage errors exit 2 (argparse default),
CapExceededError exits 3, InternalCheckError exits 4.
"""


class QuizlabError(Exception):
    """Base class for all package-specific errors."""


class ArityMismatchError(QuizlabError):
    """A point, parameter vector or germ has the wrong length."""


class CapExceededError(QuizlabError):
    """A configured desk-scale cap (term count, dimension, degree) was hit."""


def check_cap(what: str, name: str, value: int, cap: int) -> None:
    """Raise CapExceededError when a size that is not a family's exceeds its cap."""
    if value > cap:
        raise CapExceededError(f"{what} cap: {name}={value} exceeds {cap}; no override")


class ExpansionCapExceededError(CapExceededError):
    """Circuit expansion exceeded the term-count cap.

    ``node`` is the index of the offending circuit node, when known.
    """

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class NoSuchRootError(QuizlabError):
    """No element of the requested multiplicative order exists."""


class NotHolomorphicAtOriginError(QuizlabError):
    """A Laurent series has a pole at the origin where a limit was needed."""


class PrecisionUnderflowError(QuizlabError):
    """Truncated-series arithmetic lost every significant term."""


class TermOutsideSupportError(QuizlabError):
    """A polynomial term does not lie in the declared support.

    ``monomial`` names the offending exponent tuple.
    """

    def __init__(self, message: str, monomial: tuple[int, ...]):
        super().__init__(message)
        self.monomial = monomial


class UnsupportedTaskError(QuizlabError):
    """The requested family/task combination is not defined."""


class InconsistentSystemError(QuizlabError):
    """An exact linear system has no solution."""


class UnderdeterminedSystemError(QuizlabError):
    """An exact linear system has more than one solution."""


class NonIdentifyingPointsError(UnderdeterminedSystemError):
    """The question points do not pin down the declared support."""


class NoStableClusterError(QuizlabError):
    """Numeric-mode accumulation-point search found no dominant cluster."""


class NoFiberSamplerError(QuizlabError):
    """No known sampler for the fiber of the requested base point."""


class InternalCheckError(QuizlabError):
    """An internal cross-check failed; indicates a bug, not bad input."""
