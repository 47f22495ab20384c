"""Exception types shared by all arithsurf modules.

Every error that a computation can raise by contract derives from
:class:`ArithsurfError`, so callers (in particular the CLI) can map domain
failures to structured reports without catching unrelated bugs.
"""

import functools


class ArithsurfError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInput(ArithsurfError):
    """An input file or JSON document is unreadable or does not fit its schema."""


def schema_checked(loader):
    """Turn the lookup and conversion errors of a ``from_json`` loader into InvalidInput."""

    @functools.wraps(loader)
    def checked(obj):
        try:
            return loader(obj)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise InvalidInput(
                f"{loader.__qualname__}: {type(exc).__name__}: {exc}"
            ) from exc

    return checked


class CompositeModulus(ArithsurfError):
    """A modulus that was required to be prime failed a primality test."""


class WindowExhausted(ArithsurfError):
    """A stabilization scan hit its hard degree cap without stabilizing.

    This signals a malformed presentation (or a caller-supplied window that
    is too small), never a transient condition.
    """


class NotLocallyFree(ArithsurfError):
    """A presented sheaf fails the bundle pattern or the Fitting-ideal test."""


class ProfileInconsistent(ArithsurfError):
    """Splitting-type post-verification failed; the input is not a rank-2 bundle."""


class ParityViolation(ArithsurfError):
    """A splitting-type jump delta came out odd or negative (an internal bug)."""


class IdentityViolation(ArithsurfError):
    """The normalized type-delta vs 2*h^0 identity failed (an internal bug)."""


class NotSurjective(ArithsurfError):
    """A fiber quotient map is not a sheaf surjection.

    Carries the degree at which the cokernel was observed to be nonzero.
    """

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


class DegreeMismatch(ArithsurfError):
    """Fiber quotient data is degree-incompatible with the source bundle."""


class DuplicatePrime(ArithsurfError):
    """The same prime was listed twice in a prescribed-jumps request."""


class UnsupportedCenter(ArithsurfError):
    """Only fiber-type centers are supported; horizontal centers are rejected."""


class NotGeneralPosition(ArithsurfError):
    """A point configuration failed a general-position check.

    The offending witness (pair/triple plus prime data) is attached.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TooManyPoints(ArithsurfError):
    """Five or more points can never be in general position over the integers."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
