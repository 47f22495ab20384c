"""Exception types shared by all arithsurf modules, and the decorator that
builds their value classes.

Every error that a computation can raise by contract derives from
:class:`ArithsurfError`, so callers (in particular the CLI) can map domain
failures to structured reports without catching unrelated bugs.  Errors
deriving from :class:`InternalInconsistency` are checks that a stated
theorem guarantees on validated input; when one fails, the fault lies in
arithsurf, not in the input, and the CLI exits 3 instead of 2.

Every layer imports this module, so :func:`frozen`, the decorator of all
immutable value classes, lives here: a command then loads no module for it
beyond the standard ones the interpreter starts with.  It does what
``dataclasses.dataclass(frozen=True)`` did for these classes, without
generating code and without ``dataclasses``, whose import pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``.
"""

import functools
import operator


class FrozenInstanceError(AttributeError):
    """A field of a :func:`frozen` value was assigned or deleted."""


def frozen(cls=None, *, order=False):
    """Make ``cls`` an immutable value class over its annotated fields.

    Fields are the class's own annotations, in order; a class attribute of
    the same name is the field's default.  The class gets, unless its body
    defines them:

    * ``__init__`` taking the fields positionally or by keyword, setting
      them with ``object.__setattr__`` and then calling ``__post_init__``
      if the class has one;
    * ``__eq__``, true only between instances of the same class with equal
      field tuples, and ``__hash__``, the hash of the field tuple, so hash
      values are those of a frozen dataclass with the same fields;
    * ``__repr__`` of the form ``Name(a=1, b=2)``;
    * ``__setattr__`` and ``__delattr__`` raising :class:`FrozenInstanceError`;
    * with ``order=True``, the four orderings of the field tuples.

    ``__match_args__`` holds the field names.  No source is generated:
    every method is a closure over the field names and one
    ``operator.attrgetter``.
    """
    if cls is None:
        return functools.partial(frozen, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    size = len(names)
    fields = operator.attrgetter(*names)
    post_init = cls.__dict__.get("__post_init__")
    set_field = object.__setattr__

    def bind(args, kwargs):
        # the field values of a call that is not exactly one positional per field
        if len(args) > size:
            raise TypeError(f"{cls.__qualname__}() takes {size} arguments but {len(args)} were given")
        values = list(args)
        for name in names[: len(args)]:
            if name in kwargs:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        for name, value in zip(names, args if len(args) == size and not kwargs else bind(args, kwargs)):
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    if size == 1:  # attrgetter of one name returns the bare value

        def __hash__(self):
            return hash((fields(self),))

    else:

        def __hash__(self):
            return hash(fields(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    methods = [__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__]
    if order:
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):

            def ordering(self, other, compare=compare):
                if other.__class__ is self.__class__:
                    return compare(fields(self), fields(other))
                return NotImplemented

            ordering.__name__ = f"__{compare.__name__}__"
            methods.append(ordering)
    for method in methods:
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


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

    This signals a malformed presentation, never a transient condition.
    """


class NotLocallyFree(ArithsurfError):
    """A presented sheaf fails the bundle pattern or the Fitting-ideal test."""


class InternalInconsistency(ArithsurfError):
    """A check that a stated theorem guarantees on validated input failed.

    The fault lies in arithsurf, not in the input.  ``stage`` names the
    check, so a report says where the computation went wrong.
    """

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage


class ProfileInconsistent(InternalInconsistency):
    """Two computations of a verified bundle's splitting data disagree."""


class ParityViolation(InternalInconsistency):
    """A splitting-type jump delta came out odd or not positive."""


class IdentityViolation(InternalInconsistency):
    """The normalized identity type delta = 2 * fiber h^0 failed at a jump."""


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
