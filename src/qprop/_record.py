"""Frozen value types from a class's annotations, without the dataclass machinery.

``record`` gives a class what ``dataclass(frozen=True)`` gives the types of
this package: fields in annotation order with their class-level defaults,
an ``__init__`` that takes them by position or keyword and then calls
``__post_init__``, fields that cannot be assigned or deleted, the same
``__repr__`` and ``__match_args__``, and ``__eq__`` and ``__hash__`` over the
field tuple (with ``eq=False``, identity). It is built from closures: it
imports nothing and compiles no code per class.
"""

_MISSING = object()


class FrozenFieldError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


def _assign(self, name, value):
    raise FrozenFieldError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenFieldError(f"cannot delete field {name!r}")


def _bind(cls, names: tuple, defaults: tuple, args: tuple, kwargs: dict) -> list:
    """The field values of a call that does not pass every field by position."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    values = [*args, *(kwargs.pop(name, _MISSING) for name in names[len(args):])]
    if kwargs:
        name = next(iter(kwargs))
        problem = ("multiple values for argument" if name in names
                   else "an unexpected keyword argument")
        raise TypeError(f"{cls.__qualname__}() got {problem} {name!r}")
    first_default = len(names) - len(defaults)
    for i in range(len(args), len(names)):
        if values[i] is _MISSING:
            if i < first_default:
                raise TypeError(f"{cls.__qualname__}() missing required argument {names[i]!r}")
            values[i] = defaults[i - first_default]
    return values


def unchecked(cls, *values):
    """A record of ``cls`` of its fields' values in order, without ``__post_init__``."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", dict(zip(cls.__match_args__, values)))
    return obj


def record(cls=None, *, eq: bool = True):
    """Class decorator: ``cls`` as a frozen record of its annotated fields."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(names)
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name in cls.__dict__ for name in names[:n - len(defaults)]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with it")
    post_init, setattr_ = getattr(cls, "__post_init__", None), object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, names, defaults, args, kwargs)
        # The fields become the instance's __dict__ in one call; a setattr per
        # field would make order_effect_summary about 10% slower.
        setattr_(self, "__dict__", dict(zip(names, args)))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return astuple(self) == astuple(other)

    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__setattr__, cls.__delattr__ = _assign, _delete
    if eq:
        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(astuple(self))
    if "__match_args__" not in cls.__dict__:
        cls.__match_args__ = names
    return cls
