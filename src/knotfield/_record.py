"""Frozen record classes, built without the ``dataclasses`` machinery.

``@record`` reads a class's annotations once and installs closure-built
methods with the meaning of ``@dataclass(frozen=True)``: ``__init__`` takes
the fields positionally or by keyword, fills defaults given as class values,
then calls ``__post_init__`` if the class has one; ``__eq__`` and
``__hash__`` use the tuple of fields; ``__repr__`` reads
``Name(a=..., b=...)``; assigning or deleting an attribute raises
``AttributeError``.

``dataclasses`` compiles its generated methods with ``exec`` on every
import, bytecode cache or not, and pulls in ``inspect``; for two dozen
classes that is a large share of the command line's start-up.  Here it is
imported only when a caller reads ``__dataclass_fields__``, as
``dataclasses.replace``, ``fields`` and ``asdict`` do, so those still work
on records.
"""

from operator import attrgetter

_set = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


def _bind(name, fields, defaults, args, kwargs):
    """The field values of a call that is not exactly one per field, positionally."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    values = list(args)
    for field in fields[len(args):]:
        if field in kwargs:
            values.append(kwargs.pop(field))
        elif field in defaults:
            values.append(defaults[field])
        else:
            raise TypeError(f"{name}() missing argument {field!r}")
    for field in kwargs:
        kind = "multiple values for" if field in fields else "an unexpected keyword"
        raise TypeError(f"{name}() got {kind} argument {field!r}")
    return values


class _DataclassFields:
    """``__dataclass_fields__``, from a dataclass twin made on first use."""

    def __get__(self, instance, cls):
        import dataclasses

        spec = {name: cls.__dict__[name] for name in cls.__annotations__ if name in cls.__dict__}
        twin = type(cls.__name__, (), {"__annotations__": cls.__annotations__, **spec})
        cls.__dataclass_fields__ = dataclasses.dataclass(frozen=True)(twin).__dataclass_fields__
        return cls.__dataclass_fields__


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    fields = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    arity = len(fields)
    post_init = getattr(cls, "__post_init__", None)
    getter = attrgetter(*fields)
    key = getter if arity > 1 else lambda self: (getter(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(cls.__name__, fields, defaults, args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, key(self)))
        return f"{type(self).__qualname__}({shown})"

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__dataclass_fields__ = _DataclassFields()
    return cls
