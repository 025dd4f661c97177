"""Frozen record classes: the package's value types, built without ``dataclasses``.

A subclass of ``Record`` declares its fields as annotations, in order, with
class-attribute defaults.  It gets a keyword-or-positional constructor
(keyword-only with ``kw_only=True``) that runs ``__post_init__`` if the
class has one, ``==`` and ``hash`` over its compared fields (all fields but
those named in ``uncompared``), the repr ``Name(field=value, ...)``, and
fields that cannot be assigned or deleted.  ``replace`` builds a changed
copy through the constructor, so a class that checks itself checks the copy.

``dataclasses`` would do the same, but importing it loads ``inspect`` (and
with it ``dis``, ``tokenize`` and ``ast``), and each decorated class compiles
its generated methods when it is defined.  Every knotcert command starts a
new process, so it would pay for both each time.
"""

from __future__ import annotations

import operator


class FrozenRecordError(AttributeError):
    """Raised on an attempt to assign or delete a field of a record."""


class Record:
    """Base of the frozen record classes; see the module docstring."""

    # set on each subclass, unannotated so that they are not fields
    _fields = ()  # every field, in declaration order
    _compared = ()  # the fields that == and hash read, in order
    _defaults = {}  # field -> class-attribute default
    _kw_only = False
    _key = staticmethod(lambda record: ())  # record -> its compared fields as a tuple

    def __init_subclass__(cls, *, kw_only: bool = False, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        # on Python 3.10 and later a class's __annotations__ are its own only,
        # so a record class is not subclassed
        cls._fields = tuple(cls.__annotations__)
        if set(uncompared) - set(cls._fields):
            raise TypeError(f"{cls.__name__}: uncompared names no field: {uncompared!r}")
        cls._compared = tuple(f for f in cls._fields if f not in uncompared)
        if cls._compared:
            # attrgetter of one name returns the value itself, not a 1-tuple
            get = operator.attrgetter(*cls._compared)
            cls._key = staticmethod(get if len(cls._compared) > 1 else lambda record: (get(record),))
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        cls._kw_only = kw_only

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        limit = 0 if cls._kw_only else len(names)
        if len(args) > limit:
            given = len(args)
            raise TypeError(f"{cls.__name__}() takes {limit} positional arguments but {given} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        if len(values) < len(names):
            values = {**cls._defaults, **values}
            missing = [name for name in names if name not in values]
            if missing:
                raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
        # past the record's own __setattr__, which refuses every assignment; the
        # values land in the instance __dict__ (records have no __slots__)
        for name in names:
            object.__setattr__(self, name, values[name])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


def replace(obj: Record, **changes) -> Record:
    """A copy of obj with the given fields changed, built (and checked) by its constructor."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})
