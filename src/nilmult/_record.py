"""Frozen value records for the package's reports.

A record's fields are its ``__slots__``, in constructor order; a slot
``"__dict__"`` is room for ``cached_property`` values, not a field.  Fields
are set once by the constructor and never again; two records are equal when
they are of the same class and their compared fields are equal, and the
hash is that of those fields as a tuple.  ``_hidden`` names the fields left
out of the repr, the comparison and the hash.  Every record can be weakly
referenced, and pickles and copies through its constructor.

These records stand in for frozen dataclasses, whose import (``dataclasses``
pulls in ``inspect``) would cost a command-line call more than its algebra.
"""

from __future__ import annotations


class Record:
    __slots__ = ("__weakref__",)
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{type(self).__name__}: missing fields {missing}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _compared(self) -> tuple:
        return tuple(getattr(self, f) for f in self._shown)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # rebuilt through the constructor: slot state would go through __setattr__
        return type(self), tuple(getattr(self, f) for f in self._fields)
