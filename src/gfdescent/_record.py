"""Immutable value records: slotted classes with value semantics.

A record lists its fields in __slots__ and writes its own __init__, which
checks its arguments and stores them with set_field.  Record supplies the
rest: equality and hashing by the tuple of fields, a repr of the form
Name(field=value, ...), pickling and copying through the constructor, and
no assignment after construction.  Unlike the standard library's record
decorator, this needs no import of inspect and no code generation per
class, which together cost about a third of a command-line run.
"""

from operator import attrgetter

# Stores a field from __init__, past the __setattr__ that refuses it later.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        cls.__match_args__ = names
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple.
        cls._values = staticmethod(get if len(names) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
