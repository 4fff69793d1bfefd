"""Immutable value records: slotted classes with value semantics.

A record lists its fields in __slots__.  Record supplies the constructor,
which takes each field once, positionally or by keyword, in __slots__ order,
and stores it with set_field; equality and hashing by the tuple of fields; a
repr of the form Name(field=value, ...); pickling and copying through the
constructor; and no assignment after construction.  That constructor is the
one public way in: no field has a default, no record has a classmethod
constructor, and none overrides the repr.  A record writes its own __init__
only to check its arguments (GFE, ProjPointQ, Signature, SRing,
TwistedCurve), and then stores the fields itself; set_field is called
nowhere else, so no record is built without its checks.  Unlike the standard
library's record decorator, this needs no import of inspect and no code
generation per class, which together cost a fifth to a third of a command-line run.
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

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(n) for n in names[len(args):] if n in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(
                f"{type(self).__qualname__} takes each of the fields {', '.join(names)} "
                f"once; got {len(args)} of them and the extra keywords {sorted(kwargs)}"
            )
        for name, value in zip(names, args):
            set_field(self, name, value)

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
