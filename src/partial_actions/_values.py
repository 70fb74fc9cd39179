"""The bases of the package's value classes.

Each value class writes out its ``__init__`` and names its compared fields
in ``_fields``.  The bases add equality between instances of the same
class over those fields, the repr ``Class(field=value, ...)`` and, for the
frozen classes, a hash over the same tuple and no assignment: a frozen
``__init__`` sets its attributes with ``object.__setattr__``.  Importing
this module generates no code.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Equality over ``_key()``, the tuple of the fields that ``_fields``
    names, and a repr over them; unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            get = attrgetter(*cls._fields)
            if len(cls._fields) == 1:  # attrgetter of one name returns the bare value
                cls._key = lambda self: (get(self),)
            else:
                cls._key = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    """A :class:`Value` that hashes its key and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
