"""The base of the records that check their fields when built.

A subclass names its fields in __slots__, and its own __init__, whose
signature and defaults are the record's, checks them and stores them with
_init. The record is then read-only, equal to and hashed like a record of its
class with the same field values, and printed as Name(field=value, ...), as a
frozen dataclass is, at none of the import and class-building cost of one.
The records that only hold values are NamedTuples instead.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _init(self, *values) -> None:
        """Store values as the fields, in __slots__ order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as no field can be set
        return self.__class__, self._values()
