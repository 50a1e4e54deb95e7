"""The shared base of the package's value classes.

A value class lists its fields in ``__slots__`` and writes its own
``__init__``. :class:`Record` gives it a repr of the form
``Name(field=value, ...)``, equality only with an instance of the same class
whose fields are equal, and a hash over the fields. A slot whose name
starts with ``_`` holds derived state, not a field, and is left out of all
three.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{self.__class__.__qualname__}({fields})"
