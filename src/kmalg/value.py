"""Value classes: plain slotted classes compared and hashed by their slots.

The library's small records (a Cartan matrix, an ideal block, a check
result) are classes with __slots__ and a hand-written __init__, not
dataclasses. Importing dataclasses loads inspect, ast, dis and tokenize,
and decorating a class builds its methods with exec. A CLI process runs
one command, and with dataclasses that cost was half of its set-up and
more than a `killing-gram` command's own work.
"""
from __future__ import annotations


class Value:
    """Equal to an object of the same class with equal slots, in __slots__
    order, and hashed by them. A mutable subclass sets __hash__ = None; a
    class compared by identity does not derive from Value."""

    __slots__ = ()

    def _slot_values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._slot_values() == other._slot_values()

    def __hash__(self):
        return hash(self._slot_values())
