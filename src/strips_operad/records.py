"""The record base of the package: immutable ``__slots__`` classes that
print, compare, hash, pickle and copy as frozen dataclasses, with no
``dataclasses`` import until a write is refused.

Every value and record type in the package derives from :class:`_Frozen`,
and its private builders and constructors fill their slots through
:func:`_set_slots`.
"""
from __future__ import annotations

import operator
from typing import Sequence


class _Frozen:
    """Immutable instances: each slot is written once, through the slot's
    own setter, by a private builder or the constructor of its class.
    Every value has one stored form, so equality and hashing are those of
    ``_key``, the tuple of its ``_fields`` or, for a class with none, of
    its slots, and a value of another class is never equal.

    The base of every record type in the package.  A record lists its
    constructor's arguments in ``_fields``, and gets from here the repr a
    frozen dataclass prints over them, pickling and copying by its slots,
    and ``_replace``, a new record with some arguments changed."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*(cls._fields or cls.__slots__))

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return (_restored, (type(self), tuple([getattr(self, name)
                                               for name in self.__slots__])))

    def _replace(self, **changes):
        """A new record of this class, built by its constructor from this
        one's ``_fields``, with ``changes`` in place of some of them."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})


def _frozen_error(message: str) -> Exception:
    """``dataclasses.FrozenInstanceError(message)``, the error a frozen
    dataclass raises; its module is imported only when one is raised."""
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(message)


def _restored(cls: type, values: tuple) -> _Frozen:
    """The record of class ``cls`` whose slots hold ``values``, in the order
    of ``cls.__slots__``: what ``_Frozen.__reduce__`` pickles."""
    obj = object.__new__(cls)
    _set_slots(obj, cls.__slots__, values)
    return obj


def _set_slots(obj: _Frozen, names: Sequence[str], values: Sequence) -> None:
    """Write ``values`` into the slots ``names`` of ``obj``, through the
    slots' own setters, which the frozen ``__setattr__`` does not reach."""
    for name, value in zip(names, values):
        object.__setattr__(obj, name, value)
