"""Immutable value classes: what the package used of frozen dataclasses,
without importing ``dataclasses`` (and ``inspect`` and ``ast`` with it) or
compiling generated methods, which took about a third of its start-up.

A subclass lists its fields in ``_fields``, in constructor order, and its
``__init__`` sets them: by direct ``object.__setattr__`` calls where
records or hot paths build it, else by ``_set_fields``, which is slower.
Instances refuse assignment and deletion, compare and hash by those fields
within one class only, through ``Value.__eq__`` and ``Value.__hash__``,
which no subclass overrides; they print as ``Name(field=value, ...)``,
and copy, deep-copy and pickle through their ``__dict__``.  An attribute
not listed is derived: it takes no part in equality, hash or repr.  A
derived value is set by ``__init__``, or computed once on first read by a
``functools.cached_property``, which stores it in ``__dict__``.  The
on-first-read ones are SeifertMatrix.alexander, and KnotRecord.alexander
(a field, read by equality, hash and repr) and delta2 when taken from the
Seifert matrix.
"""

from operator import attrgetter

__all__ = ["Value", "replace"]


class Value:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def _set_fields(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __replace__(self, /, **changes):
        return replace(self, **changes)


def replace(obj: Value, /, **changes):
    """``obj`` with some fields changed, rebuilt by ``__init__``, which validates them."""
    kwargs = {name: getattr(obj, name) for name in obj._fields}
    kwargs.update(changes)
    return obj.__class__(**kwargs)
