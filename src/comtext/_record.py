"""The base of comtext's record types.

A record class names each field once, as an annotated class attribute with
an optional default, and :class:`Record` turns the fields into
``__slots__``.  Every record built without a field shares its default
object, so defaults are immutable values.  A record is built positionally or by keyword, then checked
by its class's :meth:`~Record._check`.  It compares and prints field by
field, and hashes by its field values.  Assignment to a field, and
deletion, raise AttributeError; :meth:`~Record.replace` builds a changed
copy through the constructor, so the check runs again.

``dataclasses`` would generate the same methods, but importing it loads
``inspect``, ``ast`` and ``dis`` and compiles each class's methods with
``exec``, a cost every short-lived CLI process pays again.
"""

from __future__ import annotations


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["_fields"] = namespace["__slots__"] = fields
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_RecordType):
    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, "
                            f"{len(args)} given")
        for field, value in zip(cls._fields, args):
            object.__setattr__(self, field, value)
        for field in cls._fields[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in cls._defaults:
                value = cls._defaults[field]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {field!r}")
            object.__setattr__(self, field, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments "
                            f"{sorted(kwargs)}")
        self._check()

    def _check(self) -> None:
        """Raise if the fields are inconsistent; the constructor calls it."""

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def replace(self, **changes):
        """A copy with ``changes`` made to its fields, checked again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
