"""A base for the value classes that need their own ``__init__`` or a
cached attribute, so cannot be ``typing.NamedTuple``s: equality, hash and
repr over the fields named in ``_fields``, as a frozen dataclass has them,
without the start-up cost of importing ``dataclasses``."""

from __future__ import annotations


class Record:
    """Instances are equal when their classes are the same and their fields
    are equal, hash as the tuple of their fields, and refuse assignment;
    a subclass stores its fields with ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        # Assignment is refused, so copies and unpickled instances are
        # rebuilt through __init__ from the fields, in order.
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
