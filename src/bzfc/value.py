"""Small immutable values.

``Value`` derives ``==`` (same class, equal fields), a consistent hash,
copying and pickling by constructor call, and a dataclass-style repr
from the fields in ``__slots__``, bases' first.  Subclasses set each
field once, with ``object.__setattr__``; later assignment raises.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = getattr(cls.__base__, "_fields", ()) + cls.__dict__.get("__slots__", ())
        # The value of a single field, a tuple of several, or the class.
        cls._key = attrgetter(*cls._fields or ("__class__",))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def _immutable(self, name: str, *value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__}.{name} cannot be changed")

    __setattr__ = __delattr__ = _immutable
