"""Small immutable values.

From the fields in ``__slots__``, bases' first, ``Value`` derives ``==``
(same class, equal fields), a consistent hash, copying and pickling by
constructor call, a dataclass-style repr, and ``_assign(self, <fields>)``,
which sets each field once; later assignment raises.  ``_assign`` is the
constructor of each class that adds fields and writes no ``__init__``; one
that writes its own checks or converts its arguments, then calls ``_assign``.
"""

from functools import cache
from operator import attrgetter


@cache
def _assigner(fields: tuple[str, ...]):
    """``_assign`` for these fields, compiled once from their names, as
    ``namedtuple`` builds ``__new__``; named ``__init__`` for arity errors."""
    lines = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):{lines}", namespace)
    return namespace["__init__"]


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__slots__", ())
        cls._fields = getattr(cls.__base__, "_fields", ()) + own
        # The value of a single field, a tuple of several, or the class.
        cls._key = attrgetter(*cls._fields or ("__class__",))
        if own:
            cls._assign = _assigner(cls._fields)
            if "__init__" not in cls.__dict__:
                cls.__init__ = cls._assign

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
