"""Small immutable values.

From the fields in ``__slots__``, bases' first, one ``exec`` per tuple of
field names compiles ``==`` (same class, equal fields), a consistent hash and
``_assign(self, <fields>)``, which sets each field once; later assignment
raises.  A class that adds fields gets each of the three it does not write;
one that writes ``__init__`` checks or converts its arguments, then calls
``_assign``.  Copies, pickles and the repr go through the fields too.
"""

from functools import cache


@cache
def _methods(fields: tuple[str, ...]) -> dict:
    """``__init__`` (``_assign``, so named for arity errors), ``__eq__`` and
    ``__hash__``, compiled as ``namedtuple`` builds ``__new__``.  One field is
    compared and hashed as itself, several as a tuple, none as the class."""
    def key(obj: str) -> str:
        names = [f"{obj}.{name}" for name in fields] or [f"{obj}.__class__"]
        return names[0] if len(names) == 1 else f"({', '.join(names)})"

    sets = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):{sets or ' pass'}\n"
         f"def __eq__(self, other): return {key('self')} == {key('other')} "
         "if other.__class__ is self.__class__ else NotImplemented\n"
         f"def __hash__(self): return hash({key('self')})", namespace)
    return namespace


class Value:
    __slots__ = ()
    __eq__ = _methods(())["__eq__"]
    __hash__ = _methods(())["__hash__"]

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__slots__", ())
        cls._fields = getattr(cls.__base__, "_fields", ()) + own
        if own:
            methods = _methods(cls._fields)
            cls._assign = methods["__init__"]
            for name in ("__init__", "__eq__", "__hash__"):
                if name not in cls.__dict__:
                    setattr(cls, name, methods[name])

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def _immutable(self, name: str, *value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__}.{name} cannot be changed")

    __setattr__ = __delattr__ = _immutable
