"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: UnresolvedName -> 3,
GuardError -> 4, every other error (ParseError, UnreadableFile,
UsageError, ...) -> 2.
"""


class BZFCError(Exception):
    """Base class for all package-specific errors."""


class Located(BZFCError):
    """An error that may name the offset in a text where it was found,
    and the token descriptions that would have been accepted there."""

    def __init__(self, message: str, position: int | None = None,
                 expected: frozenset[str] = frozenset()):
        self.message = message
        self.position = position
        self.expected = expected
        super().__init__(self.detail("" if position is None else f" at position {position}"))

    def detail(self, where: str = "") -> str:
        """The message, then ``where``, then the tokens that were expected."""
        if not self.expected:
            return self.message + where
        return f"{self.message}{where} (expected {', '.join(sorted(self.expected))})"


class ParseError(Located):
    """Raised on malformed input text, at the offset of the offending token."""


class UsageError(BZFCError):
    """A command line that fits none of the CLI's commands."""


class UnreadableFile(BZFCError):
    """A file named on the command line cannot be opened or decoded."""


class UnresolvedName(BZFCError):
    """A constant or variable in a formula has no binding."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unresolved name: {name!r}")


class GuardError(BZFCError):
    """A violated precondition: a quantifier over an empty universe, a
    para-real that is not invertible, or a codomain too short to count a
    realm.  It carries only its message; GuardExceeded is the size case."""


class NotPropositional(BZFCError):
    """Validity checking was asked about a non-propositional formula."""

    def __init__(self, what: str):
        super().__init__(f"validity checking needs a propositional formula; found {what}")


class DisjointnessViolation(BZFCError):
    """Two parts of a non-classical set share an element."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} appears in more than one part")


class DomainError(BZFCError):
    """A function was applied to a set whose realm it does not cover."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        listed = ", ".join(str(x) for x in self.missing)
        super().__init__(f"function does not cover realm elements: {listed}")


class GuardExceeded(Located, GuardError):
    """An input passed one of the size or work limits, such as the
    oracle's realm size or the work budget of a formula.  A limit met at
    a place in a text, such as the nesting guard, names its offset."""
