"""The one tokenizer and token cursor behind every text syntax.

Formulas, set and element literals, and cardinal and para-real
expressions are read by recursive-descent parsers built on ``Cursor``.
Each grammar passes only its own symbols and keywords; the lexical
rules shared by all of them live here:

* a name is a letter or ``_``, then letters, digits or ``_``;
* a natural is a run of ASCII ``0-9`` of at most
  ``sys.get_int_max_str_digits()`` digits (longer ones are a guard
  violation, since ``int`` would refuse them);
* whitespace separates tokens and is otherwise ignored;
* every parse error is a ``ParseError`` with a position and the
  descriptions of the tokens that would have been accepted there.
"""

from __future__ import annotations

import re
import sys
from functools import cache
from itertools import islice
from typing import Iterable, TypeVar

from .errors import GuardExceeded, ParseError

NATURAL = re.compile("[0-9]+")
_T = TypeVar("_T")


@cache
def _lexicon(symbols: tuple[str, ...], keywords: frozenset[str]) -> tuple[re.Pattern[str], dict[str, str]]:
    """The token pattern of a grammar, and the kinds of its fixed tokens."""
    syms = "".join("|" + re.escape(s) for s in sorted(symbols, key=len, reverse=True))
    # [^\W\d] also admits numeric characters such as "²"; tokenize makes
    # a word that does not start with a letter or "_" a "char" token.
    pattern = re.compile(rf"\s*([^\W\d]\w*|{NATURAL.pattern}{syms}|\S)")
    return pattern, {word: word for word in (*symbols, *keywords)}


def tokenize(text: str, symbols: tuple[str, ...],
             keywords: frozenset[str]) -> tuple[list[str], list[str]]:
    """The texts of the tokens of ``text`` and their kinds, both ending
    with an "end" token.  A kind is the token's own text for a symbol or
    keyword, else "name", "nat", or "char" for a character that starts
    no token (which no grammar accepts)."""
    pattern, fixed = _lexicon(symbols, keywords)
    words = pattern.findall(text)
    kinds = [fixed.get(w) or ("nat" if w[0] in "0123456789" else
                              "name" if w[0].isalpha() or w[0] == "_" else "char")
             for w in words]
    words.append("")
    kinds.append("end")
    return words, kinds


def natural(digits: str) -> int:
    """The value of a run of ASCII digits."""
    # 0 means no limit, as on Pythons older than 3.10.7, which lack the call.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise GuardExceeded(f"a natural of {len(digits)} digits; at most {limit}")
    return int(digits)


class Cursor:
    """A position in the tokens of one text, for recursive descent.

    A grammar subclasses it and sets its own ``symbols`` and ``keywords``.
    ``kind`` and ``word`` are the kind and text of the current token;
    ``advance`` and ``expect`` consume it and return its text."""

    symbols: tuple[str, ...] = ()
    keywords: frozenset[str] = frozenset()

    def __init__(self, text: str):
        self.text = text
        self.words, self.kinds = tokenize(text, self.symbols, self.keywords)
        self.i = 0
        self.kind = self.kinds[0]

    @property
    def word(self) -> str:
        return self.words[self.i]

    @property
    def pos(self) -> int:
        """The offset of the current token.  Only errors need it, so it
        is found again by matching up to the token."""
        pattern = _lexicon(self.symbols, self.keywords)[0]
        match = next(islice(pattern.finditer(self.text), self.i, None), None)
        return match.start(1) if match else len(self.text)

    def advance(self) -> str:
        i = self.i
        self.i = i + 1
        self.kind = self.kinds[i + 1]
        return self.words[i]

    def expect(self, kind: str, what: str | None = None) -> str:
        """Consume a token of ``kind``; ``what`` describes it in the error."""
        if self.kind != kind:
            raise self.fail({what or repr(kind)})
        return self.advance()

    def nat(self) -> int:
        return natural(self.expect("nat", "natural"))

    def fail(self, expected: Iterable[str], message: str | None = None) -> ParseError:
        got = self.word or "end of input"
        return ParseError(message or f"unexpected {got!r}", self.pos, frozenset(expected))

    def end(self, value: _T) -> _T:
        """``value``, once the whole text has been read."""
        if self.kind != "end":
            raise self.fail({"end of input"})
        return value
