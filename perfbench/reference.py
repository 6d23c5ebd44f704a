"""Independent references that the benchmark checks the program against.

Nothing here imports ``bzfc``.  Formulas are plain tuples with their own
renderer, so the generated text is parsed by the program but evaluated
here without any of the program's code:

    ("letter", name)          ("false",)
    (op, x)                   op in UNARY
    (op, x, y)                op in BINARY
    ("forall"|"exists", var, body)
    ("forall_in"|"exists_in", var, set name, body)   restricted binders
    ("in", term, term)        ("=", term, term)      terms are names

The evaluator follows the two-relation (Belnap-Dunn) semantics on
booleans: every connective and quantifier has a truth clause and a
falsity clause, and a value is the pair (is_true, is_false).

Three-component numbers are triples over ``Fraction`` (cardinal
components may also be ``Aleph``), multiplied by expanding over the
basis {1, b, n} with b*b = b, n*n = n and b*n = 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

UNARY = ("~", "-", "!", "?", "o")
BINARY = ("/\\", "&", "\\/", "->", "=>", "<->", "<=>")

LETTER_OF = {(True, False): "t", (True, True): "b", (False, False): "n", (False, True): "f"}
FLAGS_OF = {letter: flags for flags, letter in LETTER_OF.items()}


# ---------------------------------------------------------------------------
# Formulas


def render(f: tuple) -> str:
    """Fully parenthesised text in the program's formula syntax."""
    tag = f[0]
    if tag == "letter":
        return f[1]
    if tag == "false":
        return "false"
    if tag in UNARY:
        sep = " " if tag == "o" else ""
        return f"{tag}{sep}({render(f[1])})"
    if tag in BINARY:
        return f"({render(f[1])} {tag} {render(f[2])})"
    if tag in ("forall", "exists"):
        return f"({tag} {f[1]} . {render(f[2])})"
    if tag in ("forall_in", "exists_in"):
        return f"({tag[:-3]} {f[1]} in {f[2]} . {render(f[3])})"
    if tag in ("in", "="):
        return f"{f[1]} {tag} {f[2]}"
    raise ValueError(f"not a formula: {f!r}")


def letters(f: tuple) -> set[str]:
    if f[0] == "letter":
        return {f[1]}
    found: set[str] = set()
    for part in f[1:]:
        if isinstance(part, tuple):
            found |= letters(part)
    return found


def desugar(f: tuple) -> tuple:
    """Restricted binders written out: ``forall x in A . B`` is
    ``forall x . (x in A -> B)``, ``exists x in A . B`` is
    ``exists x . (x in A & B)``."""
    tag = f[0]
    if tag == "forall_in":
        return ("forall", f[1], ("->", ("in", f[1], f[2]), desugar(f[3])))
    if tag == "exists_in":
        return ("exists", f[1], ("&", ("in", f[1], f[2]), desugar(f[3])))
    return (tag, *(desugar(x) if isinstance(x, tuple) else x for x in f[1:]))


class RSet(NamedTuple):
    """A set by its three parts: both, just true, neither."""

    bpart: frozenset
    tpart: frozenset
    npart: frozenset

    @property
    def bang(self) -> frozenset:
        return self.bpart | self.tpart

    @property
    def query(self) -> frozenset:
        return self.tpart | self.npart

    @property
    def realm(self) -> frozenset:
        return self.bpart | self.tpart | self.npart


class RModel(NamedTuple):
    """Quantifier universe and constant bindings; elements are strings."""

    universe: tuple
    env: dict


def value(f: tuple, model: RModel | None = None, env: dict | None = None) -> tuple[bool, bool]:
    """(is_true, is_false) of ``f``; letters and variables come from
    ``env``, other names from the model."""
    env = env or {}
    tag = f[0]
    if tag == "letter":
        return env[f[1]]
    if tag == "false":
        return False, True
    if tag in UNARY:
        t, fa = value(f[1], model, env)
        if tag == "~":
            return fa, t
        if tag == "-":
            return not t, t
        if tag == "!":
            return t, not t
        if tag == "?":
            return not fa, fa
        return t != fa, t == fa  # o: classical
    if tag in BINARY:
        xt, xf = value(f[1], model, env)
        yt, yf = value(f[2], model, env)
        if tag == "/\\":
            return xt and yt, xf or yf
        if tag == "&":
            return xt and yt, (not xt) or yf
        if tag == "\\/":
            return xt or yt, xf and yf
        if tag == "->":
            return (not xt) or yt, xt and yf
        if tag == "=>":
            return ((not xt) or yt) and ((not yf) or xf), xt and yf
        if tag == "<->":
            return xt == yt, (xt and yf) or (xf and yt)
        return xt == yt and xf == yf, (xt and yf) or (xf and yt)  # <=>
    if tag in ("forall_in", "exists_in"):
        return value(desugar(f), model, env)
    if tag in ("forall", "exists"):
        if not model.universe:
            raise ValueError("empty universe")
        pairs = [value(f[2], model, {**env, f[1]: v}) for v in model.universe]
        if tag == "forall":
            return all(t for t, _ in pairs), any(fa for _, fa in pairs)
        return any(t for t, _ in pairs), all(fa for _, fa in pairs)
    left, right = _term(f[1], model, env), _term(f[2], model, env)
    if tag == "in":
        if isinstance(left, str) and isinstance(right, RSet):
            return left in right.bang, left not in right.query
        return False, True
    if isinstance(left, str) and isinstance(right, str):
        return left == right, left != right
    if isinstance(left, RSet) and isinstance(right, RSet):
        return (left.bang == right.bang and left.query == right.query,
                not (left.bang <= right.query and right.bang <= left.query))
    return False, True


def _term(name: str, model: RModel, env: dict):
    if name in env:
        return env[name]
    return model.env[name]


def verdict(f: tuple, model: RModel | None = None, env: dict | None = None) -> str:
    return LETTER_OF[value(f, model, env)]


# ---------------------------------------------------------------------------
# Three-component arithmetic


class Aleph(NamedTuple):
    index: int


def _le(x, y) -> bool:
    if isinstance(x, Aleph):
        return isinstance(y, Aleph) and x.index <= y.index
    return isinstance(y, Aleph) or x <= y


def _add(x, y):
    if isinstance(x, Aleph) or isinstance(y, Aleph):
        return y if _le(x, y) else x  # absorption: the larger survives
    return x + y


def _mul(x, y):
    if x == 0 or y == 0:
        return Fraction(0)
    if isinstance(x, Aleph) or isinstance(y, Aleph):
        return y if _le(x, y) else x
    return x * y


# Products of basis units: index 0 is 1, 1 is b, 2 is n; None is zero.
_UNIT_PRODUCT = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
                 (1, 1): 1, (2, 2): 2, (1, 2): None, (2, 1): None}


def t_add(x: tuple, y: tuple) -> tuple:
    return tuple(_add(a, b) for a, b in zip(x, y))


def t_mul(x: tuple, y: tuple) -> tuple:
    out = [Fraction(0)] * 3
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            k = _UNIT_PRODUCT[i, j]
            if k is not None:
                out[k] = _add(out[k], _mul(a, b))
    return tuple(out)


def t_neg(x: tuple) -> tuple:
    return tuple(-a for a in x)


def t_inverse(x: tuple) -> tuple | None:
    """The multiplicative inverse of a para-real, or None if there is none.

    (t, b, n) -> (t, t+b, t+n) maps the ring onto Q^3 with componentwise
    product, so the inverse is taken there and mapped back."""
    t, b, n = x
    coords = (t, t + b, t + n)
    if 0 in coords:
        return None
    it, ib, in_ = (1 / c for c in coords)
    return (it, ib - it, in_ - it)


def evaluate_expr(e: tuple) -> tuple:
    """Evaluate an expression tree: ("num", int), ("aleph", i), ("b",),
    ("n",), ("unit", int, "b"|"n") written juxtaposed as ``3b``,
    ("+"|"*"|"-"|"/", x, y), ("neg", x).  Division by a
    non-invertible value raises ZeroDivisionError."""
    tag = e[0]
    if tag == "num":
        return (Fraction(e[1]), Fraction(0), Fraction(0))
    if tag == "aleph":
        return (Aleph(e[1]), Fraction(0), Fraction(0))
    if tag == "b":
        return (Fraction(0), Fraction(1), Fraction(0))
    if tag == "n":
        return (Fraction(0), Fraction(0), Fraction(1))
    if tag == "unit":
        return t_mul(evaluate_expr(("num", e[1])), evaluate_expr((e[2],)))
    if tag == "neg":
        return t_neg(evaluate_expr(e[1]))
    x, y = evaluate_expr(e[1]), evaluate_expr(e[2])
    if tag == "+":
        return t_add(x, y)
    if tag == "*":
        return t_mul(x, y)
    if tag == "-":
        return t_add(x, t_neg(y))
    inv = t_inverse(y)
    if inv is None:
        raise ZeroDivisionError("not invertible")
    return t_mul(x, inv)


_TERM = re.compile(r"\s*([+-])?\s*(aleph\d+|\d+(?:/\d+)?)?\s*([bn])?\s*")


def parse_triple(text: str) -> tuple:
    """Read a printed cardinal or para-real such as ``3 + 2b + n``,
    ``aleph0 b`` or ``3/2 - 1/3 b`` back into a triple."""
    out = [Fraction(0)] * 3
    pos = 0
    first = True
    text = text.strip()
    if text == "0":
        return tuple(out)
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, coeff, unit = m.group(1), m.group(2), m.group(3)
        if m.end() == pos or not (coeff or unit) or (sign is None and not first):
            raise ValueError(f"cannot read {text!r} at {pos}")
        if coeff is None:
            amount = Fraction(1)
        elif coeff.startswith("aleph"):
            amount = Aleph(int(coeff[5:]))
        else:
            amount = Fraction(coeff)
        if sign == "-":
            amount = -amount
        slot = {None: 0, "b": 1, "n": 2}[unit]
        out[slot] = _add(out[slot], amount)
        pos = m.end()
        first = False
    return tuple(out)


def render_expr(e: tuple) -> str:
    """Input text for the program's arithmetic parser."""
    tag = e[0]
    if tag == "num":
        return str(e[1])
    if tag == "aleph":
        return f"aleph{e[1]}"
    if tag in ("b", "n"):
        return tag
    if tag == "unit":
        return f"{e[1]}{e[2]}"
    if tag == "neg":
        return f"-({render_expr(e[1])})"
    return f"({render_expr(e[1])} {tag} {render_expr(e[2])})"
