"""Textual surface syntax for objects, terms, and values.

The grammar is s-expression style, one token class, no precedence:

    term  ::= succ | true | false | not | eqnat | cdot | edot | hashc
            | <stdlib name>
            | (id A) | (bang A) | (zero A) | (projl A B) | (projr A B)
            | (pair f g) | (comp g f) | (cyl C g) | (iter g)
            | (incl A chi) | (restrict f A chi) | (dminus c p)
    obj   ::= 1 | N | (x A B) | (abstr A chi)
    value ::= <natural> | () | (v,w)

Stdlib names (pred, add, mul, ...) resolve to their definitions at parse
time; printing always emits the expansion, so a printed term can be re-read
without any name table and its code is stable.  Line comments start with
`;`.  Machine-internal constants have no surface form: printing one raises
RefusesConstVal unless the caller asks for the brace sigil used in traces,
which is deliberately outside the grammar and will not re-parse.
"""

from __future__ import annotations

import re
import sys
from typing import List, Optional, Tuple

from .term import (
    Abstr, Bang, CDot, Comp, ConstVal, Cyl, DMinus, EDot, EqNat, FalseC,
    HashC, Id, Incl, Iter, NAT, Nat, NatV, NotC, Obj, Pair, PairV, Prod,
    ProjL, ProjR, Restrict, STDLIB, Succ, Term, TrueC, UNIT, UNITV, Unit,
    UnitV, Value, ZeroC, obj_check, typecheck,
)


class ParseError(Exception):
    """Malformed input.  Carries the character offset and what was expected."""

    def __init__(self, position: int, expectation: str):
        self.position = position
        self.expectation = expectation
        super().__init__(f"at offset {position}: expected {expectation}")


class NumeralTooLong(Exception):
    """A natural with more decimal digits than the host converts, which is
    4300 by default (sys.get_int_max_str_digits)."""


class RefusesConstVal(Exception):
    """The term contains a machine-internal constant with no surface form."""


# ---------------------------------------------------------------------------
# tokenizer

# A comment runs from `;` to the end of its line; whitespace is exactly
# " \t\r\n", which the pattern skips by matching nothing else.
_TOKEN = re.compile(r";[^\n]*|[(),]|[^ \t\r\n(),;]+")

Tok = Tuple[str, int]  # (text, character offset)


def _tokenize(src: str) -> List[Tok]:
    return [(text, m.start()) for m in _TOKEN.finditer(src)
            if (text := m.group())[0] != ";"]


class _Cursor:
    """Token stream with one-token lookahead and end-of-input position."""

    def __init__(self, toks: List[Tok], end: int):
        self.toks = toks
        self.i = 0
        self.end = end

    def peek(self) -> Optional[Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expectation: str) -> Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.end, expectation)
        self.i += 1
        return tok

    def match(self, text: str) -> None:
        got, pos = self.take(f"'{text}'")
        if got != text:
            raise ParseError(pos, f"'{text}'")

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok[1], "end of input")


# ---------------------------------------------------------------------------
# parsing

_ATOMS = {
    "succ": Succ,
    "true": TrueC,
    "false": FalseC,
    "not": NotC,
    "eqnat": EqNat,
    "cdot": CDot,
    "edot": EDot,
    "hashc": HashC,
}


def _parse_obj(cur: _Cursor) -> Obj:
    text, pos = cur.take("an object")
    if text == "1":
        return UNIT
    if text == "N":
        return NAT
    if text == "(":
        head, head_pos = cur.take("'x' or 'abstr'")
        if head == "x":
            left = _parse_obj(cur)
            right = _parse_obj(cur)
            cur.match(")")
            return Prod(left, right)
        if head == "abstr":
            carrier = _parse_obj(cur)
            chi = _parse_term(cur)
            cur.match(")")
            return Abstr(carrier, chi)
        raise ParseError(head_pos, "'x' or 'abstr'")
    raise ParseError(pos, "an object")


def _parse_term(cur: _Cursor) -> Term:
    text, pos = cur.take("a term")
    if text in _ATOMS:
        return _ATOMS[text]()
    if text in STDLIB:
        return STDLIB[text]
    if text != "(":
        raise ParseError(pos, "a term")
    kind, kind_pos = cur.take("a term form")
    if kind == "id":
        t: Term = Id(_parse_obj(cur))
    elif kind == "bang":
        t = Bang(_parse_obj(cur))
    elif kind == "zero":
        t = ZeroC(_parse_obj(cur))
    elif kind == "projl":
        t = ProjL(_parse_obj(cur), _parse_obj(cur))
    elif kind == "projr":
        t = ProjR(_parse_obj(cur), _parse_obj(cur))
    elif kind == "pair":
        t = Pair(_parse_term(cur), _parse_term(cur))
    elif kind == "comp":
        t = Comp(_parse_term(cur), _parse_term(cur))
    elif kind == "cyl":
        t = Cyl(_parse_obj(cur), _parse_term(cur))
    elif kind == "iter":
        t = Iter(_parse_term(cur))
    elif kind == "incl":
        carrier = _parse_obj(cur)
        t = Incl(Abstr(carrier, _parse_term(cur)))
    elif kind == "restrict":
        f = _parse_term(cur)
        carrier = _parse_obj(cur)
        t = Restrict(f, Abstr(carrier, _parse_term(cur)))
    elif kind == "dminus":
        t = DMinus(_parse_term(cur), _parse_term(cur))
    else:
        raise ParseError(kind_pos, "a term form")
    cur.match(")")
    return t


def _parse_value(cur: _Cursor) -> Value:
    text, pos = cur.take("a value")
    if text.isascii() and text.isdigit():
        try:
            return NatV(int(text))
        except ValueError:
            raise NumeralTooLong(
                f"at offset {pos}: numeral has {len(text)} digits, "
                f"past the limit of {sys.get_int_max_str_digits()}") from None
    if text == "(":
        nxt = cur.peek()
        if nxt is not None and nxt[0] == ")":
            cur.take(")")
            return UNITV
        left = _parse_value(cur)
        cur.match(",")
        right = _parse_value(cur)
        cur.match(")")
        return PairV(left, right)
    raise ParseError(pos, "a value")


def _cursor(src: str) -> _Cursor:
    return _Cursor(_tokenize(src), len(src))


def parse_term(src: str) -> Term:
    """Parse exactly one term and typecheck it."""
    cur = _cursor(src)
    t = _parse_term(cur)
    cur.done()
    typecheck(t)
    return t


def parse_obj(src: str) -> Obj:
    """Parse exactly one object and validate any abstraction predicates."""
    cur = _cursor(src)
    obj = _parse_obj(cur)
    cur.done()
    obj_check(obj)
    return obj


def parse_value(src: str) -> Value:
    cur = _cursor(src)
    v = _parse_value(cur)
    cur.done()
    return v


def parse_lines(src: str) -> List[Tuple[int, Term]]:
    """Parse a many-term file, one term per non-blank non-comment line.

    Returns (1-based line number, term) pairs.  Offsets inside a ParseError
    refer to the single line being parsed.
    """
    out = []
    for lineno, line in enumerate(src.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        out.append((lineno, parse_term(line)))
    return out


# ---------------------------------------------------------------------------
# printing

def print_obj(obj: Obj) -> str:
    if isinstance(obj, Unit):
        return "1"
    if isinstance(obj, Nat):
        return "N"
    if isinstance(obj, Prod):
        return f"(x {print_obj(obj.left)} {print_obj(obj.right)})"
    return f"(abstr {print_obj(obj.carrier)} {print_term(obj.chi)})"


def print_nat(n: int) -> str:
    """n in decimal, or NumeralTooLong past the host's digit limit."""
    try:
        return str(n)
    except ValueError:
        raise NumeralTooLong(
            f"a {n.bit_length()}-bit number has more than "
            f"{sys.get_int_max_str_digits()} decimal digits") from None


def print_value(v: Value) -> str:
    if isinstance(v, NatV):
        return print_nat(v.n)
    if isinstance(v, UnitV):
        return "()"
    return f"({print_value(v.left)},{print_value(v.right)})"


_ATOM_NAMES = {cls: name for name, cls in _ATOMS.items()}


def print_term(t: Term, const_sigil: bool = False) -> str:
    """Render a term in the surface grammar; parse_term inverts it.

    Stdlib names are not reconstructed: a term prints as its full tree.
    With const_sigil=True machine-internal constants render as a brace
    sigil (used by traces only); the sigil does not re-parse.
    """
    name = _ATOM_NAMES.get(type(t))
    if name is not None:
        return name
    if isinstance(t, Id):
        return f"(id {print_obj(t.obj)})"
    if isinstance(t, Bang):
        return f"(bang {print_obj(t.obj)})"
    if isinstance(t, ZeroC):
        return f"(zero {print_obj(t.obj)})"
    if isinstance(t, ProjL):
        return f"(projl {print_obj(t.left)} {print_obj(t.right)})"
    if isinstance(t, ProjR):
        return f"(projr {print_obj(t.left)} {print_obj(t.right)})"
    if isinstance(t, Pair):
        return f"(pair {print_term(t.f, const_sigil)} {print_term(t.g, const_sigil)})"
    if isinstance(t, Comp):
        return f"(comp {print_term(t.g, const_sigil)} {print_term(t.f, const_sigil)})"
    if isinstance(t, Cyl):
        return f"(cyl {print_obj(t.c)} {print_term(t.g, const_sigil)})"
    if isinstance(t, Iter):
        return f"(iter {print_term(t.g, const_sigil)})"
    if isinstance(t, Incl):
        ab = t.ab
        return f"(incl {print_obj(ab.carrier)} {print_term(ab.chi, const_sigil)})"
    if isinstance(t, Restrict):
        ab = t.ab
        return (f"(restrict {print_term(t.f, const_sigil)} "
                f"{print_obj(ab.carrier)} {print_term(ab.chi, const_sigil)})")
    if isinstance(t, DMinus):
        return f"(dminus {print_term(t.c, const_sigil)} {print_term(t.p, const_sigil)})"
    if isinstance(t, ConstVal):
        if const_sigil:
            return f"{{const {print_obj(t.obj)} {print_value(t.value)}}}"
        raise RefusesConstVal(
            "machine-internal constant has no surface form")
    raise RefusesConstVal(f"unprintable term {t!r}")
