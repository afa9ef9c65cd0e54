"""Recursive-descent parser for the map grammar.

EBNF sketch (whitespace insignificant, complex literals written a+bi):

    map      := call | tuple
    call     := name "(" [ arg { "," arg } ] ")"   keyword args (key "=" value)
                in any order first, then the positional values in order
    tuple    := "(" poly { "," poly } ")"    one polynomial per coordinate
    poly     := expression over z1..zk with +, -, *, ^ (nonneg int) and
                complex literals; "i" is the imaginary unit
    vector   := "[" complex { "," complex } "]"
    matrix   := "[" vector { "," vector } "]"

The calls, their keywords and value kinds come from the `fields` of the
nodes in mapkit.NODES, plus the sugar dilate(real, map); see
BUILTIN_SIGNATURES.  A constructor's ValueError or DimensionMismatch is
reported as a ParseError at the constructor's name, or at a tuple's "(".
One pattern, _TOKEN, lexes the text: a mark of ()[],=+-*^, a decimal number
(imaginary when an "i" that starts no name follows it), an ASCII name, or any
other non-space character, which is a ParseError at its position.
"""

from __future__ import annotations

import re

from .errors import DimensionMismatch, ParseError
from . import mapkit

# Resource caps, checked while parsing and expanding; beyond them, ParseError.
MAX_EXPONENT = 64  # written, or reached by expanding a coordinate
MAX_DIM = 32  # k of every parsed map
MAX_TERMS = 4096  # per expanded coordinate, cancelled terms included
MAX_PRODUCT_PAIRS = 4 * MAX_TERMS  # term pairs one product of two polynomials walks

# finditer skips what no alternative matches: whitespace (str.isspace) alone.
# A leading \s* instead would rescan trailing whitespace from each character.
_TOKEN = re.compile(r"""([()\[\],=+\-*^])
    | ((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)(i(?![0-9A-Za-z_]))?
    | ([A-Za-z_][0-9A-Za-z_]*)
    | (\S)""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __str__(self):  # as an error message names it
        return "end of input" if self.kind == "EOF" else repr(self.value)


def _tokenize(text: str):
    toks = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex  # 1 punctuation, 2 NUM, 3 IMAG, 4 NAME, 5 other
        if group == 1:
            toks.append(_Token(m[1], m[1], m.start()))
        elif group == 4:
            toks.append(_Token("NAME", m[4], m.start()))
        elif group == 5:
            raise ParseError(f"unexpected character {m[5]!r}", m.start())
        else:
            toks.append(_Token("NUM" if group == 2 else "IMAG", float(m[2]), m.start()))
    toks.append(_Token("EOF", None, len(text)))
    return toks


class _TooLarge(Exception):
    """An expansion outgrew a resource cap; parse() reports a ParseError."""


def _check_dim(k: int, pos: int):
    if k > MAX_DIM:
        raise ParseError(f"map dimension exceeds {MAX_DIM}", pos)


def _check_terms(count: int):
    if count > MAX_TERMS:
        raise _TooLarge(f"a coordinate expands to more than {MAX_TERMS} terms")


class _Poly:
    """Polynomial under construction: {sorted ((var, exp), ...): coeff}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, c):
        return cls({(): complex(c)} if c != 0 else {})

    @classmethod
    def var(cls, j):
        return cls({((j, 1),): 1.0 + 0j})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0j) + c
        _check_terms(len(out))
        return _Poly(out)

    def __neg__(self):
        return _Poly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if len(self.terms) * len(other.terms) > MAX_PRODUCT_PAIRS:
            raise _TooLarge(f"a product multiplies more than {MAX_PRODUCT_PAIRS} term pairs")
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                exps = {}
                for v, e in k1 + k2:
                    exps[v] = exps.get(v, 0) + e
                    if exps[v] > MAX_EXPONENT:
                        raise _TooLarge(f"a coordinate has a power above {MAX_EXPONENT}")
                key = tuple(sorted(exps.items()))
                out[key] = out.get(key, 0j) + c1 * c2
                _check_terms(len(out))
        return _Poly(out)

    def __pow__(self, n):
        out = _Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def max_var(self):
        return max((v for key in self.terms for v, _ in key), default=-1)

    def to_terms(self, k):  # PolyCoord drops the zero coefficients
        out = []
        for key, coeff in self.terms.items():
            exps = [0] * k
            for v, e in key:
                exps[v] = e
            out.append((tuple(exps), coeff))
        return out


def _call(fields, build):
    """(fields, constructor, keyword -> kind, positional kinds) of a call."""
    return (fields, build, {kw: kind for _, kw, kind in fields if kw},
            [kind for _, kw, kind in fields if kw is None])


_CONSTRUCTORS = {node.name: _call(node.fields, node) for node in mapkit.NODES}
_CONSTRUCTORS["dilate"] = _call((("factor", None, "real"), ("inner", None, "map")),
                                lambda factor, inner: mapkit.dilate(inner, factor))

BUILTIN_SIGNATURES = tuple(
    f"{name}({', '.join(f'{kw}=<{kind}>' if kw else f'<{kind}>' for _, kw, kind in fields)})"
    for name, (fields, *_) in _CONSTRUCTORS.items()
) + ("(<poly>, ..., <poly>)    polynomials in z1..zk",)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    # -- token helpers ----------------------------------------------------

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"got {tok}", tok.pos, expected=(kind,))
        return self.advance()

    # -- entry points ------------------------------------------------------

    def parse_map(self) -> mapkit.MapExpr:
        tok = self.peek()
        if tok.kind == "(":
            return self.parse_tuple()
        if tok.kind == "NAME":
            return self.parse_named()
        raise ParseError(f"got {tok}", tok.pos, expected=("builtin name", "("))

    def parse_named(self) -> mapkit.MapExpr:
        """name "(" keyword arguments in any order, then positional ones ")"."""
        tok = self.expect("NAME")
        name = tok.value
        if name not in _CONSTRUCTORS:
            raise ParseError(
                f"unknown map constructor {name!r}", tok.pos, expected=tuple(_CONSTRUCTORS)
            )
        fields, build, kinds, positional = _CONSTRUCTORS[name]
        named, args = {}, []
        comma = None
        self.expect("(")
        # an empty list goes to the missing check; after a comma an argument follows
        while self.peek().kind != ")" or comma:
            arg = self.peek()
            if arg.kind == "NAME" and self.toks[self.i + 1].kind == "=" and not args:
                if arg.value not in kinds:
                    raise ParseError(f"unknown parameter {arg.value!r} for {name}", arg.pos,
                                     expected=tuple(kinds))
                if arg.value in named:
                    raise ParseError(f"duplicate parameter {arg.value!r}", arg.pos)
                self.i += 2
                named[arg.value] = _PARSE[kinds[arg.value]](self)
            elif len(args) < len(positional):
                args.append(_PARSE[positional[len(args)]](self))
            elif comma:
                raise ParseError(f"got {comma}", comma.pos, expected=(")",))
            else:
                raise ParseError(f"got {arg}", arg.pos,
                                 expected=tuple(f"{kw}=" for kw in kinds if kw not in named))
            if self.peek().kind != ",":
                break
            comma = self.advance()
        end = self.expect(")")
        missing = [kw for kw in kinds if kw not in named]
        missing += [f"<{kind}>" for kind in positional[len(args):]]
        if missing:
            raise ParseError(f"{name} is missing parameter(s) {', '.join(missing)}", end.pos)
        rest = iter(args)
        try:
            m = build(*[named[kw] if kw else next(rest) for _, kw, _ in fields])
        except (ValueError, DimensionMismatch) as exc:
            raise ParseError(str(exc), tok.pos) from exc
        # every constructor costs O(its input), so the cap can follow it; an
        # inner map is checked when it is parsed, before an outer one is built
        _check_dim(m.dim, tok.pos)
        return m

    # -- scalar / literal parsing -------------------------------------------

    def parse_complex(self) -> complex:
        return self.parse_poly_expr(allow_vars=False).terms.get((), 0j)

    def parse_real(self) -> float:
        tok = self.peek()
        value = self.parse_complex()
        if value.imag != 0.0:
            raise ParseError("expected a real number", tok.pos)
        return float(value.real)

    def parse_int(self) -> int:
        tok = self.peek()
        value = self.parse_real()
        if not value.is_integer():
            raise ParseError("expected an integer", tok.pos)
        return int(value)

    def parse_list(self, item, close):
        """item { "," item } close: the items and the close token."""
        out = [item()]
        while self.peek().kind == ",":
            self.advance()
            out.append(item())
        return out, self.expect(close)

    def parse_vector(self):
        self.expect("[")
        return self.parse_list(self.parse_complex, "]")[0]

    def parse_matrix(self):
        """The rows; a ragged one is reported at its "[", before numpy sees it."""
        self.expect("[")
        rows = self.parse_list(lambda: (self.peek().pos, self.parse_vector()), "]")[0]
        width = len(rows[0][1])
        for i, (pos, row) in enumerate(rows, 1):
            if len(row) != width:
                raise ParseError(f"matrix row {i} has {len(row)} entries, expected {width}", pos)
        return [row for _, row in rows]

    # -- polynomial expressions ----------------------------------------------

    def parse_tuple(self) -> mapkit.MapExpr:
        start = self.expect("(")
        polys, tok = self.parse_list(lambda: self.parse_poly_expr(allow_vars=True), ")")
        k = len(polys)
        _check_dim(k, start.pos)  # before to_terms, whose work grows as k^2
        max_var = max(p.max_var() for p in polys)
        if max_var >= k:
            raise ParseError(
                f"variable z{max_var + 1} exceeds the map dimension k={k}", tok.pos
            )
        try:
            return mapkit.PolyCoord([p.to_terms(k) for p in polys])
        except ValueError as exc:  # a non-finite coefficient
            raise ParseError(str(exc), start.pos) from exc

    def parse_poly_expr(self, allow_vars: bool) -> _Poly:
        out = self.parse_poly_term(allow_vars)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_poly_term(allow_vars)
            out = out + rhs if op == "+" else out - rhs
        return out

    def parse_poly_term(self, allow_vars: bool) -> _Poly:
        out = self.parse_poly_factor(allow_vars)
        while self.peek().kind == "*":
            self.advance()
            out = out * self.parse_poly_factor(allow_vars)
        return out

    def parse_poly_factor(self, allow_vars: bool) -> _Poly:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return -self.parse_poly_factor(allow_vars)
        if tok.kind == "+":
            self.advance()
            return self.parse_poly_factor(allow_vars)
        base = self.parse_poly_primary(allow_vars)
        while self.peek().kind == "^":
            self.advance()
            etok = self.expect("NUM")
            if not etok.value.is_integer() or etok.value < 0:
                raise ParseError("exponent must be a nonnegative integer", etok.pos)
            if etok.value > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", etok.pos)
            base = base ** int(etok.value)
        return base

    def parse_poly_primary(self, allow_vars: bool) -> _Poly:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return _Poly.const(tok.value)
        if tok.kind == "IMAG":
            self.advance()
            return _Poly.const(tok.value * 1j)
        if tok.kind == "NAME":
            if tok.value == "i":
                self.advance()
                return _Poly.const(1j)
            if tok.value.startswith("z") and tok.value[1:].isdigit():
                index = int(tok.value[1:])
                if index < 1:
                    raise ParseError(f"bad variable {tok.value!r}", tok.pos)
                if not allow_vars:
                    raise ParseError("variables are not allowed here", tok.pos)
                self.advance()
                return _Poly.var(index - 1)
            raise ParseError(
                f"unexpected name {tok.value!r}", tok.pos, expected=("z<j>", "i", "number")
            )
        if tok.kind == "(":
            self.advance()
            inner = self.parse_poly_expr(allow_vars)
            self.expect(")")
            return inner
        raise ParseError(f"got {tok}", tok.pos, expected=("number", "z<j>", "i", "("))


# parser per field kind; mapkit._FORMAT holds the matching printers
_PARSE = {"int": _Parser.parse_int, "real": _Parser.parse_real,
          "complex": _Parser.parse_complex, "vector": _Parser.parse_vector,
          "matrix": _Parser.parse_matrix, "map": _Parser.parse_map}


def parse(text: str) -> mapkit.MapExpr:
    parser = _Parser(text)
    try:
        m = parser.parse_map()
    except _TooLarge as exc:
        raise ParseError(str(exc), parser.peek().pos) from None
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok}", tok.pos, expected=("EOF",))
    return m
