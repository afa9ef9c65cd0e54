"""Holomorphic self-maps of C^k: expression trees, evaluation, exact Jacobians.

A map is a small immutable expression tree.  Built-in families:

    Identity(k)                z -> z
    Linear(A)                  z -> A z
    Translation(t)             z -> z + t
    Henon(b)                   (z, w) -> (z^2 + b w, z)
    Harris(n)                  (z, w) -> (z + n w^2, w)
    DurenRudin(delta)          (z, w) -> (z, w + (z/delta)^2)
    ExpCoord(c, k)             coordinatewise z_i -> exp(c z_i) - 1
    PolyCoord(polys)           tuple of sparse multivariate polynomials

and combinators:

    Scalar(s, m)               z -> s * m(z)
    Compose(outer, inner)      z -> outer(inner(z))
    Affine(a, B, m)            z -> m(a + B z)

Each named node class states its grammar `name` and its constructor
`fields`, one (attribute, keyword or None, kind) triple per argument in
constructor order.  That table is the one source for parsing (_grammar
builds its calls and BUILTIN_SIGNATURES from NODES), printing (to_text;
PolyCoord prints as a tuple), equality and hashing.  To add a node, set
`name` and `fields` on a MapExpr subclass, set `dim` as a class constant or
in __init__, write `apply` with +, * (constants on the right), - of a
number and _exp only, the operations _Dual has, and add the class to
NODES; a new kind also needs a printer in _FORMAT and a parser in
_grammar._PARSE.

Jacobians are computed by forward-mode differentiation with holomorphic
dual numbers: a pair (v, d) carries the value together with a full
complex gradient, multiplication follows (v, d)(v', d') =
(vv', v d' + v' d) and exp lifts to (e^v, e^v d).  All built-ins are
holomorphic, so one dual pass yields the exact Jacobian up to roundoff.
Evaluation is batch-aware: coordinates may be scalars or (N,) arrays.  A
batched dual stores its gradient, one tangent per input coordinate, as a
(k, 1) column while it is constant over the batch (jacobian_batch seeds
cached unit columns, and nodes linear in their input keep that shape) and
as a (k, N) array once a product of duals or exp makes it vary; either
way a value (N,) multiplies it by plain broadcasting.

Constants multiply coordinates from the right, as in a dual's value, and
powers are repeated products: numpy's complex multiply is not bitwise
commutative, and this keeps evaluate_batch equal to jacobian_batch's values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import algebra
from .errors import DimensionMismatch, PreconditionFailed


# --------------------------------------------------------------------------
# holomorphic dual numbers


class _Dual:
    """Value plus complex gradient for forward-mode differentiation.

    val is a scalar or an (N,) array; der is (k, 1) while constant over the
    batch and (k, N) once it varies, der[j] being the derivative along
    input coordinate j, so val broadcasts against der.
    It has only the operators nodes use: + of a dual or a number on either
    side, * by a dual or by a constant on the right, and - of a number.  A
    constant on the left of * or -, or a negation, raises TypeError.
    """

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.val + other.val, self.der + other.der)
        return _Dual(self.val + other, self.der)

    __radd__ = __add__

    def __sub__(self, other):
        return _Dual(self.val - other, self.der)

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(
                self.val * other.val,
                self.val * other.der + other.val * self.der,
            )
        return _Dual(self.val * other, other * self.der)


def _exp(x):
    if isinstance(x, _Dual):
        ev = np.exp(x.val)
        return _Dual(ev, ev * x.der)
    return np.exp(x)


# --------------------------------------------------------------------------
# expression nodes


def _key(value):
    """Hashable equality key of a field value; an array becomes its shape and
    entries, so -0.0 and 0.0 match, as under np.array_equal."""
    if isinstance(value, np.ndarray):
        return value.shape, tuple(value.ravel().tolist())
    return value


class MapExpr:
    """Base class of holomorphic map expressions C^k -> C^k (immutable);
    equality and hashing compare the attributes named in `fields`."""

    name: str | None = None
    fields: tuple = ()
    dim: int  # k, a class constant or set in __init__

    def apply(self, coords):
        """Evaluate on a tuple of scalar-like coordinates (numbers, arrays or
        dual numbers); returns a tuple of the same kind."""
        raise NotImplementedError

    def _keys(self):
        return tuple(_key(getattr(self, attr)) for attr, _, _ in self.fields)

    def __eq__(self, other):
        return type(other) is type(self) and other._keys() == self._keys()

    def __hash__(self):
        return hash((type(self).__name__, self._keys()))

    def __repr__(self):
        return to_text(self)


def _constant(convert, value):
    """A node constant through algebra's as_scalar, as_vector or as_matrix.
    Their plain ValueError (an entry that is not finite, which they also
    reject in computed Jacobians, or a value that does not convert) is a
    bad argument here."""
    try:
        return convert(value)
    except ValueError as exc:
        raise PreconditionFailed(f"bad map constant: {exc}") from exc


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Identity(MapExpr):
    name = "identity"
    fields = (("dim", "k", "int"),)

    def __init__(self, k: int):
        k = int(k)
        if k < 1:
            raise DimensionMismatch("identity needs dimension k >= 1")
        self.dim = k

    def apply(self, coords):
        return tuple(coords)


class Linear(MapExpr):
    name = "linear"
    fields = (("matrix", "a", "matrix"),)

    def __init__(self, matrix):
        self.matrix = _frozen(_constant(algebra.as_matrix, matrix))
        self.dim = self.matrix.shape[0]

    def apply(self, coords):
        return _affine_apply(None, self.matrix, coords)


class Translation(MapExpr):
    name = "translation"
    fields = (("offset", "t", "vector"),)

    def __init__(self, offset):
        self.offset = _frozen(_constant(algebra.as_vector, offset))
        self.dim = self.offset.size

    def apply(self, coords):
        return tuple(c + t for c, t in zip(coords, self.offset))


class Henon(MapExpr):
    """(z, w) -> (z^2 + b w, z), the model polynomial automorphism of C^2."""

    name = "henon"
    fields = (("b", "b", "complex"),)
    dim = 2

    def __init__(self, b):
        self.b = _constant(algebra.as_scalar, b)

    def apply(self, coords):
        z, w = coords
        return (z * z + w * self.b, z)


class Harris(MapExpr):
    """(z, w) -> (z + n w^2, w); its polydisc image pinches balls of radius
    above sqrt(2/n)."""

    name = "harris"
    fields = (("n", "n", "int"),)
    dim = 2

    def __init__(self, n):
        n = int(n)
        if not 1 <= n <= sys.float_info.max:
            raise PreconditionFailed("harris parameter n must be an integer in [1, 1.8e308]")
        self.n = n

    def apply(self, coords):
        z, w = coords
        return (z + (w * w) * self.n, w)


class DurenRudin(MapExpr):
    """(z, w) -> (z, w + (z/delta)^2); volume-preserving shear whose polydisc
    image contains no closed ball of radius delta."""

    name = "durenrudin"
    fields = (("delta", "delta", "real"),)
    dim = 2

    def __init__(self, delta):
        delta = float(delta)
        if not (0 < delta < np.inf and 1.0 / delta < np.inf):
            raise PreconditionFailed("durenrudin delta and its inverse must be finite and > 0")
        self.delta = delta
        self._inv_delta = 1.0 / delta

    def apply(self, coords):
        z, w = coords
        u = z * self._inv_delta
        return (z, w + u * u)


class ExpCoord(MapExpr):
    """Coordinatewise z_i -> exp(c z_i) - 1; fixes 0 with Jacobian c*I."""

    name = "expcoord"
    fields = (("c", "c", "complex"), ("dim", "k", "int"))

    def __init__(self, c, k: int):
        k = int(k)
        if k < 1:
            raise DimensionMismatch("expcoord needs dimension k >= 1")
        self.c = _constant(algebra.as_scalar, c)
        self.dim = k

    def apply(self, coords):
        return tuple(_exp(c * self.c) - 1.0 for c in coords)


class Scalar(MapExpr):
    """z -> s * inner(z) with s != 0."""

    name = "scalar"
    fields = (("s", "s", "complex"), ("inner", None, "map"))

    def __init__(self, s, inner: MapExpr):
        s = _constant(algebra.as_scalar, s)
        if s == 0:
            raise PreconditionFailed("scalar factor must be nonzero")
        self.s = s
        self.inner = inner
        self.dim = inner.dim

    def apply(self, coords):
        return tuple(y * self.s for y in self.inner.apply(coords))


class Compose(MapExpr):
    """z -> outer(inner(z)); both factors must share the same dimension."""

    name = "compose"
    fields = (("outer", None, "map"), ("inner", None, "map"))

    def __init__(self, outer: MapExpr, inner: MapExpr):
        if outer.dim != inner.dim:
            raise DimensionMismatch(
                f"compose: outer has k={outer.dim}, inner has k={inner.dim}"
            )
        self.outer = outer
        self.inner = inner
        self.dim = outer.dim

    def apply(self, coords):
        return self.outer.apply(self.inner.apply(coords))


class Affine(MapExpr):
    """z -> inner(a + B z): precomposition with an affine change of variable."""

    name = "affine"
    fields = (("shift", None, "vector"), ("matrix", None, "matrix"), ("inner", None, "map"))

    def __init__(self, shift, matrix, inner: MapExpr):
        self.shift = _frozen(_constant(algebra.as_vector, shift))
        self.matrix = _frozen(_constant(algebra.as_matrix, matrix))
        if self.shift.size != self.matrix.shape[0] or self.shift.size != inner.dim:
            raise DimensionMismatch(
                f"affine: shift k={self.shift.size}, matrix {self.matrix.shape}, "
                f"inner k={inner.dim}"
            )
        self.inner = inner
        self.dim = inner.dim

    def apply(self, coords):
        return self.inner.apply(_affine_apply(self.shift, self.matrix, coords))


class PolyCoord(MapExpr):
    """Tuple of sparse multivariate polynomials in z1..zk, one per coordinate.

    Each polynomial is a sequence of (exponents, coefficient) terms where
    exponents is a length-k tuple of nonnegative ints.  Terms are merged,
    zero coefficients dropped, and the term list sorted, so structurally
    equal polynomials compare equal.  It has no name: the grammar writes it
    as a bare tuple.
    """

    fields = (("polys", None, "polys"),)

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise DimensionMismatch("polycoord needs at least one coordinate")
        k = len(polys)
        normalized = []
        for poly in polys:
            merged: dict = {}
            for exps, coeff in poly:
                exps = tuple(int(e) for e in exps)
                if len(exps) != k:
                    raise DimensionMismatch(
                        f"term exponent tuple {exps} does not have length k={k}"
                    )
                if any(e < 0 for e in exps):
                    raise PreconditionFailed("exponents must be nonnegative")
                merged[exps] = merged.get(exps, 0j) + complex(coeff)
            normalized.append(tuple(sorted(
                (e, _constant(algebra.as_scalar, c)) for e, c in merged.items() if c != 0)))
        self.polys = tuple(normalized)
        self.dim = k

    def apply(self, coords):
        out = []
        for terms in self.polys:
            acc = coords[0] * 0.0  # anchors shape/dual structure for empty polys
            for exps, coeff in terms:
                mono = None
                for j, e in enumerate(exps):
                    if e == 0:
                        continue
                    factor = coords[j]
                    for _ in range(e - 1):
                        factor = factor * coords[j]  # not **: numpy orders those products differently
                    mono = factor if mono is None else mono * factor
                term = coeff if mono is None else (mono if coeff == 1 else mono * coeff)
                acc = acc + term
            out.append(acc)
        return tuple(out)


# the named nodes, in `holomaplab list-builtins` order
NODES = (Identity, Linear, Translation, Henon, Harris, DurenRudin, ExpCoord,
         Scalar, Compose, Affine)


def _affine_apply(shift, matrix, coords):
    k = len(coords)
    out = []
    for i in range(k):
        # a Python complex hands `acc + dual` to _Dual.__radd__ at once; a
        # numpy scalar first tries numpy's slow path
        acc = complex(shift[i]) if shift is not None else None
        for j in range(k):
            term = coords[j] * matrix[i, j]
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


# --------------------------------------------------------------------------
# jets and domains


@dataclass
class Jet:
    """Map value together with the exact complex Jacobian at the same point."""

    value: np.ndarray
    jacobian: np.ndarray


@dataclass(frozen=True)
class DomainSpec:
    """Ball (Euclidean norm) or polydisc (max norm) of a given radius in C^k.

    Membership is strict: z belongs to the domain iff norm(z) < radius.
    The radius must be finite and > 0, else PreconditionFailed.
    """

    shape: str
    radius: float
    dim: int

    def __post_init__(self):
        if self.shape not in ("ball", "polydisc"):
            raise PreconditionFailed(f"unknown domain shape {self.shape!r}")
        if not (0 < self.radius < np.inf):
            raise PreconditionFailed("domain radius must be finite and > 0")
        if not self.dim >= 1:
            raise PreconditionFailed("domain dimension must be >= 1")

    @staticmethod
    def ball(dim: int, radius: float = 1.0) -> "DomainSpec":
        return DomainSpec("ball", float(radius), int(dim))

    @staticmethod
    def polydisc(dim: int, radius: float = 1.0) -> "DomainSpec":
        return DomainSpec("polydisc", float(radius), int(dim))

    def norm(self, z):
        """The domain's norm of each point, reduced over the last axis: (..., k)
        -> (...).  A row's value does not depend on the batch it comes in,
        so a mask built on it gives each row the answer it gives that row
        alone; the 1-D np.linalg.norm of a vector can round differently."""
        z = np.asarray(z, dtype=np.complex128)
        return algebra.row_norms(z) if self.shape == "ball" else algebra.row_max_abs(z)

    def margin(self, z):
        """Distance to the boundary in the domain's norm (negative outside)."""
        return self.radius - self.norm(z)


# --------------------------------------------------------------------------
# evaluation and differentiation


def _points(m: MapExpr, pts) -> np.ndarray:
    """pts as a complex (N, k) array with k = m.dim, else DimensionMismatch."""
    Z = np.asarray(pts, dtype=np.complex128)
    if Z.ndim != 2:
        raise DimensionMismatch(f"expected an (N, k) point array, got shape {Z.shape}")
    if Z.shape[1] != m.dim:
        raise DimensionMismatch(f"point has k={Z.shape[1]}, map has k={m.dim}")
    return Z


def evaluate(m: MapExpr, z) -> np.ndarray:
    """Evaluate a map at one point of C^k.

    Routed through the batch path so single-point and batched evaluation
    share one arithmetic path bit for bit.
    """
    v = algebra.as_vector(z)
    return evaluate_batch(m, v[None, :])[0]


def evaluate_batch(m: MapExpr, pts) -> np.ndarray:
    """Evaluate a map at N points at once; pts has shape (N, k)."""
    Z = _points(m, pts)
    out = m.apply(tuple(Z[:, j] for j in range(Z.shape[1])))
    values = np.empty(Z.shape, dtype=np.complex128)
    for i, c in enumerate(out):
        values[:, i] = c  # assignment broadcasts a constant coordinate
    return values


def jacobian(m: MapExpr, z) -> Jet:
    """Value and exact Jacobian at one point, via one dual-number pass.

    Routed through the batch path (one row) for bitwise consistency with
    jacobian_batch.
    """
    v = algebra.as_vector(z)
    values, jacs = jacobian_batch(m, v[None, :])
    return Jet(values[0], jacs[0])


@cache
def _unit_columns(k: int) -> tuple:
    """The k seed gradients e_j as read-only (k, 1) columns, each its own
    C-contiguous array: a strided column of an identity is slower to read."""
    cols = []
    for j in range(k):
        col = np.zeros((k, 1), dtype=np.complex128)
        col[j] = 1.0
        cols.append(_frozen(col))
    return tuple(cols)


def jacobian_batch(m: MapExpr, pts):
    """Values (N, k) and Jacobians (N, k, k) at N points in one dual pass.

    The Jacobians are written in (k, k, N) order, output coordinate first,
    so each output's gradient is one contiguous copy; the (N, k, k) result
    is the view jacs.transpose(2, 0, 1) of that array and is not
    C-contiguous."""
    Z = _points(m, pts)
    n, k = Z.shape
    out = m.apply(tuple(_Dual(Z[:, j], col) for j, col in enumerate(_unit_columns(k))))
    values = np.empty((n, k), dtype=np.complex128)
    jacs = np.empty((k, k, n), dtype=np.complex128)
    for i, o in enumerate(out):
        if isinstance(o, _Dual):
            values[:, i] = o.val
            jacs[i] = o.der  # a (k, 1) gradient broadcasts over the batch
        else:
            values[:, i] = o
            jacs[i] = 0.0
    return values, jacs.transpose(2, 0, 1)


# --------------------------------------------------------------------------
# structural combinators


def dilate(m: MapExpr, R: float) -> MapExpr:
    """z -> (1/R) m(R z) as scalar(1/R, compose(m, scalar(R, identity(k)))): no
    R * I matrix, so an overflowed value may be inf where its zero terms gave NaN.
    Keeps the Jacobian at the origin.  R, 1/R must be finite and > 0, else PreconditionFailed."""
    R = float(R)
    if not (0 < R < np.inf and 1.0 / R < np.inf):
        raise PreconditionFailed("dilation factor and its inverse must be finite and > 0")
    return Scalar(1.0 / R, Compose(m, Scalar(R, Identity(m.dim))))


# --------------------------------------------------------------------------
# text form (the parser lives in _grammar; printing stays here so nodes can
# repr themselves)


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_complex(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return _fmt_real(c.real)
    if c.real == 0.0:
        return _fmt_real(c.imag) + "i"
    sign = "+" if c.imag > 0 else "-"
    return f"{_fmt_real(c.real)}{sign}{_fmt_real(abs(c.imag))}i"


def _fmt_vector(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt_complex(x) for x in v) + "]"


def _fmt_matrix(a: np.ndarray) -> str:
    return "[" + ", ".join(_fmt_vector(row) for row in a) + "]"


def _fmt_poly(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for exps, coeff in terms:
        factors = [
            f"z{j + 1}" if e == 1 else f"z{j + 1}^{e}"
            for j, e in enumerate(exps)
            if e > 0
        ]
        if not factors:
            parts.append(_fmt_complex(coeff))
            continue
        mono = "*".join(factors)
        if coeff == 1:
            parts.append(mono)
        else:
            ctext = _fmt_complex(coeff)
            if ("+" in ctext[1:]) or ("-" in ctext[1:]):
                ctext = f"({ctext})"
            parts.append(f"{ctext}*{mono}")
    return " + ".join(parts)


def to_text(m: MapExpr) -> str:
    """Canonical textual form; parse(to_text(m)) reproduces the tree."""
    if isinstance(m, PolyCoord):
        return "(" + ", ".join(_fmt_poly(p) for p in m.polys) + ")"
    if m.name is None:
        raise TypeError(f"unknown map node {type(m).__name__}")
    args = [(f"{keyword}=" if keyword else "") + _FORMAT[kind](getattr(m, attr))
            for attr, keyword, kind in m.fields]
    return f"{m.name}({', '.join(args)})"


# printer per field kind; _grammar._PARSE holds the matching parsers
_FORMAT = {"int": str, "real": _fmt_real, "complex": _fmt_complex,
           "vector": _fmt_vector, "matrix": _fmt_matrix, "map": to_text}


def parse(text: str) -> MapExpr:
    """Parse the map grammar (see the _grammar module for the EBNF)."""
    from . import _grammar

    return _grammar.parse(text)
