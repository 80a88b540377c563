"""Exact sparse multivariate polynomials over the rationals.

The variable universe is fixed once and for all: ``x`` (the main recursion
variable), ``t`` (an auxiliary generating-function variable), and the two
indexed families ``c0 .. c31`` and ``l1 .. l32``.  Variables are totally
ordered

    x < t < c0 < c1 < ... < c31 < l1 < l2 < ... < l32

and monomials are compared graded-lexicographically against that order
(total degree first, then the earliest variable with the larger exponent
wins).  That single order fixes term printing, JSON layout and leading-term
selection, so equal polynomials always render identically.

Coefficients are ``fractions.Fraction`` or ``int`` throughout; nothing in
this module ever rounds.  A polynomial is a map from monomials to nonzero
coefficients.  All values are immutable after construction and safe to
share between threads.

Packed monomials
----------------
A monomial is one Python ``int``.  Every variable owns a fixed-width bit
field holding its exponent, and the top bit of each field is a guard bit
that a valid monomial keeps clear.  From the most significant end::

    | total degree | x:16 | t:16 | c0:8 | ... | c31:8 | l1:8 | ... | l32:8 |
                   ^ bit 544                                         bit 0 ^

The total-degree field is unbounded.  The caps are therefore:

- ``x`` and ``t`` take exponents up to 32767 (basis polynomials and series
  in ``x`` run to high degree with numeric coefficients);
- each ``c_i`` and ``l_i`` takes exponents up to 127, and the families stop
  at ``c31`` and ``l32``.  The moment ``mu_n`` only reaches ``c_{n/2}`` and
  ``l_{n/2}``, and symbolic work stops being computable long before
  ``n = 64``.  Wider layouts would lengthen every monomial int, and so the
  memory of every term.

A variable past the caps, or an exponent above its field's cap, raises
``MonomialOverflowError``; nothing ever wraps.

Why int order is the graded-lex order: the degree field is the most
significant, so a larger total degree is a larger int.  At equal degree the
fields decide in variable order, ``x`` first, because a valid monomial's
fields never carry into one another.  The operations follow:

- product: ``a + b``.  Each field sum is at most twice the field's cap, so
  it stays inside its field and sets the guard bit exactly when the cap is
  exceeded.  A product of total degree at most 127 cannot exceed any cap,
  so only higher-degree products scan their result for guard bits.
- divisibility: with ``d = a - b``, ``b`` divides ``a`` exactly when
  ``d >= 0`` and ``d`` has no guard bit set.  A field whose exponent in
  ``b`` exceeds the one in ``a`` borrows from the field above and leaves its
  own guard bit set.
- total degree: ``m >> 544``; leading monomial: ``max``; canonical order:
  ``sorted(..., reverse=True)``.

``Indeterminate`` objects appear only at the boundary: building from named
powers, looking up a coefficient, JSON, rendering and substitution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator, Mapping, Union

BigRational = Fraction

Rat = Union[int, Fraction]

_KIND_RANK = {"x": 0, "t": 1, "c": 2, "l": 3}


def _as_coeff(value: object) -> Rat:
    """Normalize a coefficient: exact, and a plain int whenever integral.

    Integer coefficients dominate in practice and plain int arithmetic is
    far cheaper than Fraction's; mixing the two is safe because Python
    defines == and hash consistently across them.
    """
    if isinstance(value, int):
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial quotient does not exist."""


class DegreeError(ValueError):
    """Raised when a polynomial exceeds the degree bound of an operation."""


class MonomialOverflowError(OverflowError):
    """A variable index or an exponent lies outside the packed monomial layout."""


class Indeterminate:
    """A variable of kind ``x``, ``t``, ``c`` or ``l`` plus an index.

    ``x`` and ``t`` carry no index; ``c`` indices start at 0 and ``l``
    indices at 1.  Instances are immutable and may name indices past the
    packed layout; only turning one into a monomial checks the caps.
    """

    __slots__ = ("kind", "index", "_key", "_hash")

    def __init__(self, kind: str, index: int = 0):
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown indeterminate kind {kind!r}")
        if kind in ("x", "t") and index != 0:
            raise IndexError(f"{kind!r} carries no index")
        if kind == "c" and index < 0:
            raise IndexError("c index must be >= 0")
        if kind == "l" and index < 1:
            raise IndexError("l index must be >= 1")
        self.kind = kind
        self.index = index
        self._key = (_KIND_RANK[kind], index)
        self._hash = hash(self._key)

    @property
    def sort_key(self) -> tuple[int, int]:
        return self._key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Indeterminate):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.kind in ("x", "t"):
            return self.kind
        return f"{self.kind}{self.index}"

    def __repr__(self) -> str:
        return f"Indeterminate({self.kind!r}, {self.index})"

    def to_latex(self) -> str:
        if self.kind in ("x", "t"):
            return self.kind
        if self.kind == "c":
            return f"c_{{{self.index}}}"
        return f"\\lambda_{{{self.index}}}"

    @classmethod
    def parse(cls, text: str) -> "Indeterminate":
        if text == "x":
            return X
        if text == "t":
            return T
        if len(text) >= 2 and text[0] in ("c", "l") and text[1:].isdigit():
            return cls(text[0], int(text[1:]))
        raise ValueError(f"cannot parse indeterminate {text!r}")


X = Indeterminate("x")
T = Indeterminate("t")


@lru_cache(maxsize=None)
def c_var(i: int) -> Indeterminate:
    return Indeterminate("c", i)


@lru_cache(maxsize=None)
def lam_var(i: int) -> Indeterminate:
    return Indeterminate("l", i)


# -- the packed layout ---------------------------------------------------------

INDEXED_SLOTS = 32  # c0..c31 and l1..l32
_WIDE_BITS = 16  # x and t
_NARROW_BITS = 8  # every c_i and l_i

# Fields in variable order: index 0 (x) is the most significant.
_FIELD_VARS: tuple[Indeterminate, ...] = (
    (X, T)
    + tuple(c_var(i) for i in range(INDEXED_SLOTS))
    + tuple(lam_var(i) for i in range(1, INDEXED_SLOTS + 1))
)
_NARROW_FIELDS = 2 * INDEXED_SLOTS
_NARROW_SPAN = _NARROW_BITS * _NARROW_FIELDS  # the c and l fields: bits 0..511
_DEG_SHIFT = _NARROW_SPAN + 2 * _WIDE_BITS
_FIELD_SHIFT = (_DEG_SHIFT - _WIDE_BITS, _NARROW_SPAN) + tuple(
    _NARROW_SPAN - _NARROW_BITS * (k + 1) for k in range(_NARROW_FIELDS)
)
_FIELD_MAX = (2 ** (_WIDE_BITS - 1) - 1,) * 2 + (2 ** (_NARROW_BITS - 1) - 1,) * _NARROW_FIELDS
_FIELD_MASK = tuple(cap << sh for cap, sh in zip(_FIELD_MAX, _FIELD_SHIFT))
_FIELD_OF = {v: f for f, v in enumerate(_FIELD_VARS)}
_FIELD_GUARD = tuple((cap + 1) << sh for cap, sh in zip(_FIELD_MAX, _FIELD_SHIFT))
_GUARDS = sum(_FIELD_GUARD)
_SAFE_DEGREE = 2 ** (_NARROW_BITS - 1) - 1  # no product this small can overflow
_NARROW_MASK = (1 << _NARROW_SPAN) - 1
_NARROW_POS = range(_NARROW_FIELDS)
_WIDE_MASK = (1 << _WIDE_BITS) - 1
_LAST_SLOTS = _FIELD_MASK[1 + INDEXED_SLOTS] | _FIELD_MASK[-1]  # c31 and l32

_NAMES = tuple(str(v) for v in _FIELD_VARS)
_LATEX_NAMES = tuple(v.to_latex() for v in _FIELD_VARS)

# A monomial: a packed int as laid out above; 0 is the empty monomial.
Mono = int

_EMPTY_MONO: Mono = 0


def _field(ind: Indeterminate) -> int:
    f = _FIELD_OF.get(ind)
    if f is None:
        raise MonomialOverflowError(
            f"variable {ind} is outside the packed layout "
            f"(c0..c{INDEXED_SLOTS - 1}, l1..l{INDEXED_SLOTS})"
        )
    return f


def _pack(powers: Iterable[tuple[Indeterminate, int]]) -> Mono:
    """Pack (variable, exponent) pairs; repeated variables add up."""
    exps: dict[int, int] = {}
    for v, e in powers:
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            f = _field(v)
            exps[f] = exps.get(f, 0) + e
    m = deg = 0
    for f, e in exps.items():
        if e > _FIELD_MAX[f]:
            raise MonomialOverflowError(
                f"exponent {e} of {_NAMES[f]} exceeds the cap {_FIELD_MAX[f]}"
            )
        m += e << _FIELD_SHIFT[f]
        deg += e
    return m + (deg << _DEG_SHIFT)


def _unpack(m: Mono) -> list[tuple[int, int]]:
    """(field, exponent) of every variable present, in variable order."""
    out = []
    wide = m >> _NARROW_SPAN
    x_exp, t_exp = wide >> _WIDE_BITS & _WIDE_MASK, wide & _WIDE_MASK
    if x_exp:
        out.append((0, x_exp))
    if t_exp:
        out.append((1, t_exp))
    narrow = (m & _NARROW_MASK).to_bytes(_NARROW_FIELDS, "big")  # a byte per field
    out += [(k + 2, narrow[k]) for k in compress(_NARROW_POS, narrow)]
    return out


def _check_product(out: Mapping[Mono, Rat], a: Mono, b: Mono) -> None:
    """Raise if a product of factors whose largest monomials are a and b left a field."""
    if (a >> _DEG_SHIFT) + (b >> _DEG_SHIFT) <= _SAFE_DEGREE:
        return
    for m in out:
        if m & _GUARDS:
            f = next(f for f, g in enumerate(_FIELD_GUARD) if m & g)
            raise MonomialOverflowError(
                f"exponent of {_NAMES[f]} exceeds the cap {_FIELD_MAX[f]}"
            )


class MultiPoly:
    """Sparse exact polynomial in the fixed variable universe.

    Instances are immutable; arithmetic returns new objects.  Plain ints and
    Fractions coerce automatically in mixed expressions.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Mono, Rat] | None = None):
        clean: dict[Mono, Rat] = {}
        if terms:
            for mono, coeff in terms.items():
                q = _as_coeff(coeff)
                if q:
                    clean[mono] = q
        self._terms = clean
        self._hash: int | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "MultiPoly":
        return _ONE

    @classmethod
    def const(cls, value: Rat) -> "MultiPoly":
        return cls({_EMPTY_MONO: _as_coeff(value)})

    @classmethod
    def variable(cls, ind: Indeterminate) -> "MultiPoly":
        return _variable_poly(ind)

    @classmethod
    def x(cls) -> "MultiPoly":
        return cls.variable(X)

    @classmethod
    def t(cls) -> "MultiPoly":
        return cls.variable(T)

    @classmethod
    def c(cls, i: int) -> "MultiPoly":
        return cls.variable(c_var(i))

    @classmethod
    def lam(cls, i: int) -> "MultiPoly":
        return cls.variable(lam_var(i))

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[Rat, Mapping[Indeterminate, int]]]
    ) -> "MultiPoly":
        """Build from (coefficient, {variable: exponent}) pairs."""
        acc: dict[Mono, Rat] = {}
        for coeff, powers in terms:
            mono = _pack(powers.items())
            acc[mono] = acc.get(mono, 0) + Fraction(coeff)
        return cls(acc)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _EMPTY_MONO in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[_EMPTY_MONO])

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(self._terms) >> _DEG_SHIFT

    def contains(self, ind: Indeterminate) -> bool:
        f = _FIELD_OF.get(ind)
        if f is None:
            return False
        mask = _FIELD_MASK[f]
        return any(m & mask for m in self._terms)

    def variables(self) -> list[Indeterminate]:
        present = reduce(or_, self._terms, 0)
        return [_FIELD_VARS[f] for f, _ in _unpack(present)]

    def items(self) -> Iterator[tuple[Mono, Rat]]:
        return iter(self._terms.items())

    def coefficient(self, powers: Mapping[Indeterminate, int]) -> Fraction:
        return Fraction(self._terms.get(_pack(powers.items()), 0))

    def _leading(self) -> tuple[Mono, Rat]:
        best = max(self._terms)
        return best, self._terms[best]

    def _sorted_terms(self) -> list[tuple[Mono, Rat]]:
        """Terms in descending canonical order."""
        terms = self._terms
        return [(m, terms[m]) for m in sorted(terms, reverse=True)]

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> "MultiPoly | None":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.const(value)
        return None

    @classmethod
    def _raw(cls, terms: dict[Mono, Rat]) -> "MultiPoly":
        """Wrap an already-canonical term dict without copying."""
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def sum(cls, parts: Iterable["MultiPoly | Rat"]) -> "MultiPoly":
        """Sum many polynomials with a single accumulator.

        Equivalent to repeated ``+`` but linear in the total term count,
        which matters when thousands of path weights are collected.
        """
        out: dict[Mono, Rat] = {}
        for part in parts:
            p = cls._coerce(part)
            if p is None:
                raise TypeError(f"cannot interpret {part!r} as a polynomial")
            for m, q in p._terms.items():
                s = out.get(m)
                if s is None:
                    out[m] = q
                else:
                    s = s + q
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return cls._raw(out)

    def __add__(self, other: object) -> "MultiPoly":
        o = MultiPoly._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for m, q in o._terms.items():
            s = out.get(m, 0) + q
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return MultiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({m: -q for m, q in self._terms.items()})

    def __sub__(self, other: object) -> "MultiPoly":
        o = MultiPoly._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "MultiPoly":
        o = MultiPoly._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "MultiPoly":
        o = MultiPoly._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._terms, o._terms
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # one term: the products are distinct and nonzero, nothing merges
            ((mb, qb),) = b.items()
            out = {m + mb: q * qb for m, q in a.items()}
        else:
            out = {}
            for ma, qa in a.items():
                for mb, qb in b.items():
                    m = ma + mb
                    s = out.get(m, 0) + qa * qb
                    if s:
                        out[m] = s
                    elif m in out:
                        del out[m]
        _check_product(out, max(a), max(b))
        return MultiPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # a square past the last bit could pass the exponent caps
                base = base * base
        return result

    def exact_div(self, divisor: "MultiPoly | Rat") -> "MultiPoly":
        """Exact quotient self/divisor; raises InexactDivisionError otherwise.

        A one-term divisor divides term by term; a longer one runs long
        division.
        """
        d = MultiPoly._coerce(divisor)
        if d is None:
            raise TypeError("divisor must be a polynomial or rational")
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_constant:
            dv = d.constant_value()
            if dv == 1:
                return self
            if dv == -1:
                return -self
            return self * (1 / dv)
        lead_m, lead_q = d._leading()
        if len(d._terms) == 1:
            quot: dict[Mono, Rat] = {}
            for m, q in self._terms.items():
                tm = m - lead_m
                if tm < 0 or tm & _GUARDS:
                    raise InexactDivisionError(f"{d} does not divide {self}")
                quot[tm] = Fraction(q) / lead_q
            return MultiPoly(quot)
        quot = {}
        rem = self
        while not rem.is_zero:
            rm, rq = rem._leading()
            tm = rm - lead_m
            if tm < 0 or tm & _GUARDS:
                raise InexactDivisionError(f"{d} does not divide {self}")
            tq = Fraction(rq) / lead_q
            quot[tm] = quot.get(tm, 0) + tq
            rem = rem - MultiPoly({tm: tq}) * d
        return MultiPoly(quot)

    # -- structural maps -----------------------------------------------------

    def substitute(
        self, mapping: Mapping[Indeterminate, "MultiPoly | Rat"]
    ) -> "MultiPoly":
        """Simultaneously replace variables by polynomials or rationals."""
        repl: dict[Indeterminate, MultiPoly] = {}
        for ind, value in mapping.items():
            v = MultiPoly._coerce(value)
            if v is None:
                raise TypeError(f"cannot substitute {value!r}")
            repl[ind] = v

        def term_image(mono: Mono, coeff: Fraction) -> MultiPoly:
            term = MultiPoly.const(coeff)
            for f, exp in _unpack(mono):
                ind = _FIELD_VARS[f]
                base = repl.get(ind)
                if base is None:
                    base = MultiPoly.variable(ind)
                term = term * base**exp
            return term

        return MultiPoly.sum(
            term_image(mono, coeff) for mono, coeff in self._terms.items()
        )

    def shift_indexed(self) -> "MultiPoly":
        """Bump every c_i to c_{i+1} and every l_i to l_{i+1}; x, t untouched.

        The c and l fields move one field down as a block; c31 and l32 have
        nowhere to go.
        """
        out: dict[Mono, Rat] = {}
        for mono, coeff in self._terms.items():
            if mono & _LAST_SLOTS:
                raise MonomialOverflowError(
                    f"shifting {self} leaves the packed layout "
                    f"(c0..c{INDEXED_SLOTS - 1}, l1..l{INDEXED_SLOTS})"
                )
            out[mono & ~_NARROW_MASK | (mono & _NARROW_MASK) >> _NARROW_BITS] = coeff
        return MultiPoly(out)

    # -- comparison / rendering ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = MultiPoly._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for mono, coeff in self._sorted_terms():
            mag = abs(coeff)
            body = _render_term(mag, mono, star="*", power="^")
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def to_latex(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for mono, coeff in self._sorted_terms():
            mag = abs(coeff)
            body = _render_term_latex(mag, mono)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    # -- JSON ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for mono, coeff in self._sorted_terms():
            powers = {_NAMES[f]: e for f, e in _unpack(mono)}
            terms.append(
                {"coeff": f"{coeff.numerator}/{coeff.denominator}", "powers": powers}
            )
        return {"terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MultiPoly":
        acc: dict[Mono, Rat] = {}
        for entry in data["terms"]:
            coeff = Fraction(entry["coeff"])
            mono = _pack(
                (Indeterminate.parse(name), int(e))
                for name, e in entry["powers"].items()
            )
            acc[mono] = acc.get(mono, 0) + coeff
        return cls(acc)


_ZERO = MultiPoly()
_ONE = MultiPoly({_EMPTY_MONO: 1})


@lru_cache(maxsize=None)
def _variable_poly(ind: Indeterminate) -> MultiPoly:
    return MultiPoly({_pack(((ind, 1),)): 1})


def _render_term(mag: Rat, mono: Mono, star: str, power: str) -> str:
    vars_part = star.join(
        _NAMES[f] if e == 1 else f"{_NAMES[f]}{power}{e}" for f, e in _unpack(mono)
    )
    if not vars_part:
        return str(mag)
    if mag == 1:
        return vars_part
    return f"{mag}{star}{vars_part}"


def _render_term_latex(mag: Rat, mono: Mono) -> str:
    vars_part = " ".join(
        _LATEX_NAMES[f] if e == 1 else f"{_LATEX_NAMES[f]}^{{{e}}}"
        for f, e in _unpack(mono)
    )
    if mag.denominator == 1:
        mag_part = str(mag.numerator)
    else:
        mag_part = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
    if not vars_part:
        return mag_part
    if mag == 1:
        return vars_part
    return f"{mag_part} {vars_part}"


def as_multipoly(value: object) -> MultiPoly:
    p = MultiPoly._coerce(value)
    if p is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return p


class UniPoly:
    """Dense polynomial in one distinguished variable (``x`` by default).

    Coefficients are MultiPoly values that must not mention the main
    variable; the coefficient at index k multiplies var**k.  The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("_coeffs", "var")

    def __init__(self, coeffs: Iterable[object] = (), var: Indeterminate = X):
        lst = [as_multipoly(c) for c in coeffs]
        for c in lst:
            if c.contains(var):
                raise ValueError(f"coefficient {c} mentions the main variable {var}")
        while lst and lst[-1].is_zero:
            lst.pop()
        self._coeffs = tuple(lst)
        self.var = var

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, var: Indeterminate = X) -> "UniPoly":
        return cls((), var)

    @classmethod
    def one(cls, var: Indeterminate = X) -> "UniPoly":
        return cls((1,), var)

    @classmethod
    def const(cls, value: object, var: Indeterminate = X) -> "UniPoly":
        return cls((value,), var)

    @classmethod
    def monomial(cls, k: int, coeff: object = 1, var: Indeterminate = X) -> "UniPoly":
        if k < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * k + (coeff,), var)

    @classmethod
    def from_multipoly(cls, p: MultiPoly, var: Indeterminate = X) -> "UniPoly":
        """Collect a MultiPoly by powers of var."""
        f = _FIELD_OF.get(var)
        if f is None:  # no polynomial mentions a variable outside the layout
            return cls((p,), var)
        shift, cap = _FIELD_SHIFT[f], _FIELD_MASK[f]
        buckets: dict[int, dict[Mono, Rat]] = {}
        for mono, coeff in p.items():
            k = (mono & cap) >> shift
            rest = mono - (k << shift) - (k << _DEG_SHIFT)
            buckets.setdefault(k, {})[rest] = coeff
        if not buckets:
            return cls.zero(var)
        top = max(buckets)
        coeffs = [MultiPoly(buckets.get(k, {})) for k in range(top + 1)]
        return cls(coeffs, var)

    # -- queries -------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def coeffs(self) -> tuple[MultiPoly, ...]:
        return self._coeffs

    def coeff(self, k: int) -> MultiPoly:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return MultiPoly.zero()

    def to_multipoly(self) -> MultiPoly:
        out = MultiPoly.zero()
        xk = MultiPoly.one()
        v = MultiPoly.variable(self.var)
        for c in self._coeffs:
            out = out + c * xk
            xk = xk * v
        return out

    # -- arithmetic ------------------------------------------------------------

    def _coerce_other(self, other: object) -> "UniPoly | None":
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise ValueError("mixed main variables")
            return other
        p = MultiPoly._coerce(other)
        if p is None:
            return None
        return UniPoly((p,), self.var)

    def __add__(self, other: object) -> "UniPoly":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        n = max(len(self._coeffs), len(o._coeffs))
        return UniPoly(
            (self.coeff(k) + o.coeff(k) for k in range(n)), self.var
        )

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly((-c for c in self._coeffs), self.var)

    def __sub__(self, other: object) -> "UniPoly":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "UniPoly":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "UniPoly":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return UniPoly.zero(self.var)
        out = [MultiPoly.zero()] * (len(self._coeffs) + len(o._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(o._coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = UniPoly.one(self.var)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structural maps ---------------------------------------------------------

    def reciprocal(self, n: int) -> "UniPoly":
        """Degree-n reversal var**n * p(1/var); requires degree <= n."""
        if self.degree > n:
            raise DegreeError(f"degree {self.degree} exceeds bound {n}")
        padded = list(self._coeffs) + [MultiPoly.zero()] * (n + 1 - len(self._coeffs))
        return UniPoly(reversed(padded), self.var)

    def shift_indexed(self) -> "UniPoly":
        return UniPoly((c.shift_indexed() for c in self._coeffs), self.var)

    def substitute(
        self, mapping: Mapping[Indeterminate, "MultiPoly | Rat"]
    ) -> "UniPoly":
        if any(v == self.var for v in mapping):
            raise ValueError("cannot substitute the main variable")
        return UniPoly((c.substitute(mapping) for c in self._coeffs), self.var)

    def evaluate(self, value: Rat) -> Fraction:
        """Exact evaluation at a rational point; coefficients must be constant."""
        v = Fraction(value)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * v + c.constant_value()
        return acc

    def evaluate_float(self, value: float) -> float:
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * value + float(c.constant_value())
        return acc

    # -- comparison / rendering ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce_other(other) if not isinstance(other, UniPoly) else other
        if o is None:
            return NotImplemented
        return self.var == o.var and self._coeffs == o._coeffs

    def __hash__(self) -> int:
        return hash((self.var, self._coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"UniPoly({self})"

    def __str__(self) -> str:
        return self._render(latex=False)

    def to_latex(self) -> str:
        return self._render(latex=True)

    def _render(self, latex: bool) -> str:
        if self.is_zero:
            return "0"
        var_name = self.var.to_latex() if latex else str(self.var)
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
            if c.is_zero:
                continue
            sign, body = _render_unipoly_piece(c, k, var_name, latex)
            if not parts:
                parts.append(body if sign > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if sign > 0 else f" - {body}")
        return "".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "var": str(self.var),
            "coeffs": [c.to_json_dict() for c in self._coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "UniPoly":
        var = Indeterminate.parse(data["var"])
        return cls((MultiPoly.from_json_dict(c) for c in data["coeffs"]), var)


def _render_unipoly_piece(
    c: MultiPoly, k: int, var_name: str, latex: bool
) -> tuple[int, str]:
    """Render c * var**k as (sign, unsigned text)."""
    xpart = ""
    if k == 1:
        xpart = var_name
    elif k > 1:
        xpart = f"{var_name}^{{{k}}}" if latex else f"{var_name}^{k}"
    terms = c._sorted_terms()
    if len(terms) == 1:
        mono, coeff = terms[0]
        mag = abs(coeff)
        if latex:
            body = _render_term_latex(mag, mono)
        else:
            body = _render_term(mag, mono, star="*", power="^")
        if xpart:
            if mag == 1 and not mono:
                body = xpart
            else:
                body = f"{body} {xpart}" if latex else f"{body}*{xpart}"
        return (1 if coeff > 0 else -1), body
    # multi-term coefficient: parenthesize; factor out -1 when uniformly negative
    all_neg = all(q < 0 for _, q in terms)
    inner = (-c) if all_neg else c
    inner_text = inner.to_latex() if latex else str(inner)
    if xpart:
        body = (
            f"\\left({inner_text}\\right) {xpart}"
            if latex
            else f"({inner_text})*{xpart}"
        )
    else:
        body = f"\\left({inner_text}\\right)" if latex else f"({inner_text})"
    return (-1 if all_neg else 1), body


def reciprocal_poly(q: UniPoly, n: int) -> UniPoly:
    """The degree-n reversal of q: var**n * q(1/var)."""
    return q.reciprocal(n)


def shift_vars(p: "MultiPoly | UniPoly") -> "MultiPoly | UniPoly":
    """Index shift on both families: c_i -> c_{i+1}, l_i -> l_{i+1}."""
    return p.shift_indexed()
