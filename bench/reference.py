"""Independent references for the benchmark's checks.

Nothing here uses heaporth's arithmetic, parsers or renderers: polynomials
are plain dicts from monomial keys to ``Fraction``, and every formula is
written out again from the paper's definitions.

A monomial key is a tuple of ``(variable name, exponent)`` pairs sorted by
name; it serves equality only.  The documented graded-lex order is checked
separately by ``glex_problem``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_VAR = re.compile(r"^(x|t|c(0|[1-9][0-9]*)|l([1-9][0-9]*))$")


def var_rank(name: str) -> tuple[int, int]:
    """Position of a variable in the order x < t < c0 < c1 < ... < l1 < l2 < ..."""
    if _VAR.match(name) is None:
        raise ValueError(f"unknown variable {name!r}")
    if name in ("x", "t"):
        return (0 if name == "x" else 1, 0)
    return (2 if name[0] == "c" else 3, int(name[1:]))


def parse_scalar(text: object) -> Fraction:
    """A JSON coefficient: an int, or a "p/q" string."""
    if isinstance(text, bool):
        raise ValueError(f"not a coefficient: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"not a coefficient: {text!r}")
    num, sep, den = text.partition("/")
    if not sep or not re.fullmatch(r"-?[0-9]+", num) or not re.fullmatch(r"[1-9][0-9]*", den):
        raise ValueError(f"not a p/q coefficient: {text!r}")
    return Fraction(int(num), int(den))


def parse_poly(obj: object) -> dict[tuple, Fraction]:
    """A polynomial in the documented JSON format, or a collapsed scalar."""
    if not isinstance(obj, dict):
        value = parse_scalar(obj)
        return {(): value} if value else {}
    terms = obj.get("terms")
    if set(obj) != {"terms"} or not isinstance(terms, list):
        raise ValueError("polynomial JSON must be {\"terms\": [...]}")
    out: dict[tuple, Fraction] = {}
    for term in terms:
        coeff = parse_scalar(term["coeff"])
        powers = term["powers"]
        for name, exp in powers.items():
            var_rank(name)
            if not isinstance(exp, int) or isinstance(exp, bool) or exp < 1:
                raise ValueError(f"bad exponent {exp!r} on {name}")
        key = tuple(sorted(powers.items()))
        if coeff == 0 or key in out:
            raise ValueError(f"zero or repeated term {key}")
        out[key] = coeff
    return out


def glex_problem(obj: object) -> str | None:
    """Why the JSON term list is not in descending graded-lex order, or None.

    Graded lex: total degree first, then the earliest variable (in
    ``var_rank`` order) with a differing exponent decides, larger first.
    """
    if not isinstance(obj, dict):
        return None
    terms = obj["terms"]
    names = sorted({n for t in terms for n in t["powers"]}, key=var_rank)
    keys = [
        (sum(t["powers"].values()), tuple(t["powers"].get(n, 0) for n in names))
        for t in terms
    ]
    for i in range(1, len(keys)):
        if not keys[i - 1] > keys[i]:
            return f"terms {i - 1} and {i} out of graded-lex order"
    return None


def evaluate(poly: dict[tuple, Fraction], point: dict[str, Fraction]) -> Fraction:
    """Exact value at a rational point, summed over a common denominator in ints."""
    scale = math.lcm(*(q.denominator for q in point.values())) if point else 1
    ints = {name: int(q * scale) for name, q in point.items()}
    top = max((sum(e for _, e in key) for key in poly), default=0)
    powers: dict[tuple[str, int], int] = {}
    whole, part = 0, Fraction(0)
    for key, coeff in poly.items():
        value, deg = 1, 0
        for name, exp in key:
            f = powers.get((name, exp))
            if f is None:
                f = powers[(name, exp)] = ints[name] ** exp
            value *= f
            deg += exp
        value *= scale ** (top - deg)
        if coeff.denominator == 1:
            whole += coeff.numerator * value
        else:
            part += coeff * value
    return (whole + part) / scale**top


def monomial(**powers: int) -> tuple:
    return tuple(sorted((n, e) for n, e in powers.items() if e))


def motzkin_numbers(n: int) -> list[int]:
    """M_0..M_n from M_{k+1} = M_k + sum_{i<k} M_i M_{k-1-i}."""
    m = [1]
    for k in range(n):
        m.append(m[k] + sum(m[i] * m[k - 1 - i] for i in range(k)))
    return m


def closed_path_count(top: int) -> int:
    """Closed Motzkin paths of length 1..top."""
    return sum(motzkin_numbers(top)[1:])


def recursion_polys(n: int, c: list[Fraction], lam: list[Fraction]) -> list[list[Fraction]]:
    """Q_0..Q_n as low-first coefficient lists; lam[k] is lambda_k (lam[0] unused).

    Q_{k+1} = (x - c_k) Q_k - lambda_k Q_{k-1}.
    """
    polys = [[Fraction(1)]]
    prev: list[Fraction] = []
    for k in range(n):
        cur = polys[-1]
        nxt = [Fraction(0)] + cur
        for i, a in enumerate(cur):
            nxt[i] -= c[k] * a
        if k >= 1:
            for i, a in enumerate(prev):
                nxt[i] -= lam[k] * a
        prev = cur
        polys.append(nxt)
    return polys


def moments(n: int, c: list[Fraction], lam: list[Fraction]) -> list[Fraction]:
    """mu_0..mu_n from the Stieltjes triangle h[m][k] with lam[k] = lambda_k."""
    row = [Fraction(1)]
    mu = [row[0]]
    for m in range(1, n + 1):
        nxt = []
        for k in range(m + 1):
            acc = Fraction(0)
            if k >= 1:
                acc += lam[k] * row[k - 1]
            if k < m:
                acc += c[k] * row[k]
            if k + 1 < m:
                acc += row[k + 1]
            nxt.append(acc)
        row = nxt
        mu.append(row[0])
    return mu


def hankel_closed_forms(n: int, c: list[Fraction], lam: list[Fraction]) -> tuple[Fraction, Fraction]:
    """d_n = prod_{k<=n} lambda_k^(n-k+1) and chi_n = d_n (c_0 + ... + c_n)."""
    d = Fraction(1)
    for k in range(1, n + 1):
        d *= lam[k] ** (n - k + 1)
    return d, d * sum(c[: n + 1], Fraction(0))


def symbolic_hankel_closed_forms(n: int) -> tuple[dict[tuple, Fraction], dict[tuple, Fraction]]:
    """The same closed forms as term dicts in the indeterminates c_i, l_k."""
    d_key = monomial(**{f"l{k}": n - k + 1 for k in range(1, n + 1)})
    chi = {tuple(sorted(d_key + ((f"c{i}", 1),))): Fraction(1) for i in range(n + 1)}
    return {d_key: Fraction(1)}, chi


def point_coeffs(point: dict[str, Fraction], n: int) -> tuple[list[Fraction], list[Fraction]]:
    """(c_0..c_n, [unused, lambda_1..lambda_n]) read off a symbolic point."""
    return (
        [point[f"c{i}"] for i in range(n + 1)],
        [Fraction(0)] + [point[f"l{k}"] for k in range(1, n + 1)],
    )
