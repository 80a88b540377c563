"""Finite J-fraction convergents and their series expansions.

The depth-n convergent is the rational function obtained by cutting the
continued fraction

    1 / (1 - c_0 x - lambda_1 x^2 / (1 - c_1 x - lambda_2 x^2 / ( ... )))

after the level containing c_n.  Convergents are normalized so the
denominator's constant term is 1, which turns the identities relating them
to the reversed basis polynomials into plain cross-multiplications.

The series of the full fraction agrees with a convergent well past the
cut: the coefficient of x^k is stable once 2n + 1 >= k.  ``j_series`` does
not expand a convergent, though.  It reads the fraction as the first-return
decomposition of weighted Motzkin paths (Flajolet, "Combinatorial aspects
of continued fractions", Discrete Math. 32, 1980),

    F_k = 1 / (1 - c_k x - lambda_{k+1} x^2 F_{k+1}),

and expands it from the bottom up, with no division and, for the symbolic
spec, no cancellation.  The long division of a convergent,
``convergent(n).value.series(order)``, is what the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import CoeffSpec, generate_basis
from .poly import MultiPoly, UniPoly, reciprocal_poly
from .series import RationalFn, TruncatedSeries


@dataclass(frozen=True)
class Convergent:
    """Depth-n cut of the J-fraction, as an exact rational function."""

    n: int
    spec: CoeffSpec
    value: RationalFn


def convergent(n: int, spec: CoeffSpec) -> Convergent:
    """Build the depth-n convergent bottom-up.

    Starting from R = 1 - c_n x, each level wraps
    R <- (1 - c_k x) - lambda_{k+1} x^2 / R; the convergent is 1/R.
    """
    if n < 0:
        raise ValueError("depth must be >= 0")
    x2 = UniPoly.monomial(2)
    r_num = UniPoly((1, -spec.c(n)))
    r_den = UniPoly.one()
    for k in range(n - 1, -1, -1):
        head = UniPoly((1, -spec.c(k)))
        r_num, r_den = head * r_num - spec.lam(k + 1) * x2 * r_den, r_num
    value = RationalFn(r_den, r_num).normalized()
    return Convergent(n, spec, value)


def convergent_qstar_identity(n: int, spec: CoeffSpec) -> bool:
    """Does the depth-n convergent equal S Q_n* / Q_{n+1}*?

    Q_k* is the degree-k reversal of the basis polynomial Q_k, and S views
    the coefficient sequences shifted by one index.  Checked by exact
    cross-multiplication.
    """
    j = convergent(n, spec).value
    basis = generate_basis(n + 1, spec)
    shifted_basis = generate_basis(n, spec.shifted())
    q_next_star = reciprocal_poly(basis.poly(n + 1), n + 1)
    s_qn_star = reciprocal_poly(shifted_basis.poly(n), n)
    return j.num * q_next_star == s_qn_star * j.den


def convergent_difference(n: int, spec: CoeffSpec) -> bool:
    """Does J(n) - J(n-1) equal lambda_1...lambda_n x^(2n) / (Q_n* Q_{n+1}*)?

    Compared cross-multiplied, without reducing either side to lowest terms.
    """
    if n < 1:
        raise ValueError("difference needs depth >= 1")
    lhs = convergent(n, spec).value - convergent(n - 1, spec).value
    basis = generate_basis(n + 1, spec)
    qn_star = reciprocal_poly(basis.poly(n), n)
    q_next_star = reciprocal_poly(basis.poly(n + 1), n + 1)
    rhs = RationalFn(
        UniPoly.monomial(2 * n, spec.lam_product(n)), qn_star * q_next_star
    )
    return lhs == rhs


def j_series(order: int, spec: CoeffSpec) -> TruncatedSeries:
    """Moment generating series F_0 to the requested order, by first return.

    F_k counts paths that never go below height k, split at their first
    return to height k: a level step (c_k x), or an up step, a path at
    height k + 1 and a down step (lambda_{k+1} x^2 F_{k+1}), followed by
    the rest of the path.  So F_k = 1 / (1 - u) with u = c_k x +
    lambda_{k+1} x^2 F_{k+1}, and its coefficients are g_0 = 1,
    g_n = sum_{i >= 1} u_i g_{n-i}.  F_k is needed only to order
    order - 2k, so the expansion starts at level order // 2 and reads
    c_k for k <= ceil(order/2) - 1 and lambda_k for k <= floor(order/2).

    This is a different decomposition from the Stieltjes triangle in
    ``basis``, which splits a path at its last step; neither route calls
    the other, nor ``series_div``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    # read in the fraction's own order c_0, lambda_1, c_1, ..., so that a
    # short custom spec is reported by its first missing coefficient
    cs: list[MultiPoly] = []
    lams: list[MultiPoly] = []
    for k in range(order // 2 + 1):
        if 2 * k + 1 <= order:
            cs.append(spec.c(k))
        if 2 * k + 2 <= order:
            lams.append(spec.lam(k + 1))
    deeper: list[MultiPoly] = []  # F_{k+1} to order order - 2k - 2
    for k in range(order // 2, -1, -1):
        g = [MultiPoly.one()]
        for n in range(1, order - 2 * k + 1):
            # g_n = c_k g_{n-1} + lambda_{k+1} sum_j F_{k+1,j} g_{n-2-j}
            gn = cs[k] * g[n - 1]
            if n >= 2:
                gn = gn + lams[k] * MultiPoly.sum(
                    deeper[j] * g[n - 2 - j] for j in range(n - 1)
                )
            g.append(gn)
        deeper = g
    return TruncatedSeries(deeper)


def cfrac_latex(depth: int, spec: CoeffSpec) -> str:
    """Nested \\cfrac display of the depth-n cut under the given spec."""
    if depth < 0:
        raise ValueError("depth must be >= 0")

    def head(k: int) -> str:
        p = UniPoly((1, -spec.c(k)))
        return p.to_latex()

    def level(k: int) -> str:
        if k == depth:
            return head(k)
        lam = spec.lam(k + 1)
        numerator = UniPoly.monomial(2, lam)
        if lam.is_constant and lam.constant_value() < 0:
            sign = "+"
            numerator = -numerator
        else:
            sign = "-"
        return f"{head(k)} {sign} \\cfrac{{{numerator.to_latex()}}}{{{level(k + 1)}}}"

    return f"\\cfrac{{1}}{{{level(0)}}}"
