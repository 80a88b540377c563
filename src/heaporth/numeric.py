"""Floating-point corroborations of the exact identities.

Everything in here is double precision with explicit tolerances; the exact
modules never depend on it.  The quadrature removes the inverse-square-root
endpoint of the Catalan moment integrand with the substitution x = t*t,
after which plain adaptive Simpson integration is accurate far beyond the
1e-8 the checks ask for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import CoeffSpec, HankelMatrix, SymbolicMatrixError, generate_basis
from .poly import MultiPoly, T, UniPoly
from .series import series_div


class QuadratureError(ArithmeticError):
    """Adaptive quadrature could not meet its own error target."""


class JacobiConvergenceError(ArithmeticError):
    """The cyclic Jacobi sweep failed to drive the off-diagonal to zero."""


# Largest Hankel matrix that jacobi_eigen_positivity accepts.
JACOBI_MAX_SIZE = 12


def binet_eval(n: int, x: float) -> float:
    """Closed-form value of the degree-n Fibonacci-recursion polynomial.

    With a = (x + sqrt(x^2+4))/2 and b = (x - sqrt(x^2+4))/2 this is
    (a^(n+1) - b^(n+1)) / (a - b).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    root = math.sqrt(x * x + 4.0)
    a = (x + root) / 2.0
    b = (x - root) / 2.0
    return (a ** (n + 1) - b ** (n + 1)) / (a - b)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def _adaptive_simpson(f, a: float, b: float, tol: float) -> QuadratureResult:
    evals = 0

    def eval_f(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    def simpson(lo: float, flo: float, mid: float, fmid: float, hi: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def rec(lo, flo, mid, fmid, hi, fhi, whole, tol, depth) -> tuple[float, float]:
        if depth > 60:
            raise QuadratureError("adaptive subdivision exceeded depth 60")
        lmid = (lo + mid) / 2.0
        rmid = (mid + hi) / 2.0
        flmid = eval_f(lmid)
        frmid = eval_f(rmid)
        left = simpson(lo, flo, lmid, flmid, mid, fmid)
        right = simpson(mid, fmid, rmid, frmid, hi, fhi)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = rec(lo, flo, lmid, flmid, mid, fmid, left, tol / 2.0, depth + 1)
        rv, re_ = rec(mid, fmid, rmid, frmid, hi, fhi, right, tol / 2.0, depth + 1)
        return lv + rv, le + re_

    fa = eval_f(a)
    fm = eval_f((a + b) / 2.0)
    fb = eval_f(b)
    whole = simpson(a, fa, (a + b) / 2.0, fm, b, fb)
    value, err = rec(a, fa, (a + b) / 2.0, fm, b, fb, whole, tol, 0)
    return QuadratureResult(value, err, evals)


def catalan_integral(m: int, tol: float = 1e-11) -> QuadratureResult:
    """4^(m+1)/(2 pi) times the integral over [0,1] of x^m sqrt((1-x)/x).

    Substituting x = t*t turns the integrand into 2 t^(2m) sqrt(1-t*t),
    bounded on [0,1]; the scaled value is the m-th Catalan number.
    """
    if m < 0:
        raise ValueError("m must be >= 0")

    def integrand(t: float) -> float:
        return 2.0 * t ** (2 * m) * math.sqrt(max(0.0, 1.0 - t * t))

    raw = _adaptive_simpson(integrand, 0.0, 1.0, tol)
    scale = 4.0 ** (m + 1) / (2.0 * math.pi)
    return QuadratureResult(
        raw.value * scale, raw.abs_error_estimate * scale, raw.evaluations
    )


def gf_coeff_check(n_max: int) -> bool:
    """Expand 1/(1 - x t - t^2) in t and compare each coefficient.

    The coefficient of t^n must be exactly the degree-n polynomial from the
    Fibonacci-sign recursion; the expansion itself is exact long division
    in t, so this check is symbolic despite living next to the float code.
    """
    den = UniPoly((1, -MultiPoly.x(), -1), var=T)
    expansion = series_div(UniPoly.one(var=T), den, n_max)
    basis = generate_basis(n_max, CoeffSpec.fibonacci())
    for n in range(n_max + 1):
        if expansion.coefficient(n) != basis.poly(n).to_multipoly():
            return False
    return True


def jacobi_eigenvalues(
    rows: list[list[float]], tol: float = 1e-12, max_sweeps: int = 100
) -> list[float]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    ``tol`` is relative: the sweeps stop once the off-diagonal Frobenius
    norm is at most ``tol`` times the Frobenius norm of the whole matrix,
    which rotations preserve.  An absolute bound could never be met by
    matrices whose entries are large enough that rounding alone leaves more
    off-diagonal mass than it allows.
    """
    n = len(rows)
    a = [list(map(float, row)) for row in rows]
    for i in range(n):
        if len(a[i]) != n:
            raise ValueError("matrix must be square")
        for j in range(i + 1, n):
            if not math.isclose(a[i][j], a[j][i], rel_tol=0.0, abs_tol=1e-12):
                raise ValueError("matrix must be symmetric")
    bound = tol * math.sqrt(sum(x * x for row in a for x in row))
    for _ in range(max_sweeps):
        off = math.sqrt(
            sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        )
        if off <= bound:
            return sorted(a[i][i] for i in range(n))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < bound / (n * n + 1):
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp = a[k][p]
                    akq = a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p][k]
                    aqk = a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    raise JacobiConvergenceError(f"no convergence in {max_sweeps} sweeps")


def jacobi_eigen_positivity(matrix: HankelMatrix) -> bool:
    """True iff every eigenvalue of the (numeric) Hankel matrix is > 1e-9."""
    if matrix.size > JACOBI_MAX_SIZE:
        raise ValueError(f"eigenvalue corroboration supports size <= {JACOBI_MAX_SIZE}")
    if matrix.variant != "plain":
        raise ValueError("eigenvalue check applies to the symmetric variant")
    rows = []
    for row in matrix.rows():
        for entry in row:
            if not entry.is_constant:
                raise SymbolicMatrixError(
                    "eigenvalue check needs numeric moments; got symbolic entries"
                )
        rows.append([float(entry.constant_value()) for entry in row])
    eigen = jacobi_eigenvalues(rows)
    return min(eigen) > 1e-9
