"""Catalog of named identity checks behind the ``verify`` CLI command.

Each entry recomputes one identity from scratch, in exact arithmetic unless
the identity itself is about floats.  An entry is a generator of
``(detail, verdict)`` pairs; ``run_verifier`` turns each pair into one
deterministic ``"detail: ok"`` or ``"detail: FAIL"`` line, and an identity
holds when every verdict does.  If an entry raises, the lines already
yielded are kept, one more failing line ``raised <ExceptionClass>:
<first line of message>`` is added, and the other identities still run.
The names are short catalog ids; what each one certifies is spelled out in
its docstring.

Default depths are sized so that running the whole catalog stays well under
two minutes: symbolic checks stop around degree 4-6, specialized ones run
to 8-16.  An explicit nmax clamps every symbolic depth and both depths of
T3.2, and replaces the other specialized depths.  E5.20 and the integral
line of I4 check fixed recorded values and ignore nmax.  P5.2 computes the
exact minors to its full depth but the floating eigenvalues only up to
n = ``JACOBI_MAX_SIZE`` - 1; when that cap bites, its lines say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .basis import (
    CoeffSpec,
    HankelMatrix,
    basis_inverse_check,
    expand_in_basis,
    generate_basis,
    hankel_dets,
    hankel_positivity,
    qn_via_determinant,
    scalar_product,
    stieltjes_moments,
)
from .contfrac import convergent_difference, convergent_qstar_identity, j_series
from .heaps import _FIELD_MASK, _summit_field, _unstack, path_to_heap
from .numeric import JACOBI_MAX_SIZE, catalan_integral, jacobi_eigen_positivity
from .paths import Step, enumerate_paths
from .poly import MultiPoly, UniPoly

Checks = Iterator[tuple[str, bool]]


@dataclass(frozen=True)
class VerifyResult:
    name: str
    ok: bool
    lines: tuple[str, ...]


def catalan_number(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def _signed_catalan(n: int) -> MultiPoly:
    """(-1)^(n/2) C_{n/2} for even n and 0 for odd n: the n-th moment of the
    all-minus-one (Fibonacci) spec."""
    if n % 2:
        return MultiPoly.zero()
    return MultiPoly.const(Fraction((-1) ** (n // 2) * catalan_number(n // 2)))


def _clamp(default: int, nmax: int | None) -> int:
    return default if nmax is None else min(default, nmax)


def _pick(default: int, nmax: int | None) -> int:
    return default if nmax is None else nmax


_SPECIALIZED = (CoeffSpec.catalan(), CoeffSpec.fibonacci())


def _depths(
    nmax: int | None, symbolic: int, specialized: int
) -> Iterator[tuple[CoeffSpec, int]]:
    """(spec, depth) for the symbolic spec, whose depth nmax clamps, then for
    Catalan and Fibonacci, whose depth nmax replaces."""
    yield CoeffSpec.symbolic(), _clamp(symbolic, nmax)
    for spec in _SPECIALIZED:
        yield spec, _pick(specialized, nmax)


def _t32(nmax: int | None) -> Checks:
    """Hankel determinant ratios d_n/d_{n-1} and the c_n difference formula,
    plus the near-diagonal triangle entry h[n+1][n]."""
    for spec, top in ((CoeffSpec.symbolic(), _clamp(4, nmax)),) + tuple(
        (s, _clamp(6, nmax)) for s in _SPECIALIZED
    ):
        mu = stieltjes_moments(2 * top + 1, spec)
        d_prev = MultiPoly.one()
        chi_prev = MultiPoly.zero()
        good = True
        for n in range(top + 1):
            d_n, chi_n = hankel_dets(n, mu)
            # d_n == lambda_1...lambda_n d_{n-1}
            # and c_n d_n d_{n-1} == chi_n d_{n-1} - chi_{n-1} d_n
            good &= d_n == spec.lam_product(n) * d_prev and (
                spec.c(n) * d_n * d_prev == chi_n * d_prev - chi_prev * d_n
            )
            d_prev, chi_prev = d_n, chi_n
        yield f"{spec}: determinant ratios to n={top}", good
    spec = CoeffSpec.symbolic()
    top = _clamp(4, nmax)
    mu = stieltjes_moments(2 * top + 2, spec)
    yield f"symbolic: near-diagonal h[n+1][n] to n={top}", all(
        mu.h_entry(n + 1, n)
        == MultiPoly.sum(spec.c(i) for i in range(n + 1)) * spec.lam_product(n)
        for n in range(top + 1)
    )


def _t33(nmax: int | None) -> Checks:
    """The scaled moment triangle inverts the basis coefficient matrix."""
    for spec, top in _depths(nmax, 4, 8):
        basis = generate_basis(top, spec)
        mu = stieltjes_moments(top, spec)
        yield f"{spec}: inverse pair at n={top}", basis_inverse_check(top, basis, mu)


def _t34(nmax: int | None) -> Checks:
    """Convergent equals the shifted reversed polynomial over the next one."""
    for spec, top in _depths(nmax, 3, 5):
        yield f"{spec}: ratio form to depth {top}", all(
            convergent_qstar_identity(n, spec) for n in range(top + 1)
        )


def _t35(nmax: int | None) -> Checks:
    """Successive convergents differ by the lambda-weighted x^(2n) kernel."""
    for spec, top in _depths(nmax, 3, 5):
        yield f"{spec}: difference form to depth {top}", all(
            convergent_difference(n, spec) for n in range(1, top + 1)
        )


def _t21(nmax: int | None) -> Checks:
    """Closed-path-to-heap map: pyramid/summit, projection bound, all-dimer
    image of no-flat paths, step count 2d+m, injectivity, exact inversion."""
    top = _pick(8, nmax)
    ok = True
    total = 0
    images = set()
    for length in range(1, top + 1):
        for path in enumerate_paths(0, 0, length):
            total += 1
            heap = path_to_heap(path)
            key = heap.key
            summit = _summit_field(key)  # m0 and d1 are the fields 0 and 1
            level = peak = 0
            dyck = True
            for step in path.steps:
                if step is Step.NE:
                    level += 1
                    if level > peak:
                        peak = level
                elif step is Step.SE:
                    level -= 1
                else:
                    dyck = False
            dimers = sum(k & 1 for k in key)  # a dimer's field is odd
            # A piece's highest column is its target (f + 1) >> 1; a field
            # decoded from a key is never negative, and neither is a column.
            ok &= (
                summit in (0, 1)
                and (max(k & _FIELD_MASK for k in key) + 1) >> 1 <= peak
                and (not dyck or (dimers == len(key) and summit == 1))
                and dimers + len(key) == len(path.steps)  # 2*dimers + monomers steps
                and key not in images
                and _unstack(key, summit) == path
            )
            images.add(key)
    yield f"{total} closed paths of length <= {top}: properties, injectivity and inversion", ok


def _p51(nmax: int | None) -> Checks:
    """Monomials expand in the sign-flipped basis and reconstruct exactly."""
    top = _pick(10, nmax)
    spec = CoeffSpec.fibonacci()
    basis = generate_basis(top, spec)
    mu = stieltjes_moments(2 * top, spec)
    ok = True
    for n in range(top + 1):
        p = UniPoly.monomial(n)
        coeffs = expand_in_basis(p, basis, mu)  # reconstruction checked inside
        for k, coeff in enumerate(coeffs):
            direct = scalar_product(p, basis.poly(k), mu)
            ok &= coeff == (-direct if k % 2 else direct)
    yield f"x^n expansions reconstruct for n <= {top}", ok


def _p52(nmax: int | None) -> Checks:
    """Exact leading minors versus floating eigenvalue signs, and the
    nonsingularity of the signed-moment matrices."""
    top = _pick(6, nmax)
    eig_top = min(top, JACOBI_MAX_SIZE - 1)
    depth = f"n={top}" if eig_top == top else f"n={top} (eigenvalues to n={eig_top})"
    for spec, claim, exact in (
        (CoeffSpec.catalan(), "minors all 1 and eigenvalues agree", lambda m: m == 1),
        (CoeffSpec.fibonacci(), "nonsingular with agreeing eigen-verdict", lambda m: m != 0),
    ):
        mu = stieltjes_moments(2 * top, spec)
        # The leading minors of plain(top) are those of every plain(n), n <= top.
        minors = hankel_positivity(HankelMatrix.plain(top, mu)).minors
        yield f"{spec}: {claim} to {depth}", all(map(exact, minors)) and all(
            jacobi_eigen_positivity(HankelMatrix.plain(n, mu)) is all(m > 0 for m in minors[: n + 1])
            for n in range(eig_top + 1)
        )


def _i4(nmax: int | None) -> Checks:
    """Signed-Catalan moment values, both exactly and through the integral."""
    top = _pick(16, nmax)
    mu = stieltjes_moments(top, CoeffSpec.fibonacci())
    yield f"moment values to n={top}", all(
        mu.mu[n] == _signed_catalan(n) for n in range(top + 1)
    )
    yield "integral form within 1e-8 for m <= 6", all(
        abs(catalan_integral(m).value - catalan_number(m)) <= 1e-8 for m in range(7)
    )


def _i5(nmax: int | None) -> Checks:
    """Signed Hankel determinants and the bordered-determinant formula."""
    top = _pick(6, nmax)
    spec = CoeffSpec.fibonacci()
    mu = stieltjes_moments(2 * top + 1, spec)
    basis = generate_basis(top, spec)
    dets = [HankelMatrix.plain(n, mu).det() for n in range(top + 1)]
    yield f"determinants (-1)^ceil(n/2) to n={top}", all(
        d_n == MultiPoly.const(Fraction((-1) ** ((n + 1) // 2))) for n, d_n in enumerate(dets)
    )
    yield f"bordered determinant rebuilds P_n to n={top}", all(
        qn_via_determinant(n, mu) == basis.poly(n)
        and (n == 0 or dets[n - 1] == MultiPoly.const(Fraction((-1) ** (n // 2))))
        for n in range(top + 1)
    )


def _i6(nmax: int | None) -> Checks:
    """The all-minus-one continued fraction expands to alternating Catalans."""
    order = _pick(16, nmax)
    series = j_series(order, CoeffSpec.fibonacci())
    yield f"series coefficients to x^{order}", all(
        series.coefficient(n) == _signed_catalan(n) for n in range(order + 1)
    )


def _e517(nmax: int | None) -> Checks:
    """Shifted-row determinants vanish for the signed-moment sequence."""
    top = _pick(5, nmax)
    mu = stieltjes_moments(2 * top + 1, CoeffSpec.fibonacci())
    yield f"shifted determinants vanish to n={top}", all(
        HankelMatrix.shifted(n, mu).det().is_zero for n in range(top + 1)
    )


_E520_EXPECTED = {
    7: {1: -14, 3: 14, 5: -6, 7: 1},
    8: {0: 14, 2: -28, 4: 20, 6: -7, 8: 1},
}


def _e520(nmax: int | None) -> Checks:
    """The two recorded monomial expansions, coefficient by coefficient."""
    spec = CoeffSpec.fibonacci()
    basis = generate_basis(8, spec)
    mu = stieltjes_moments(16, spec)
    for power, expected in _E520_EXPECTED.items():
        coeffs = expand_in_basis(UniPoly.monomial(power), basis, mu)
        got = {k: c.constant_value() for k, c in enumerate(coeffs) if not c.is_zero}
        yield f"x^{power} expansion", got == expected


_VERIFIERS: dict[str, Callable[[int | None], Checks]] = {
    "T3.2": _t32,
    "T3.3": _t33,
    "T3.4": _t34,
    "T3.5": _t35,
    "T2.1": _t21,
    "P5.1": _p51,
    "P5.2": _p52,
    "I4": _i4,
    "I5": _i5,
    "I6": _i6,
    "E5.17": _e517,
    "E5.20": _e520,
}

VERIFIER_NAMES = tuple(_VERIFIERS)


def run_verifier(name: str, nmax: int | None = None) -> VerifyResult:
    """Run one named check; an exception it raises becomes a failing line."""
    try:
        checks = _VERIFIERS[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}") from None
    verdicts: list[tuple[str, bool]] = []
    try:
        for detail, good in checks(nmax):
            verdicts.append((detail, good))
    except Exception as exc:  # reported as this identity's failure; the run goes on
        message = str(exc).partition("\n")[0]
        verdicts.append((f"raised {type(exc).__name__}: {message}", False))
    lines = tuple(f"{detail}: {'ok' if good else 'FAIL'}" for detail, good in verdicts)
    return VerifyResult(name, all(good for _, good in verdicts), lines)


def run_verifiers(names: list[str], nmax: int | None = None) -> list[VerifyResult]:
    """Run several checks in the order requested."""
    return [run_verifier(name, nmax) for name in names]
