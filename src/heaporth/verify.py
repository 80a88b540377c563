"""Catalog of named identity checks behind the ``verify`` CLI command.

Each entry recomputes one identity from scratch, in exact arithmetic unless
the identity itself is about floats, and reports a deterministic list of
detail lines.  The names are short catalog ids; what each one certifies is
spelled out in its docstring.

Default depths are sized so that running the whole catalog stays well under
two minutes: symbolic checks stop around degree 4-6, specialized ones run
to 8-16.  An explicit nmax replaces the specialized depth and clamps the
symbolic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
from .heaps import heap_to_motzkin, motzkin_to_heap, pyramid_summit, settle
from .numeric import catalan_integral, jacobi_eigen_positivity
from .paths import enumerate_paths, path_word
from .poly import MultiPoly, UniPoly


@dataclass(frozen=True)
class VerifyResult:
    name: str
    ok: bool
    lines: tuple[str, ...]


def catalan_number(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def _clamp(default: int, nmax: int | None) -> int:
    return default if nmax is None else min(default, nmax)


def _pick(default: int, nmax: int | None) -> int:
    return default if nmax is None else nmax


_SPECIALIZED = (CoeffSpec.catalan(), CoeffSpec.fibonacci())


def _verify_t32(nmax: int | None) -> VerifyResult:
    """Hankel determinant ratios d_n/d_{n-1} and the c_n difference formula,
    plus the near-diagonal triangle entry h[n+1][n]."""
    lines: list[str] = []
    ok = True
    sym_n = _clamp(4, nmax)
    spec_n = _clamp(6, nmax)
    for spec, top in ((CoeffSpec.symbolic(), sym_n),) + tuple(
        (s, spec_n) for s in _SPECIALIZED
    ):
        mu = stieltjes_moments(2 * top + 1, spec)
        d_prev = MultiPoly.one()
        chi_prev = MultiPoly.zero()
        good = True
        for n in range(top + 1):
            d_n, chi_n = hankel_dets(n, mu)
            if d_n != spec.lam_product(n) * d_prev:
                good = False
            # c_n d_n d_{n-1} == chi_n d_{n-1} - chi_{n-1} d_n
            if spec.c(n) * d_n * d_prev != chi_n * d_prev - chi_prev * d_n:
                good = False
            d_prev, chi_prev = d_n, chi_n
        ok &= good
        lines.append(f"{spec}: determinant ratios to n={top}: {'ok' if good else 'FAIL'}")
    spec = CoeffSpec.symbolic()
    near_n = _clamp(4, nmax)
    mu = stieltjes_moments(2 * near_n + 2, spec)
    good = True
    for n in range(near_n + 1):
        csum = MultiPoly.zero()
        for i in range(n + 1):
            csum = csum + spec.c(i)
        if mu.h_entry(n + 1, n) != csum * spec.lam_product(n):
            good = False
    ok &= good
    lines.append(f"symbolic: near-diagonal h[n+1][n] to n={near_n}: {'ok' if good else 'FAIL'}")
    return VerifyResult("T3.2", ok, tuple(lines))


def _verify_t33(nmax: int | None) -> VerifyResult:
    """The scaled moment triangle inverts the basis coefficient matrix."""
    lines: list[str] = []
    ok = True
    for spec, top in (
        (CoeffSpec.symbolic(), _clamp(4, nmax)),
        (CoeffSpec.catalan(), _pick(8, nmax)),
        (CoeffSpec.fibonacci(), _pick(8, nmax)),
    ):
        basis = generate_basis(top, spec)
        mu = stieltjes_moments(top, spec)
        good = basis_inverse_check(top, basis, mu)
        ok &= good
        lines.append(f"{spec}: inverse pair at n={top}: {'ok' if good else 'FAIL'}")
    return VerifyResult("T3.3", ok, tuple(lines))


def _verify_t34(nmax: int | None) -> VerifyResult:
    """Convergent equals the shifted reversed polynomial over the next one."""
    lines: list[str] = []
    ok = True
    for spec, top in (
        (CoeffSpec.symbolic(), _clamp(3, nmax)),
        (CoeffSpec.catalan(), _pick(5, nmax)),
        (CoeffSpec.fibonacci(), _pick(5, nmax)),
    ):
        good = all(convergent_qstar_identity(n, spec) for n in range(top + 1))
        ok &= good
        lines.append(f"{spec}: ratio form to depth {top}: {'ok' if good else 'FAIL'}")
    return VerifyResult("T3.4", ok, tuple(lines))


def _verify_t35(nmax: int | None) -> VerifyResult:
    """Successive convergents differ by the lambda-weighted x^(2n) kernel."""
    lines: list[str] = []
    ok = True
    for spec, top in (
        (CoeffSpec.symbolic(), _clamp(3, nmax)),
        (CoeffSpec.catalan(), _pick(5, nmax)),
        (CoeffSpec.fibonacci(), _pick(5, nmax)),
    ):
        good = all(convergent_difference(n, spec) for n in range(1, top + 1))
        ok &= good
        lines.append(f"{spec}: difference form to depth {top}: {'ok' if good else 'FAIL'}")
    return VerifyResult("T3.5", ok, tuple(lines))


def _verify_t21(nmax: int | None) -> VerifyResult:
    """Closed-path-to-heap map: pyramid/summit, projection bound, all-dimer
    image of no-flat paths, step count 2d+m, injectivity, exact inversion."""
    top = _pick(8, nmax)
    lines: list[str] = []
    ok = True
    total = 0
    images = set()
    for length in range(1, top + 1):
        for path in enumerate_paths(0, 0, length):
            total += 1
            word = path_word(path)
            image = motzkin_to_heap(word)
            heap = settle(image)
            summit = pyramid_summit(heap)
            if summit is None or str(summit) not in ("m0", "d1"):
                ok = False
            top_level = path.max_level
            if any(col > top_level or col < 0 for col in heap.columns()):
                ok = False
            if path.is_dyck:
                if any(pp.piece.kind != "d" for pp in heap.placed) or str(summit) != "d1":
                    ok = False
            dimers = sum(1 for pp in heap.placed if pp.piece.kind == "d")
            monomers = heap.size - dimers
            if 2 * dimers + monomers != path.length:
                ok = False
            key = heap.placed
            if key in images:
                ok = False
            images.add(key)
            if heap_to_motzkin(heap) != path:
                ok = False
    lines.append(
        f"{total} closed paths of length <= {top}: properties, injectivity and "
        f"inversion: {'ok' if ok else 'FAIL'}"
    )
    return VerifyResult("T2.1", ok, tuple(lines))


def _verify_p51(nmax: int | None) -> VerifyResult:
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
            if k % 2 == 1:
                direct = -direct
            if coeff != direct:
                ok = False
    lines = (f"x^n expansions reconstruct for n <= {top}: {'ok' if ok else 'FAIL'}",)
    return VerifyResult("P5.1", ok, lines)


def _verify_p52(nmax: int | None) -> VerifyResult:
    """Exact leading minors versus floating eigenvalue signs, and the
    nonsingularity of the signed-moment matrices."""
    top = _pick(6, nmax)
    lines: list[str] = []
    ok = True
    cat_mu = stieltjes_moments(2 * top, CoeffSpec.catalan())
    good = True
    for n in range(top + 1):
        matrix = HankelMatrix.plain(n, cat_mu)
        verdict = hankel_positivity(matrix)
        if not verdict.positive_definite or any(m != 1 for m in verdict.minors):
            good = False
        if jacobi_eigen_positivity(matrix) is not verdict.positive_definite:
            good = False
    ok &= good
    lines.append(f"catalan: minors all 1 and eigenvalues agree to n={top}: {'ok' if good else 'FAIL'}")
    fib_mu = stieltjes_moments(2 * top, CoeffSpec.fibonacci())
    good = True
    for n in range(top + 1):
        matrix = HankelMatrix.plain(n, fib_mu)
        verdict = hankel_positivity(matrix)
        if not verdict.nonsingular:
            good = False
        if jacobi_eigen_positivity(matrix) is not verdict.positive_definite:
            good = False
    ok &= good
    lines.append(f"fibonacci: nonsingular with agreeing eigen-verdict to n={top}: {'ok' if good else 'FAIL'}")
    return VerifyResult("P5.2", ok, tuple(lines))


def _verify_i4(nmax: int | None) -> VerifyResult:
    """Signed-Catalan moment values, both exactly and through the integral."""
    top = _pick(16, nmax)
    mu = stieltjes_moments(top, CoeffSpec.fibonacci())
    ok = True
    for n in range(top + 1):
        if n % 2 == 0:
            m = n // 2
            expected = MultiPoly.const(Fraction((-1) ** m * catalan_number(m)))
        else:
            expected = MultiPoly.zero()
        if mu.mu[n] != expected:
            ok = False
    lines = [f"moment values to n={top}: {'ok' if ok else 'FAIL'}"]
    good = True
    for m in range(7):
        result = catalan_integral(m)
        if abs(result.value - catalan_number(m)) > 1e-8:
            good = False
    ok &= good
    lines.append(f"integral form within 1e-8 for m <= 6: {'ok' if good else 'FAIL'}")
    return VerifyResult("I4", ok, tuple(lines))


def _verify_i5(nmax: int | None) -> VerifyResult:
    """Signed Hankel determinants and the bordered-determinant formula."""
    top = _pick(6, nmax)
    spec = CoeffSpec.fibonacci()
    mu = stieltjes_moments(2 * top + 1, spec)
    basis = generate_basis(top, spec)
    dets = [HankelMatrix.plain(n, mu).det() for n in range(top + 1)]
    ok = True
    for n, d_n in enumerate(dets):
        if d_n != MultiPoly.const(Fraction((-1) ** ((n + 1) // 2))):
            ok = False
    lines = [f"determinants (-1)^ceil(n/2) to n={top}: {'ok' if ok else 'FAIL'}"]
    good = True
    for n in range(top + 1):
        if qn_via_determinant(n, mu) != basis.poly(n):
            good = False
        if n >= 1 and dets[n - 1] != MultiPoly.const(Fraction((-1) ** (n // 2))):
            good = False
    ok &= good
    lines.append(f"bordered determinant rebuilds P_n to n={top}: {'ok' if good else 'FAIL'}")
    return VerifyResult("I5", ok, tuple(lines))


def _verify_i6(nmax: int | None) -> VerifyResult:
    """The all-minus-one continued fraction expands to alternating Catalans."""
    order = _pick(16, nmax)
    series = j_series(order, CoeffSpec.fibonacci())
    ok = True
    for n in range(order + 1):
        if n % 2 == 0:
            expected = MultiPoly.const(Fraction((-1) ** (n // 2) * catalan_number(n // 2)))
        else:
            expected = MultiPoly.zero()
        if series.coefficient(n) != expected:
            ok = False
    lines = (f"series coefficients to x^{order}: {'ok' if ok else 'FAIL'}",)
    return VerifyResult("I6", ok, lines)


def _verify_e517(nmax: int | None) -> VerifyResult:
    """Shifted-row determinants vanish for the signed-moment sequence."""
    top = _pick(5, nmax)
    mu = stieltjes_moments(2 * top + 1, CoeffSpec.fibonacci())
    ok = True
    for n in range(top + 1):
        _, chi = hankel_dets(n, mu)
        if not chi.is_zero:
            ok = False
    lines = (f"shifted determinants vanish to n={top}: {'ok' if ok else 'FAIL'}",)
    return VerifyResult("E5.17", ok, lines)


_E520_EXPECTED = {
    7: {1: -14, 3: 14, 5: -6, 7: 1},
    8: {0: 14, 2: -28, 4: 20, 6: -7, 8: 1},
}


def _verify_e520(nmax: int | None) -> VerifyResult:
    """The two recorded monomial expansions, coefficient by coefficient."""
    spec = CoeffSpec.fibonacci()
    basis = generate_basis(8, spec)
    mu = stieltjes_moments(16, spec)
    ok = True
    lines: list[str] = []
    for power, expected in _E520_EXPECTED.items():
        coeffs = expand_in_basis(UniPoly.monomial(power), basis, mu)
        got = {
            k: c.constant_value() for k, c in enumerate(coeffs) if not c.is_zero
        }
        good = got == {k: Fraction(v) for k, v in expected.items()}
        ok &= good
        lines.append(f"x^{power} expansion: {'ok' if good else 'FAIL'}")
    return VerifyResult("E5.20", ok, tuple(lines))


_VERIFIERS: dict[str, Callable[[int | None], VerifyResult]] = {
    "T3.2": _verify_t32,
    "T3.3": _verify_t33,
    "T3.4": _verify_t34,
    "T3.5": _verify_t35,
    "T2.1": _verify_t21,
    "P5.1": _verify_p51,
    "P5.2": _verify_p52,
    "I4": _verify_i4,
    "I5": _verify_i5,
    "I6": _verify_i6,
    "E5.17": _verify_e517,
    "E5.20": _verify_e520,
}

VERIFIER_NAMES = tuple(_VERIFIERS)


def run_verifier(name: str, nmax: int | None = None) -> VerifyResult:
    try:
        fn = _VERIFIERS[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}") from None
    return fn(nmax)


def run_verifiers(names: list[str], nmax: int | None = None) -> list[VerifyResult]:
    """Run several checks in the order requested."""
    return [run_verifier(name, nmax) for name in names]
