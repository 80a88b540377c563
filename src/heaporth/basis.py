"""Three-term recursion engine, moment triangle, and Hankel machinery.

The monic basis Q_0, Q_1, ... is generated by

    Q_{n+1} = (x - c_n) Q_n - lambda_n Q_{n-1},    Q_{-1} = 0,  Q_0 = 1.

A CoeffSpec supplies the two coefficient sequences.  The symbolic spec hands
back the indeterminates c_i and l_i themselves, so everything downstream is
a polynomial identity; the Catalan spec sets c_i = 0, lambda_i = 1, the
Fibonacci spec sets c_i = 0, lambda_i = -1, and a custom spec takes finite
lists of rationals.

Moments are computed by the Stieltjes triangle

    h[n][k] = lambda_k h[n-1][k-1] + c_k h[n-1][k] + h[n-1][k+1],
    h[0][0] = 1,   h[n][k] = 0 for k > n,

with mu_n = h[n][0].  An entry reads at most one column to its right in
the row above, so mu_N = h[N][0] depends only on the wedge k <= N - n:
``stieltjes_moments(N)`` fills row n only for k <= min(n, N - n) and keeps
one row at a time.  The wedge reads c_k for k <= ceil(N/2) - 1 and
lambda_k for k <= floor(N/2), which is why c_0..c_m and lambda_1..lambda_m
determine mu_0..mu_{2m+1}.  ``MomentSeq.h_entry`` answers for the whole
triangle: the first time it is asked for row n it fills full rows 0..n
with the same row step and caches them.

The scalar product of two polynomials is the moment functional applied to
their product: <A, B> = sum a_i b_j mu_{i+j}.

Determinants of moment matrices are evaluated by fraction-free Bareiss
elimination over the polynomial ring.  Q_n itself is the bordered
determinant (the n x (n+1) moment block [mu_{i+j}] over a last row
1, x, ..., x**n) divided by d_{n-1}.  Its coefficient of x**j is the cofactor
of that last-row entry, so by Cramer's rule the coefficients are the
solution of one linear system, which a single fraction-free Gauss-Jordan
pass over the moment block produces; see ``qn_via_determinant``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .poly import MultiPoly, UniPoly, as_multipoly


class InsufficientMomentsError(ValueError):
    """A scalar product or determinant needs moments beyond those computed."""


class DegenerateSpecError(ArithmeticError):
    """A self-product or lambda-product vanished under a custom spec."""


class SingularHankelError(ArithmeticError):
    """The Hankel determinant in a denominator position is zero."""


class SymbolicMatrixError(TypeError):
    """A numeric-only operation received symbolic matrix entries."""


_MINUS_ONE = MultiPoly.const(-1)


@dataclass(frozen=True)
class CoeffSpec:
    """Coefficient sequences c_0, c_1, ... and lambda_1, lambda_2, ...

    ``offset`` views the sequences shifted left: a spec with offset d hands
    out c_{i+d} and lambda_{i+d}, which is how the index-shift operator acts
    on a whole basis.
    """

    name: str
    custom_c: tuple[MultiPoly, ...] | None = None
    custom_lam: tuple[MultiPoly, ...] | None = None
    offset: int = 0

    @classmethod
    def symbolic(cls) -> "CoeffSpec":
        return cls("symbolic")

    @classmethod
    def catalan(cls) -> "CoeffSpec":
        return cls("catalan")

    @classmethod
    def fibonacci(cls) -> "CoeffSpec":
        return cls("fibonacci")

    @classmethod
    def custom(cls, c: Sequence[object], lam: Sequence[object]) -> "CoeffSpec":
        """Finite coefficient lists; c starts at index 0, lam at index 1."""
        return cls(
            "custom",
            custom_c=tuple(as_multipoly(v) for v in c),
            custom_lam=tuple(as_multipoly(v) for v in lam),
        )

    def c(self, i: int) -> MultiPoly:
        if i < 0:
            raise IndexError("c index must be >= 0")
        j = i + self.offset
        if self.name == "symbolic":
            return MultiPoly.c(j)
        if self.name in ("catalan", "fibonacci"):
            return MultiPoly.zero()
        assert self.custom_c is not None
        if j >= len(self.custom_c):
            raise IndexError(f"custom spec has no c_{j}")
        return self.custom_c[j]

    def lam(self, i: int) -> MultiPoly:
        if i < 1:
            raise IndexError("lambda index must be >= 1")
        j = i + self.offset
        if self.name == "symbolic":
            return MultiPoly.lam(j)
        if self.name == "catalan":
            return MultiPoly.one()
        if self.name == "fibonacci":
            return _MINUS_ONE
        assert self.custom_lam is not None
        if j - 1 >= len(self.custom_lam):
            raise IndexError(f"custom spec has no lambda_{j}")
        return self.custom_lam[j - 1]

    def shifted(self) -> "CoeffSpec":
        """The spec seen through the index shift c_i -> c_{i+1}, l_i -> l_{i+1}."""
        return CoeffSpec(self.name, self.custom_c, self.custom_lam, self.offset + 1)

    def lam_product(self, n: int) -> MultiPoly:
        """lambda_1 * ... * lambda_n (1 when n = 0)."""
        out = MultiPoly.one()
        for i in range(1, n + 1):
            out = out * self.lam(i)
        return out

    @property
    def basis_symbol(self) -> str:
        return "P" if self.name == "fibonacci" else "Q"

    def __str__(self) -> str:
        tag = self.name
        if self.offset:
            tag += f"(shift {self.offset})"
        return tag


@dataclass(frozen=True)
class OrthoBasis:
    """The monic polynomials Q_0..Q_N for one spec, plus their coefficients."""

    spec: CoeffSpec
    polys: tuple[UniPoly, ...]

    @property
    def n_max(self) -> int:
        return len(self.polys) - 1

    def poly(self, n: int) -> UniPoly:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"basis generated only up to degree {self.n_max}")
        return self.polys[n]

    def coeff(self, n: int, k: int) -> MultiPoly:
        """Coefficient of x**k in Q_n."""
        return self.poly(n).coeff(k)


def generate_basis(n_max: int, spec: CoeffSpec) -> OrthoBasis:
    """Run the three-term recursion up to degree n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = UniPoly.monomial(1)
    prev = UniPoly.zero()
    cur = UniPoly.one()
    polys = [cur]
    for n in range(n_max):
        nxt = (x - spec.c(n)) * cur
        if n >= 1:
            nxt = nxt - spec.lam(n) * prev
        prev, cur = cur, nxt
        polys.append(cur)
    return OrthoBasis(spec, tuple(polys))


@dataclass(frozen=True)
class MomentSeq:
    """Moments mu_0..mu_M, with the Stieltjes triangle filled on demand.

    ``rows`` caches the full triangle rows 0, 1, ... that ``h_entry`` has
    filled so far; it is not part of the value, so equality and hashing
    look at ``spec`` and ``mu`` alone.
    """

    spec: CoeffSpec
    mu: tuple[MultiPoly, ...]
    rows: list[tuple[MultiPoly, ...]] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rows = list(self.rows) or [(MultiPoly.one(),)]
        object.__setattr__(self, "rows", rows)

    @property
    def n_max(self) -> int:
        return len(self.mu) - 1

    def moment(self, n: int) -> MultiPoly:
        if n < 0:
            raise IndexError("moment index must be >= 0")
        if n > self.n_max:
            raise InsufficientMomentsError(
                f"moments computed only up to index {self.n_max}, need {n}"
            )
        return self.mu[n]

    def h_entry(self, n: int, k: int) -> MultiPoly:
        """Triangle entry h[n][k]; zero for k > n.

        The first call for row n fills and caches every full row up to n.
        """
        if n < 0 or k < 0:
            raise IndexError("triangle indices must be >= 0")
        if n > self.n_max:
            raise InsufficientMomentsError(
                f"triangle computed only up to row {self.n_max}"
            )
        if k > n:
            return MultiPoly.zero()
        rows = self.rows
        while len(rows) <= n:
            rows.append(_triangle_row(rows[-1], len(rows), self.spec))
        return rows[n][k]


def _triangle_row(
    prev: tuple[MultiPoly, ...], width: int, spec: CoeffSpec
) -> tuple[MultiPoly, ...]:
    """Entries h[n][0..width] from row n - 1, given as prev; width <= len(prev).

    Entries past the end of prev count as zero.  For a full row (width n,
    prev of length n) that is the triangle's own boundary; for a wedge row
    of ``stieltjes_moments`` every entry it reads lies inside prev.
    """
    last = len(prev) - 1
    row: list[MultiPoly] = []
    for k in range(width + 1):
        parts = []
        if k >= 1:
            parts.append(spec.lam(k) * prev[k - 1])
        if k <= last:
            parts.append(spec.c(k) * prev[k])
        if k + 1 <= last:
            parts.append(prev[k + 1])
        row.append(MultiPoly.sum(parts))
    return tuple(row)


def stieltjes_moments(n_max: int, spec: CoeffSpec) -> MomentSeq:
    """mu_0..mu_{n_max} from the wedge of the triangle that mu_{n_max} needs.

    Row n is filled only for k <= min(n, n_max - n), and only the previous
    row is kept.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    row: tuple[MultiPoly, ...] = (MultiPoly.one(),)
    mu = [row[0]]
    for n in range(1, n_max + 1):
        row = _triangle_row(row, min(n, n_max - n), spec)
        mu.append(row[0])
    return MomentSeq(spec, tuple(mu))


def scalar_product(a: UniPoly, b: UniPoly, mu: MomentSeq) -> MultiPoly:
    """Moment functional on the product: sum_ij a_i b_j mu_{i+j}."""
    if a.is_zero or b.is_zero:
        return MultiPoly.zero()
    need = a.degree + b.degree
    if need > mu.n_max:
        raise InsufficientMomentsError(
            f"need moments up to {need}, have {mu.n_max}"
        )
    return MultiPoly.sum(
        ai * bj * mu.mu[i + j]
        for i, ai in enumerate(a.coeffs)
        if not ai.is_zero
        for j, bj in enumerate(b.coeffs)
        if not bj.is_zero
    )


def recursion_coeffs(
    basis: OrthoBasis, mu: MomentSeq, n_max: int | None = None
) -> tuple[list[MultiPoly], list[MultiPoly]]:
    """Recover (lambda_1..lambda_K, c_0..c_K) from scalar products.

    lambda_n = <Q_{n-1}, x Q_n> / <Q_{n-1}, Q_{n-1}> and
    c_n = <Q_n, x Q_n> / <Q_n, Q_n>; the returned lists are indexed so that
    lams[n-1] is lambda_n and cs[n] is c_n.
    """
    limit = min(basis.n_max - 1, (mu.n_max - 1) // 2)
    if n_max is not None:
        limit = min(limit, n_max)
    if limit < 0:
        raise ValueError("inputs too short to recover any coefficient")
    x = UniPoly.monomial(1)
    lams: list[MultiPoly] = []
    cs: list[MultiPoly] = []
    for n in range(limit + 1):
        qn = basis.poly(n)
        self_prod = scalar_product(qn, qn, mu)
        if self_prod.is_zero:
            raise DegenerateSpecError(f"<Q_{n}, Q_{n}> = 0")
        cs.append(scalar_product(qn, x * qn, mu).exact_div(self_prod))
        if n >= 1:
            qprev = basis.poly(n - 1)
            prev_prod = scalar_product(qprev, qprev, mu)
            if prev_prod.is_zero:
                raise DegenerateSpecError(f"<Q_{n-1}, Q_{n-1}> = 0")
            lams.append(scalar_product(qprev, x * qn, mu).exact_div(prev_prod))
    return lams, cs


# ---------------------------------------------------------------------------
# determinants


def det_bareiss(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant; every division along the way is exact."""
    n = len(rows)
    if n == 0:
        return MultiPoly.one()
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    m = [list(row) for row in rows]
    sign = 1
    prev = MultiPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


@dataclass(frozen=True)
class HankelMatrix:
    """Moment matrix ||mu_{i+j}||, optionally with the last row shifted up by one."""

    mu: MomentSeq
    n: int
    variant: str  # "plain" | "shifted"

    def __post_init__(self) -> None:
        if self.variant not in ("plain", "shifted"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 0:
            raise ValueError("matrix index must be >= 0")
        need = 2 * self.n + (1 if self.variant == "shifted" else 0)
        if need > self.mu.n_max:
            raise InsufficientMomentsError(
                f"need moments up to {need}, have {self.mu.n_max}"
            )

    @classmethod
    def plain(cls, n: int, mu: MomentSeq) -> "HankelMatrix":
        return cls(mu, n, "plain")

    @classmethod
    def shifted(cls, n: int, mu: MomentSeq) -> "HankelMatrix":
        return cls(mu, n, "shifted")

    @property
    def size(self) -> int:
        return self.n + 1

    def rows(self) -> list[list[MultiPoly]]:
        out = [
            [self.mu.mu[i + j] for j in range(self.n + 1)]
            for i in range(self.n + 1)
        ]
        if self.variant == "shifted":
            out[self.n] = [self.mu.mu[self.n + 1 + j] for j in range(self.n + 1)]
        return out

    def det(self) -> MultiPoly:
        return det_bareiss(self.rows())

    def to_latex(self) -> str:
        body = " \\\\\n".join(
            " & ".join(entry.to_latex() for entry in row) for row in self.rows()
        )
        return f"\\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}"


def hankel_dets(n: int, mu: MomentSeq) -> tuple[MultiPoly, MultiPoly]:
    """The plain determinant d_n and its last-row-shifted companion chi_n."""
    return (
        HankelMatrix.plain(n, mu).det(),
        HankelMatrix.shifted(n, mu).det(),
    )


def qn_via_determinant(n: int, mu: MomentSeq) -> UniPoly:
    """Q_n from the bordered moment matrix whose last row is 1, x, ..., x**n.

    Expanding the bordered determinant along its last row gives Q_n =
    sum_j C_j x**j / d_{n-1}, where C_j is the cofactor of x**j: up to sign,
    the minor of the n x (n+1) block M = [mu_{i+j}] with column j deleted.
    Cramer's rule reads the same minors off the system A y = b, where A is
    the first n columns of M (det A = d_{n-1}) and b is its last column:
    y_j = -C_j / d_{n-1}.

    One fraction-free Gauss-Jordan pass over M computes them together.  At
    step k every row i != k gets m_ij = (m_kk m_ij - m_ik m_kj) / p for
    j > k, with p the previous pivot (1 at the start).  This leaves
    [D I | v] with D = +-d_{n-1} the last pivot and v_j / D = y_j, so Q_n
    has coefficients -v_j / D and leading 1; columns up to k are never read
    again, so they are not rewritten.

    Every intermediate entry is, up to sign, a minor of M (Sylvester's
    identity), so each division is exact in the polynomial ring.  Row swaps
    permute the equations without changing y, and D and v change sign
    together, so no sign is tracked.  A column with no nonzero pivot left
    means d_{n-1} = 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return UniPoly.one()
    if 2 * n - 1 > mu.n_max:
        raise InsufficientMomentsError(
            f"need moments up to {2 * n - 1}, have {mu.n_max}"
        )
    m = [[mu.mu[i + j] for j in range(n + 1)] for i in range(n)]
    prev = MultiPoly.one()
    for k in range(n):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                raise SingularHankelError(
                    f"leading Hankel determinant d_{n-1} vanishes"
                )
        pivot, pivot_row = m[k][k], m[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            factor = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (pivot * row[j] - factor * pivot_row[j]).exact_div(prev)
        prev = pivot
    return UniPoly([(-m[i][n]).exact_div(prev) for i in range(n)] + [1])


def basis_inverse_check(n: int, basis: OrthoBasis, mu: MomentSeq) -> bool:
    """True iff ||h[n][k]/(lambda_1...lambda_k)|| inverts the coefficient matrix."""
    spec = basis.spec
    size = n + 1
    lam_prods: list[MultiPoly] = []
    for k in range(size):
        p = spec.lam_product(k)
        if p.is_zero:
            raise DegenerateSpecError(f"lambda product through {k} vanishes")
        lam_prods.append(p)
    h_mat = [
        [
            mu.h_entry(i, k).exact_div(lam_prods[k]) if k <= i else MultiPoly.zero()
            for k in range(size)
        ]
        for i in range(size)
    ]
    a_mat = [[basis.coeff(k, s) for s in range(size)] for k in range(size)]
    for i in range(size):
        for s in range(size):
            acc = MultiPoly.sum(h_mat[i][k] * a_mat[k][s] for k in range(size))
            expected = MultiPoly.one() if i == s else MultiPoly.zero()
            if acc != expected:
                return False
    return True


def expand_in_basis(
    p: UniPoly, basis: OrthoBasis, mu: MomentSeq
) -> list[MultiPoly]:
    """Coefficients of p in the orthogonal basis: <p, Q_k> / <Q_k, Q_k>.

    The reconstruction sum coeff_k * Q_k is re-checked before returning.
    """
    d = p.degree
    if d > basis.n_max:
        raise IndexError(f"basis generated only up to degree {basis.n_max}")
    coeffs: list[MultiPoly] = []
    for k in range(d + 1):
        qk = basis.poly(k)
        den = scalar_product(qk, qk, mu)
        if den.is_zero:
            raise DegenerateSpecError(f"<Q_{k}, Q_{k}> = 0")
        coeffs.append(scalar_product(p, qk, mu).exact_div(den))
    rebuilt = UniPoly.zero()
    for k, coeff in enumerate(coeffs):
        rebuilt = rebuilt + coeff * basis.poly(k)
    if rebuilt != p:
        raise ArithmeticError("basis expansion failed to reconstruct its input")
    return coeffs


@dataclass(frozen=True)
class PositivityVerdict:
    """Exact Sylvester-criterion report for a rational Hankel matrix."""

    minors: tuple[Fraction, ...]
    positive_definite: bool
    nonsingular: bool


def hankel_positivity(matrix: HankelMatrix) -> PositivityVerdict:
    """All leading principal minors, computed exactly.

    Positive-definite iff every minor is > 0; nonsingular iff the full
    determinant is nonzero.  Entries must be rational constants.
    """
    if matrix.variant != "plain":
        raise ValueError("positivity applies to the symmetric plain variant")
    rows = matrix.rows()
    for row in rows:
        for entry in row:
            if not entry.is_constant:
                raise SymbolicMatrixError(
                    "positivity needs numeric moments; got symbolic entries"
                )
    minors: list[Fraction] = []
    for k in range(matrix.size):
        sub = [row[: k + 1] for row in rows[: k + 1]]
        minors.append(det_bareiss(sub).constant_value())
    return PositivityVerdict(
        minors=tuple(minors),
        positive_definite=all(m > 0 for m in minors),
        nonsingular=minors[-1] != 0,
    )
