"""Independent oracles shared by the tests.

Nothing here reuses the library's fast paths: the swap closure explores raw
words by breadth-first search, the moment functional applies a moment list
to an explicitly expanded product, the tuple monomials below are the
library's former monomial representation, kept to check the packed one,
the pairwise heap routines are the library's former settling, summit
and path reconstruction, kept to check the per-column ones,
``settle_placed`` is the library's former per-column settling into sorted
``PlacedPiece`` tuples, kept to check the flat integer heap keys, the
cofactor expansion is the library's former bordered-determinant route to
Q_n, kept to check the Gauss-Jordan one, and the full Stieltjes triangle
is the library's former moment route, which filled and kept every row,
kept to check the wedge and the lazily filled rows.  ``h_tilde_products``
is the library's former path sum, which multiplied a running prefix weight
at every step, kept to check the counted letter keys.
Each exists so the corresponding library operation can be checked against
something that cannot share its bugs.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Sequence

from heaporth.basis import (
    CoeffSpec,
    HankelMatrix,
    InsufficientMomentsError,
    MomentSeq,
    SingularHankelError,
    det_bareiss,
)
from heaporth.heaps import Heap, NotInImageError, Piece, PlacedPiece
from heaporth.paths import MotzkinPath, Step
from heaporth.poly import Indeterminate, MultiPoly, UniPoly

# A tuple monomial: ((variable, exponent), ...) sorted by the variable order,
# with no zero exponents.
TupleMono = tuple[tuple[Indeterminate, int], ...]


def swap_closure(word: Sequence[Piece]) -> set[tuple[Piece, ...]]:
    """All words reachable by adjacent swaps of disjoint-support pieces."""
    start = tuple(word)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if not a.overlaps(b):
                nxt = cur[:i] + (b, a) + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def apply_moment_functional(
    product: UniPoly, moments: Sequence[MultiPoly]
) -> MultiPoly:
    """Linear functional x^k -> moments[k] applied to an expanded polynomial."""
    out = MultiPoly.zero()
    for k, coeff in enumerate(product.coeffs):
        out = out + coeff * moments[k]
    return out


def dyck_spec() -> CoeffSpec:
    """All c_i = 0 with the lambda_i kept symbolic (up to index 9)."""
    return CoeffSpec.custom(
        [MultiPoly.zero()] * 10, [MultiPoly.lam(i) for i in range(1, 10)]
    )


def mixed_custom_spec() -> CoeffSpec:
    """A custom spec of 24 nonzero c_i and lambda_i, both of both signs."""
    c = [Fraction((-1) ** i * (i % 5 + 1), i % 3 + 1) for i in range(24)]
    lam = [Fraction((-1) ** (i // 2) * (i % 4 + 1), i % 2 + 1) for i in range(24)]
    return CoeffSpec.custom(c, lam)


def full_stieltjes_triangle(
    n_max: int, spec: CoeffSpec
) -> tuple[tuple[MultiPoly, ...], ...]:
    """Every row h[n][0..n] of the moment triangle, n <= n_max."""
    rows: list[tuple[MultiPoly, ...]] = [(MultiPoly.one(),)]
    for n in range(1, n_max + 1):
        prev = rows[n - 1]
        row: list[MultiPoly] = []
        for k in range(n + 1):
            acc = MultiPoly.zero()
            if k >= 1 and k - 1 <= n - 1:
                acc = acc + spec.lam(k) * prev[k - 1]
            if k <= n - 1:
                acc = acc + spec.c(k) * prev[k]
            if k + 1 <= n - 1:
                acc = acc + prev[k + 1]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def h_tilde_products(n: int, k: int, spec: CoeffSpec) -> MultiPoly:
    """Weight sum over the n-step paths from 0 to k, one product per step.

    Walks the step tree with the running prefix weight and abandons a branch
    once its weight is zero.  It asks for a step's letter weight before
    checking that level k is still reachable, so on a short custom spec it
    can raise where the path sum itself needs no further entries.
    """
    parts: list[MultiPoly] = []

    def rec(level: int, remaining: int, weight: MultiPoly) -> None:
        if abs(level - k) > remaining or weight.is_zero:
            return
        if remaining == 0:
            parts.append(weight)
            return
        rec(level + 1, remaining - 1, weight * spec.lam(level + 1))
        rec(level, remaining - 1, weight * spec.c(level))
        if level > 0:
            rec(level - 1, remaining - 1, weight)

    rec(0, n, MultiPoly.one())
    return MultiPoly.sum(parts)


def catalan_number(m: int) -> int:
    import math

    return math.comb(2 * m, m) // (m + 1)


def qn_via_cofactors(n: int, mu: MomentSeq) -> UniPoly:
    """Q_n by expanding the bordered moment matrix along its last row.

    One Bareiss determinant per cofactor of the row 1, x, ..., x**n, each
    divided by the size-n plain Hankel determinant d_{n-1}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return UniPoly.one()
    if 2 * n - 1 > mu.n_max:
        raise InsufficientMomentsError(
            f"need moments up to {2 * n - 1}, have {mu.n_max}"
        )
    d_prev = HankelMatrix.plain(n - 1, mu).det()
    if d_prev.is_zero:
        raise SingularHankelError(f"leading Hankel determinant d_{n-1} vanishes")
    base = [[mu.mu[i + j] for j in range(n + 1)] for i in range(n)]
    coeffs: list[MultiPoly] = []
    for j in range(n + 1):
        minor = [
            [base[i][jj] for jj in range(n + 1) if jj != j] for i in range(n)
        ]
        cof = det_bareiss(minor)
        if (n + j) % 2 == 1:
            cof = -cof
        coeffs.append(cof.exact_div(d_prev))
    return UniPoly(coeffs)


def tuple_mono(powers: dict[Indeterminate, int]) -> TupleMono:
    return tuple(sorted(((v, e) for v, e in powers.items() if e), key=lambda p: p[0].sort_key))


def tuple_mono_mul(a: TupleMono, b: TupleMono) -> TupleMono:
    """Product by merging the two sorted variable lists."""
    out: list[tuple[Indeterminate, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        if va.sort_key == vb.sort_key:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va.sort_key < vb.sort_key:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out + list(a[i:]) + list(b[j:]))


def tuple_mono_div(a: TupleMono, b: TupleMono) -> TupleMono | None:
    """a / b, or None when b does not divide a."""
    rem = dict(a)
    for v, e in b:
        have = rem.get(v, 0)
        if have < e:
            return None
        if have == e:
            del rem[v]
        else:
            rem[v] = have - e
    return tuple_mono(rem)


def tuple_mono_cmp(a: TupleMono, b: TupleMono) -> int:
    """Graded lexicographic comparison; positive when a > b.

    Total degree first; at equal degree the earliest variable whose
    exponents differ decides, and the larger exponent wins.
    """
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i][0].sort_key < b[j][0].sort_key):
            return 1  # a owns the earliest differing variable
        if i >= len(a) or b[j][0].sort_key < a[i][0].sort_key:
            return -1
        ea, eb = a[i][1], b[j][1]
        if ea != eb:
            return 1 if ea > eb else -1
        i += 1
        j += 1
    return 0


class BijectionViolationError(AssertionError):
    """Path reconstruction found several candidates; should not happen."""


def settle_pairwise(word: Sequence[Piece]) -> Heap:
    """Each piece lands one above the highest earlier piece it overlaps."""
    placed: list[PlacedPiece] = []
    for piece in word:
        level = 0
        for earlier in placed:
            if earlier.piece.overlaps(piece):
                level = max(level, earlier.level + 1)
        placed.append(PlacedPiece(piece, level))
    return Heap.from_placed(placed)


def settle_placed(word: Sequence[Piece]) -> tuple[PlacedPiece, ...]:
    """Per-column settling into PlacedPieces, sorted by (level, leftmost column)."""
    top: dict[int, int] = {}
    placed: list[PlacedPiece] = []
    for piece in word:
        level = max(top.get(c, 0) for c in piece.support)
        for c in piece.support:
            top[c] = level + 1
        placed.append(PlacedPiece(piece, level))
    return tuple(sorted(placed, key=lambda pp: (pp.level, pp.piece.min_col)))


def pyramid_summit_pairwise(heap: Heap) -> Piece | None:
    """The only piece with no overlapping piece above it, if there is one."""
    maximal = [
        pp
        for pp in heap.placed
        if not any(
            other.level > pp.level and other.piece.overlaps(pp.piece)
            for other in heap.placed
        )
    ]
    if len(maximal) == 1:
        return maximal[0].piece
    return None


def heap_to_motzkin_backtrack(heap: Heap) -> MotzkinPath:
    """Every order of unstacking minimal pieces, searched over subsets.

    The reversed-walk height g may only be raised (each reinserted descent
    adds one), so a monomer m_i is consumable when g <= i and a dimer
    d_{i+1} when g <= i+1.  A completion must consume everything and return
    to g = 0; exactly one may exist.
    """
    summit = pyramid_summit_pairwise(heap)
    if summit is None:
        raise NotInImageError("heap is not a pyramid")
    if summit not in (Piece("m", 0), Piece("d", 1)):
        raise NotInImageError(f"summit {summit} is neither m0 nor d1")
    placed = heap.placed
    n = len(placed)
    full = (1 << n) - 1
    solutions: list[tuple[Step, ...]] = []
    letters: list[Step] = []

    def minimal(idx: int, mask: int) -> bool:
        pp = placed[idx]
        for j in range(n):
            if mask & (1 << j) or j == idx:
                continue
            other = placed[j]
            if other.level < pp.level and other.piece.overlaps(pp.piece):
                return False
        return True

    def rec(mask: int, g: int) -> None:
        if len(solutions) > 1:
            return
        if mask == full:
            if g == 0:
                solutions.append(tuple(letters))
            return
        for idx in range(n):
            if mask & (1 << idx) or not minimal(idx, mask):
                continue
            piece = placed[idx].piece
            target = piece.index  # m_i climbs to i; d_{i+1} climbs to i+1
            climb = target - g
            if climb < 0:
                continue
            letters.extend([Step.SE] * climb)
            if piece.kind == "m":
                letters.append(Step.E)
            else:
                letters.append(Step.NE)
                target -= 1  # and lands at i
            rec(mask | (1 << idx), target)
            del letters[len(letters) - climb - 1 :]

    rec(0, 0)
    if not solutions:
        raise NotInImageError("no closed path settles to this heap")
    if len(solutions) > 1:
        raise BijectionViolationError("several closed paths settle to the same heap")
    return MotzkinPath(0, tuple(reversed(solutions[0])))
