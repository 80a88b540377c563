"""Path enumeration, words, weights, and the path/triangle agreement."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heaporth.basis import CoeffSpec, stieltjes_moments
from heaporth.paths import (
    EnumerationCapError,
    Letter,
    MotzkinPath,
    PathWord,
    Step,
    enumerate_paths,
    h_tilde,
    moments_by_paths,
    path_from_word,
    path_weight,
    path_word,
)
from heaporth.poly import MultiPoly

from oracles import catalan_number, dyck_spec, h_tilde_products

SYM = CoeffSpec.symbolic()
CAT = CoeffSpec.catalan()
FIB = CoeffSpec.fibonacci()

l1, l2, l3 = (MultiPoly.lam(i) for i in (1, 2, 3))

MOTZKIN = (1, 1, 2, 4, 9, 21, 51)

# the worked 18-step example: starts at level 5, ends at level 2
FIGURE_STEPS = "E,SE,SE,E,NE,E,SE,E,E,NE,SE,SE,SE,NE,E,NE,SE,E"
FIGURE_WORD = "c5 b5 b4 c3 a3 c4 b4 c3 c3 a3 b4 b3 b2 a1 c2 a2 b3 c2"


class TestEnumeration:
    def test_empty_path(self):
        paths = enumerate_paths(0, 0, 0)
        assert paths == [MotzkinPath(0, ())]

    def test_unreachable_endpoint(self):
        assert enumerate_paths(0, 2, 1) == []

    def test_motzkin_counts(self):
        for n, count in enumerate(MOTZKIN):
            assert len(enumerate_paths(0, 0, n)) == count

    def test_lexicographic_order(self):
        paths = enumerate_paths(0, 0, 2)
        assert [p.steps for p in paths] == [
            (Step.NE, Step.SE),
            (Step.E, Step.E),
        ]

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_paths(0, 0, 19)

    def test_catalan_counts_from_dyck_paths(self):
        for n in range(9):
            value = moments_by_paths(n, CAT)
            if n % 2:
                assert value.is_zero
            else:
                assert value == MultiPoly.const(catalan_number(n // 2))


class TestWords:
    def test_single_flat_step(self):
        assert path_word(MotzkinPath(0, (Step.E,))).to_text() == "c0"

    def test_up_down(self):
        assert path_word(MotzkinPath(0, (Step.NE, Step.SE))).to_text() == "a0 b1"

    def test_figure_word(self):
        path = MotzkinPath.parse(FIGURE_STEPS + "@5")
        assert path.end_level == 2
        assert path_word(path).to_text() == FIGURE_WORD

    def test_word_path_roundtrip(self):
        for path in enumerate_paths(0, 0, 5):
            assert path_from_word(path_word(path)) == path

    def test_word_chain_validation(self):
        with pytest.raises(ValueError):
            PathWord((Letter("a", 0), Letter("c", 2)))
        with pytest.raises(ValueError):
            Letter("b", 0)

    def test_path_text_roundtrip(self):
        path = MotzkinPath.parse("NE,E,SE@1")
        assert path.to_text() == "NE,E,SE@1"
        assert MotzkinPath.parse(path.to_text()) == path

    def test_below_ground_rejected(self):
        with pytest.raises(ValueError):
            MotzkinPath(0, (Step.SE,))


class TestWeights:
    def test_updown_weight(self):
        assert path_weight(PathWord.parse("a0 b1"), SYM) == l1

    def test_height_two_excursion(self):
        assert path_weight(PathWord.parse("a0 a1 b2 b1"), SYM) == l1 * l2

    def test_flat_flat(self):
        assert path_weight(PathWord.parse("c0 c0"), SYM) == MultiPoly.c(0) ** 2

    def test_fibonacci_weight(self):
        assert path_weight(PathWord.parse("a0 b1"), FIB) == MultiPoly.const(-1)


class TestHTilde:
    def test_base_case(self):
        assert h_tilde(0, 0, SYM) == MultiPoly.one()

    def test_two_paths_to_height_one(self):
        # without flat steps: NE,NE,SE and NE,SE,NE
        assert h_tilde(3, 1, dyck_spec()) == l1 * l2 + l1**2

    def test_staircase(self):
        assert h_tilde(2, 2, SYM) == l1 * l2

    def test_recursion(self):
        spec = SYM
        for n in range(1, 9):
            for k in range(n + 1):
                expected = MultiPoly.zero()
                if k >= 1:
                    expected = expected + spec.lam(k) * h_tilde(n - 1, k - 1, spec)
                expected = expected + spec.c(k) * h_tilde(n - 1, k, spec)
                expected = expected + h_tilde(n - 1, k + 1, spec)
                assert h_tilde(n, k, spec) == expected

    def test_agrees_with_triangle(self):
        mu = stieltjes_moments(8, SYM)
        for n in range(9):
            for k in range(n + 1):
                assert h_tilde(n, k, SYM) == mu.h_entry(n, k)

    def test_agrees_with_object_pipeline(self):
        # the fused walk and the path/word/weight composition must match
        from heaporth.paths import enumerate_paths as enum

        for n in range(8):
            for k in range(n + 1):
                by_objects = MultiPoly.sum(
                    path_weight(path_word(p), SYM) for p in enum(0, k, n)
                )
                assert h_tilde(n, k, SYM) == by_objects


class TestMomentsByPaths:
    def test_matches_stieltjes_symbolic(self):
        mu = stieltjes_moments(10, SYM)
        for n in range(11):
            assert moments_by_paths(n, SYM) == mu.mu[n]

    def test_matches_stieltjes_specialized(self):
        for spec in (CAT, FIB):
            mu = stieltjes_moments(16, spec)
            for n in range(17):
                assert moments_by_paths(n, spec) == mu.mu[n]

    def test_mu6_no_flat_steps(self):
        # the five excursions of length six, collected commutatively
        expected = l1 * l2 * l3 + l1 * l2**2 + 2 * l1**2 * l2 + l1**3
        assert moments_by_paths(6, dyck_spec()) == expected

    def test_odd_moments_vanish_without_flat_steps(self):
        for n in (1, 3, 5, 7):
            assert moments_by_paths(n, dyck_spec()).is_zero


# Custom specs long enough for the product walk, which reads one letter
# ahead: c_0..c_9 and lambda_1..lambda_10 cover every n <= 10.
SPEC_LEN = 10

_small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)

_VARS = (MultiPoly.c(0), MultiPoly.c(1), l1, l2)

# Sums of up to three terms q * (product of up to two variables); some
# cancel to zero, which exercises the prune as well.
_multi_term = st.lists(
    st.tuples(_small_rationals, st.lists(st.sampled_from(_VARS), max_size=2)),
    min_size=1,
    max_size=3,
).map(lambda terms: MultiPoly.sum(q * prod(vs, start=MultiPoly.one()) for q, vs in terms))


def _custom_specs(entries):
    return st.builds(
        CoeffSpec.custom,
        st.lists(entries, min_size=SPEC_LEN, max_size=SPEC_LEN),
        st.lists(entries, min_size=SPEC_LEN, max_size=SPEC_LEN),
    )


class TestAgainstProductWalk:
    """The counted letter keys against the former walk of prefix products."""

    @staticmethod
    def _agree(n, spec):
        for k in range(n + 1):
            assert h_tilde(n, k, spec) == h_tilde_products(n, k, spec), (n, k)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), _custom_specs(_small_rationals))
    def test_small_rationals_with_zeros(self, n, spec):
        self._agree(n, spec)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10), _custom_specs(_multi_term))
    def test_multi_term_entries(self, n, spec):
        self._agree(n, spec)

    @pytest.mark.parametrize("n", range(11))
    def test_shifted_symbolic(self, n):
        self._agree(n, SYM.shifted())

    def test_one_visit_per_path(self):
        # with every weight 1 a path sum counts paths: the Motzkin numbers
        ones = CoeffSpec.custom([1] * 14, [1] * 14)
        for n in range(15):
            assert moments_by_paths(n, ones) == MultiPoly.const(
                len(enumerate_paths(0, 0, n))
            )
        for n in range(9):
            for k in range(n + 1):
                assert h_tilde(n, k, ones) == MultiPoly.const(len(enumerate_paths(0, k, n)))

    def test_reads_no_letter_past_reach(self):
        # The paths from 0 back to 0 in n steps climb to n // 2 at most, so
        # they use c_0..c_{(n-1)//2} and lambda_1..lambda_{n//2}.  The
        # product walk asked for one letter more and raised.
        c = [Fraction(i + 2, 3) for i in range(SPEC_LEN)]
        lam = [Fraction(-1) ** i * (i + 1) for i in range(SPEC_LEN)]
        padded = CoeffSpec.custom(c + [0] * 20, lam + [0] * 20)
        for n in range(1, 11):
            short = CoeffSpec.custom(c[: (n + 1) // 2], lam[: n // 2])
            with pytest.raises(IndexError, match="custom spec has no"):
                h_tilde_products(n, 0, short)
            expected = stieltjes_moments(n, padded).h_entry(n, 0)
            assert h_tilde(n, 0, short) == expected
            assert moments_by_paths(n, short) == expected
