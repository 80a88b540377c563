"""Packed-int monomials against the tuple-monomial oracle, and the layout caps."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heaporth.cli import main
from heaporth.poly import (
    INDEXED_SLOTS,
    InexactDivisionError,
    MonomialOverflowError,
    MultiPoly,
    T,
    X,
    c_var,
    lam_var,
)
from oracles import tuple_mono, tuple_mono_cmp, tuple_mono_div, tuple_mono_mul

_ALL_VARS = (
    (X, T)
    + tuple(c_var(i) for i in range(INDEXED_SLOTS))
    + tuple(lam_var(i) for i in range(1, INDEXED_SLOTS + 1))
)

# exponents up to 63, so that any product of two stays within every cap
monos = st.dictionaries(st.sampled_from(_ALL_VARS), st.integers(1, 63), max_size=6)


def term(powers) -> MultiPoly:
    return MultiPoly.from_terms([(1, powers)])


def packed(powers) -> int:
    ((mono, _),) = term(powers).items()
    return mono


@given(monos, monos)
@settings(max_examples=200)
def test_int_order_is_graded_lex(a, b):
    pa, pb = packed(a), packed(b)
    assert (pa > pb) - (pa < pb) == tuple_mono_cmp(tuple_mono(a), tuple_mono(b))


@given(st.lists(monos, max_size=12))
@settings(max_examples=60)
def test_descending_int_sort_is_canonical_order(powers_list):
    by_oracle = sorted(
        {tuple_mono(p) for p in powers_list},
        key=functools.cmp_to_key(tuple_mono_cmp),
        reverse=True,
    )
    by_int = sorted({packed(p) for p in powers_list}, reverse=True)
    assert by_int == [packed(dict(m)) for m in by_oracle]


@given(monos, monos)
@settings(max_examples=200)
def test_product_is_addition(a, b):
    expected = dict(tuple_mono_mul(tuple_mono(a), tuple_mono(b)))
    assert packed(a) + packed(b) == packed(expected)
    assert term(a) * term(b) == term(expected)


@given(monos, monos)
@settings(max_examples=200)
def test_quotient_and_divisibility(a, b):
    quotient = tuple_mono_div(tuple_mono(a), tuple_mono(b))
    if quotient is None:
        with pytest.raises(InexactDivisionError):
            term(a).exact_div(term(b))
    else:
        assert packed(a) - packed(b) == packed(dict(quotient))
        assert term(a).exact_div(term(b)) == term(dict(quotient))


@given(monos, monos)
@settings(max_examples=200)
def test_quotient_of_a_product(a, b):
    prod = dict(tuple_mono_mul(tuple_mono(a), tuple_mono(b)))
    assert tuple_mono_div(tuple_mono(prod), tuple_mono(b)) == tuple_mono(a)
    assert term(prod).exact_div(term(b)) == term(a)


# -- the caps ------------------------------------------------------------------

c0, l1, x = MultiPoly.c(0), MultiPoly.lam(1), MultiPoly.x()


class TestExponentCaps:
    def test_largest_exponents_fit(self):
        assert (c0**127).total_degree() == 127
        assert (MultiPoly.lam(INDEXED_SLOTS) ** 127).total_degree() == 127
        assert (x**32767).total_degree() == 32767

    def test_power_one_past_the_cap_raises(self):
        with pytest.raises(MonomialOverflowError):
            c0**128
        with pytest.raises(MonomialOverflowError):
            x**32768

    def test_product_of_in_range_monomials_raises(self):
        with pytest.raises(MonomialOverflowError):
            c0**64 * c0**64
        with pytest.raises(MonomialOverflowError):
            (c0**100 + l1) * (c0**28 + 1)
        with pytest.raises(MonomialOverflowError):
            x**20000 * x**12768

    def test_overflow_never_wraps(self):
        # the product just below the cap keeps every neighbouring field intact
        p = c0**63 * c0**64 * MultiPoly.c(1)
        assert p.coefficient({c_var(0): 127, c_var(1): 1}) == 1
        assert str(p) == "c0^127*c1"

    def test_from_terms_and_json(self):
        with pytest.raises(MonomialOverflowError):
            MultiPoly.from_terms([(1, {c_var(3): 128})])
        with pytest.raises(MonomialOverflowError):
            MultiPoly.from_json_dict({"terms": [{"coeff": "1/1", "powers": {"l2": 128}}]})

    def test_shift_out_of_the_layout(self):
        last = MultiPoly.c(INDEXED_SLOTS - 1)
        with pytest.raises(MonomialOverflowError):
            last.shift_indexed()
        with pytest.raises(MonomialOverflowError):
            (l1 + MultiPoly.lam(INDEXED_SLOTS)).shift_indexed()


class TestIndexCaps:
    def test_last_slots_fit(self):
        assert str(MultiPoly.c(INDEXED_SLOTS - 1)) == "c31"
        assert str(MultiPoly.lam(INDEXED_SLOTS)) == "l32"

    def test_index_past_the_cap_raises(self):
        with pytest.raises(MonomialOverflowError):
            MultiPoly.c(INDEXED_SLOTS)
        with pytest.raises(MonomialOverflowError):
            MultiPoly.lam(INDEXED_SLOTS + 1)
        with pytest.raises(MonomialOverflowError):
            MultiPoly.from_json_dict({"terms": [{"coeff": "1/1", "powers": {"c40": 1}}]})

    def test_is_a_clean_error_class(self):
        assert issubclass(MonomialOverflowError, ArithmeticError)


class TestCliReportsCaps:
    def _run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_index_past_the_cap(self, capsys):
        code, out, err = self._run(capsys, "path", "weight", "--word", "c40", "--spec", "symbolic")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "c40" in err

    def test_exponent_past_the_cap(self, capsys):
        word = " ".join(["c0"] * 128)
        code, out, err = self._run(capsys, "path", "weight", "--word", word, "--spec", "symbolic")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "c0" in err
