"""The verify catalog: its exact output and the runner that produces it."""

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

import heaporth.verify
from heaporth.cli import main
from heaporth.verify import run_verifier


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Exact stdout of `heaporth verify ALL` at three depths.  Together they pin
# every detail text and every depth rule: which depths --nmax clamps, which
# it replaces and which it leaves alone.
ALL_DEFAULT = """\
[  ok] T3.2
       symbolic: determinant ratios to n=4: ok
       catalan: determinant ratios to n=6: ok
       fibonacci: determinant ratios to n=6: ok
       symbolic: near-diagonal h[n+1][n] to n=4: ok
[  ok] T3.3
       symbolic: inverse pair at n=4: ok
       catalan: inverse pair at n=8: ok
       fibonacci: inverse pair at n=8: ok
[  ok] T3.4
       symbolic: ratio form to depth 3: ok
       catalan: ratio form to depth 5: ok
       fibonacci: ratio form to depth 5: ok
[  ok] T3.5
       symbolic: difference form to depth 3: ok
       catalan: difference form to depth 5: ok
       fibonacci: difference form to depth 5: ok
[  ok] T2.1
       538 closed paths of length <= 8: properties, injectivity and inversion: ok
[  ok] P5.1
       x^n expansions reconstruct for n <= 10: ok
[  ok] P5.2
       catalan: minors all 1 and eigenvalues agree to n=6: ok
       fibonacci: nonsingular with agreeing eigen-verdict to n=6: ok
[  ok] I4
       moment values to n=16: ok
       integral form within 1e-8 for m <= 6: ok
[  ok] I5
       determinants (-1)^ceil(n/2) to n=6: ok
       bordered determinant rebuilds P_n to n=6: ok
[  ok] I6
       series coefficients to x^16: ok
[  ok] E5.17
       shifted determinants vanish to n=5: ok
[  ok] E5.20
       x^7 expansion: ok
       x^8 expansion: ok
verified 12 identities
"""


ALL_NMAX_3 = """\
[  ok] T3.2
       symbolic: determinant ratios to n=3: ok
       catalan: determinant ratios to n=3: ok
       fibonacci: determinant ratios to n=3: ok
       symbolic: near-diagonal h[n+1][n] to n=3: ok
[  ok] T3.3
       symbolic: inverse pair at n=3: ok
       catalan: inverse pair at n=3: ok
       fibonacci: inverse pair at n=3: ok
[  ok] T3.4
       symbolic: ratio form to depth 3: ok
       catalan: ratio form to depth 3: ok
       fibonacci: ratio form to depth 3: ok
[  ok] T3.5
       symbolic: difference form to depth 3: ok
       catalan: difference form to depth 3: ok
       fibonacci: difference form to depth 3: ok
[  ok] T2.1
       7 closed paths of length <= 3: properties, injectivity and inversion: ok
[  ok] P5.1
       x^n expansions reconstruct for n <= 3: ok
[  ok] P5.2
       catalan: minors all 1 and eigenvalues agree to n=3: ok
       fibonacci: nonsingular with agreeing eigen-verdict to n=3: ok
[  ok] I4
       moment values to n=3: ok
       integral form within 1e-8 for m <= 6: ok
[  ok] I5
       determinants (-1)^ceil(n/2) to n=3: ok
       bordered determinant rebuilds P_n to n=3: ok
[  ok] I6
       series coefficients to x^3: ok
[  ok] E5.17
       shifted determinants vanish to n=3: ok
[  ok] E5.20
       x^7 expansion: ok
       x^8 expansion: ok
verified 12 identities
"""


ALL_NMAX_7 = """\
[  ok] T3.2
       symbolic: determinant ratios to n=4: ok
       catalan: determinant ratios to n=6: ok
       fibonacci: determinant ratios to n=6: ok
       symbolic: near-diagonal h[n+1][n] to n=4: ok
[  ok] T3.3
       symbolic: inverse pair at n=4: ok
       catalan: inverse pair at n=7: ok
       fibonacci: inverse pair at n=7: ok
[  ok] T3.4
       symbolic: ratio form to depth 3: ok
       catalan: ratio form to depth 7: ok
       fibonacci: ratio form to depth 7: ok
[  ok] T3.5
       symbolic: difference form to depth 3: ok
       catalan: difference form to depth 7: ok
       fibonacci: difference form to depth 7: ok
[  ok] T2.1
       215 closed paths of length <= 7: properties, injectivity and inversion: ok
[  ok] P5.1
       x^n expansions reconstruct for n <= 7: ok
[  ok] P5.2
       catalan: minors all 1 and eigenvalues agree to n=7: ok
       fibonacci: nonsingular with agreeing eigen-verdict to n=7: ok
[  ok] I4
       moment values to n=7: ok
       integral form within 1e-8 for m <= 6: ok
[  ok] I5
       determinants (-1)^ceil(n/2) to n=7: ok
       bordered determinant rebuilds P_n to n=7: ok
[  ok] I6
       series coefficients to x^7: ok
[  ok] E5.17
       shifted determinants vanish to n=7: ok
[  ok] E5.20
       x^7 expansion: ok
       x^8 expansion: ok
verified 12 identities
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("verify", "ALL"), ALL_DEFAULT),
        (("verify", "ALL", "--nmax", "3"), ALL_NMAX_3),
        (("verify", "ALL", "--nmax", "7"), ALL_NMAX_7),
    ],
    ids=["default", "nmax3", "nmax7"],
)
def test_verify_all_golden(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


# sha256 over exit status, stdout and stderr of `verify T2.1 --nmax n` for
# n = 0..10 in turn, captured from the PlacedPiece-tuple heaps.
T21_GOLDEN_DIGEST = "dfa699872142464e0f4bc53bd8b5e7af8730e8d42e2fd90b33c3da36c991100e"


def test_t21_depths_golden(capsys):
    h = hashlib.sha256()
    for n in range(11):
        code, out, err = run(capsys, "verify", "T2.1", "--nmax", str(n))
        h.update(f"{code}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == T21_GOLDEN_DIGEST


class TestRunner:
    def test_exception_becomes_a_failing_line(self, capsys, monkeypatch):
        def boom(n, spec):
            raise ZeroDivisionError("division by zero\nsecond line")

        monkeypatch.setattr(heaporth.verify, "convergent_difference", boom)
        code, out, err = run(capsys, "verify", "T3.5", "T3.4", "--nmax", "2")
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert lines[:2] == [
            "[FAIL] T3.5",
            "       raised ZeroDivisionError: division by zero: FAIL",
        ]
        assert lines[2:6] == [
            "[  ok] T3.4",
            "       symbolic: ratio form to depth 2: ok",
            "       catalan: ratio form to depth 2: ok",
            "       fibonacci: ratio form to depth 2: ok",
        ]
        assert lines[-1] == "FAILED: T3.5"

    def test_lines_before_the_exception_are_kept(self, monkeypatch):
        calls = []

        def fail_on_fibonacci(n, spec):
            calls.append(str(spec))
            if str(spec) == "fibonacci":
                raise ValueError("bad spec")
            return True

        monkeypatch.setattr(heaporth.verify, "convergent_qstar_identity", fail_on_fibonacci)
        result = run_verifier("T3.4", 1)
        assert not result.ok
        assert result.lines == (
            "symbolic: ratio form to depth 1: ok",
            "catalan: ratio form to depth 1: ok",
            "raised ValueError: bad spec: FAIL",
        )

    def test_false_verdict_fails_only_its_line(self, monkeypatch):
        monkeypatch.setattr(heaporth.verify, "basis_inverse_check", lambda top, basis, mu: top != 4)
        result = run_verifier("T3.3", 5)
        assert not result.ok
        assert result.lines == (
            "symbolic: inverse pair at n=4: FAIL",
            "catalan: inverse pair at n=5: ok",
            "fibonacci: inverse pair at n=5: ok",
        )

    def test_unknown_name_is_key_error(self):
        with pytest.raises(KeyError, match="unknown identity 'T9.9'"):
            run_verifier("T9.9")


class TestP52:
    def test_every_leading_minor_is_checked(self, monkeypatch):
        real = heaporth.verify.hankel_positivity

        def last_minor_two(matrix):
            verdict = real(matrix)
            return replace(verdict, minors=verdict.minors[:-1] + (Fraction(2),))

        monkeypatch.setattr(heaporth.verify, "hankel_positivity", last_minor_two)
        result = run_verifier("P5.2", 3)
        assert result.lines == (
            "catalan: minors all 1 and eigenvalues agree to n=3: FAIL",
            "fibonacci: nonsingular with agreeing eigen-verdict to n=3: ok",
        )

    def test_deep_run_clamps_eigenvalues_and_passes(self, capsys):
        code, out, err = run(capsys, "verify", "P5.2", "--nmax", "12")
        assert (code, err) == (0, "")
        assert out == (
            "[  ok] P5.2\n"
            "       catalan: minors all 1 and eigenvalues agree to n=12 (eigenvalues to n=11): ok\n"
            "       fibonacci: nonsingular with agreeing eigen-verdict to n=12 (eigenvalues to n=11): ok\n"
            "verified 1 identities\n"
        )

    def test_no_note_when_eigenvalues_reach_full_depth(self, capsys):
        code, out, _ = run(capsys, "verify", "P5.2", "--nmax", "11")
        assert code == 0
        assert "catalan: minors all 1 and eigenvalues agree to n=11: ok" in out
        assert "(eigenvalues" not in out


@pytest.mark.parametrize("argv", [("verify", "T2.1"), ("verify", "ALL")])
def test_negative_nmax_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--nmax", "-1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--nmax" in captured.err
