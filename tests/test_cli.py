"""Command-line surface: outputs, formats, exit codes, determinism."""

import json

import pytest

from heaporth.cli import main, parse_x_poly
from heaporth.poly import UniPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_fibonacci_plain(self, capsys):
        code, out, _ = run(capsys, "poly", "--spec", "fib", "-n", "3")
        assert code == 0
        assert out == "x^3 + 2*x\n"

    def test_symbolic_plain(self, capsys):
        code, out, _ = run(capsys, "poly", "-n", "2")
        assert code == 0
        assert out == "x^2 - (c0 + c1)*x + (c0*c1 - l1)\n"

    def test_json_lists_whole_basis(self, capsys):
        code, out, _ = run(capsys, "poly", "--spec", "fib", "-n", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["basis"]) == 4
        assert data["basis"][1] == {
            "terms": [{"coeff": "1/1", "powers": {"x": 1}}]
        }

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "poly", "--spec", "fib", "-n", "2", "--format", "latex")
        assert code == 0
        assert "\\begin{aligned}" in out
        assert "P_{2} &= x^{2} + 1" in out


class TestMoments:
    def test_fibonacci_json(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--spec", "fib", "--nmax", "6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"moments": [1, 0, -1, 0, 2, 0, -5]}

    def test_symbolic_plain(self, capsys):
        code, out, _ = run(capsys, "moments", "--nmax", "2")
        assert out.splitlines() == ["mu_0 = 1", "mu_1 = c0", "mu_2 = c0^2 + l1"]

    def test_symbolic_json_carries_terms(self, capsys):
        _, out, _ = run(capsys, "moments", "--nmax", "2", "--format", "json")
        data = json.loads(out)
        assert data["moments"][0] == 1
        assert data["moments"][2] == {
            "terms": [
                {"coeff": "1/1", "powers": {"c0": 2}},
                {"coeff": "1/1", "powers": {"l1": 1}},
            ]
        }


class TestHankel:
    def test_catalan_plain(self, capsys):
        code, out, _ = run(capsys, "hankel", "--which", "d", "-n", "2", "--spec", "catalan")
        assert code == 0
        assert out.splitlines() == [
            "[1, 0, 1]",
            "[0, 1, 0]",
            "[1, 0, 2]",
            "det = 1",
        ]

    def test_shifted_json(self, capsys):
        code, out, _ = run(
            capsys, "hankel", "--which", "chi", "-n", "3", "--spec", "fib",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["det"] == 0
        assert data["matrix"][3] == [2, 0, -5, 0]

    def test_latex(self, capsys):
        _, out, _ = run(
            capsys, "hankel", "-n", "1", "--spec", "catalan", "--format", "latex"
        )
        assert "\\begin{pmatrix}" in out
        assert "\\det = 1" in out


class TestExpand:
    def test_x8_line(self, capsys):
        code, out, _ = run(capsys, "expand", "--target", "x^8", "--spec", "fib")
        assert code == 0
        assert out == "x^8 = 14*P0 - 28*P2 + 20*P4 - 7*P6 + P8\n"

    def test_x7_line(self, capsys):
        _, out, _ = run(capsys, "expand", "--target", "x^7", "--spec", "fib")
        assert out == "x^7 = -14*P1 + 14*P3 - 6*P5 + P7\n"

    def test_json(self, capsys):
        _, out, _ = run(
            capsys, "expand", "--target", "x^2", "--spec", "fib", "--format", "json"
        )
        assert json.loads(out) == {
            "target": "x^2",
            "basis": "P",
            "coefficients": [-1, 0, 1],
        }

    def test_catalan_symbol(self, capsys):
        _, out, _ = run(capsys, "expand", "--target", "x^2", "--spec", "catalan")
        assert out == "x^2 = Q0 + Q2\n"


class TestCf:
    def test_plain(self, capsys):
        code, out, _ = run(
            capsys, "cf", "--depth", "2", "--order", "6", "--spec", "catalan"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "num = -x^2 + 1"
        assert lines[1] == "den = -2*x^2 + 1"
        assert lines[2] == "series = 5*x^6 + 2*x^4 + x^2 + 1 + O(x^7)"

    def test_json_series(self, capsys):
        _, out, _ = run(
            capsys, "cf", "--depth", "4", "--order", "8", "--spec", "fib",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["series"] == [1, 0, -1, 0, 2, 0, -5, 0, 14]

    def test_latex(self, capsys):
        _, out, _ = run(capsys, "cf", "--depth", "1", "--format", "latex")
        assert "\\cfrac" in out


class TestHeapCommands:
    def test_settle(self, capsys):
        _, out, _ = run(capsys, "heap", "settle", "--word", "m0 d2 m2 d1 m1 d2 m3 m3")
        assert out == "m0@0 d2@0 m3@0 d1@1 m2@1 m3@1 m1@2 d2@3\n"

    def test_settle_json(self, capsys):
        _, out, _ = run(capsys, "heap", "settle", "--word", "m0 d2", "--format", "json")
        assert json.loads(out) == {
            "pieces": [
                {"kind": "m", "i": 0, "level": 0},
                {"kind": "d", "i": 2, "level": 0},
            ]
        }

    def test_canon(self, capsys):
        _, out, _ = run(capsys, "heap", "canon", "--word", "m3 d2 m0 d1 m3 m1 m2 d2")
        assert out == "m0 d2 m3 d1 m2 m3 m1 d2\n"

    def test_eq(self, capsys):
        code, out, _ = run(
            capsys, "heap", "eq",
            "--word", "m0 d2 m2 d1 m1 d2 m3 m3",
            "--other", "m3 d2 m0 d1 m3 m1 m2 d2",
        )
        assert code == 0 and out == "true\n"

    def test_from_path(self, capsys):
        _, out, _ = run(capsys, "heap", "from-path", "--path", "NE,SE@0")
        assert out == "d1\n"

    def test_to_path(self, capsys):
        _, out, _ = run(capsys, "heap", "to-path", "--word", "d1")
        assert out == "NE,SE@0\n"

    def test_to_path_error(self, capsys):
        code, _, err = run(capsys, "heap", "to-path", "--word", "m1")
        assert code == 1
        assert "error" in err


class TestPathCommands:
    def test_enum(self, capsys):
        _, out, _ = run(capsys, "path", "enum", "-n", "2")
        assert out.splitlines() == ["NE,SE@0", "E,E@0"]

    def test_word(self, capsys):
        _, out, _ = run(capsys, "path", "word", "--path", "NE,E,SE@0")
        assert out == "a0 c1 b1\n"

    def test_weight(self, capsys):
        _, out, _ = run(capsys, "path", "weight", "--word", "a0 b1")
        assert out == "l1\n"


class TestVerifyCommand:
    def test_single_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "E5.20")
        assert code == 0
        assert "[  ok] E5.20" in out
        assert "x^7 expansion: ok" in out

    def test_several(self, capsys):
        code, out, _ = run(capsys, "verify", "I5", "E5.17", "--nmax", "4")
        assert code == 0
        assert out.index("I5") < out.index("E5.17")

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "ALL", "--nmax", "4")
        assert code == 0
        assert out.strip().endswith("verified 12 identities")

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "T3.4", "T3.5", "--nmax", "3")
        _, second, _ = run(capsys, "verify", "T3.4", "T3.5", "--nmax", "3")
        assert first == second

    def test_unknown_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "T9.9"])
        assert info.value.code == 2


class TestPlumbing:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_env_var_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("HEAPORTH_FORMAT", "json")
        code, out, _ = run(capsys, "moments", "--spec", "fib", "--nmax", "2")
        assert code == 0
        assert json.loads(out) == {"moments": [1, 0, -1]}

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HEAPORTH_FORMAT", "json")
        _, out, _ = run(capsys, "poly", "--spec", "fib", "-n", "1", "--format", "plain")
        assert out == "x\n"

    def test_custom_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"c": ["0", "0", "0"], "lambda": ["1/2", "1/2"]}')
        code, out, _ = run(
            capsys, "moments", "--spec", f"custom:{spec_file}", "--nmax", "2"
        )
        assert code == 0
        assert out.splitlines() == ["mu_0 = 1", "mu_1 = 0", "mu_2 = 1/2"]

    def test_custom_spec_too_short(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"c": ["0"], "lambda": ["1"]}')
        code, _, err = run(
            capsys, "moments", "--spec", f"custom:{spec_file}", "--nmax", "4"
        )
        assert code == 1
        assert "custom spec" in err

    def test_parse_x_poly(self):
        from fractions import Fraction

        assert parse_x_poly("x^8") == UniPoly.monomial(8)
        assert parse_x_poly("3*x^2 - 1/2") == UniPoly((Fraction(-1, 2), 0, 3))
        assert parse_x_poly("-x + 2") == UniPoly((2, -1))
        with pytest.raises(ValueError):
            parse_x_poly("y^2")


class TestCustomSpecErrors:
    """A bad --spec custom:<file> gets one specific error line and exit 1."""

    def _fails_cleanly(self, capsys, spec_arg):
        code, out, err = run(capsys, "moments", "--spec", spec_arg, "--nmax", "2")
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err
        return lines[0]

    def test_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        line = self._fails_cleanly(capsys, f"custom:{missing}")
        assert "cannot read spec file" in line and str(missing) in line

    def test_malformed_json(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"c": [0, 0,')
        line = self._fails_cleanly(capsys, f"custom:{spec_file}")
        assert "not valid JSON" in line

    def test_not_an_object(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("[1, 2, 3]")
        line = self._fails_cleanly(capsys, f"custom:{spec_file}")
        assert "JSON object" in line

    def test_non_numeric_entry(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"c": [0, "zero"], "lambda": [1]}')
        line = self._fails_cleanly(capsys, f"custom:{spec_file}")
        assert "c[1]" in line and "'zero'" in line

    def test_zero_denominator(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"c": [0], "lambda": ["1/0"]}')
        line = self._fails_cleanly(capsys, f"custom:{spec_file}")
        assert "lambda[0]" in line

    def test_entries_not_a_list(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"c": 3, "lambda": [1]}')
        line = self._fails_cleanly(capsys, f"custom:{spec_file}")
        assert "'c' must be a list" in line

    def test_unknown_key(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"c": [0, 0, 0], "lambda": [1, 1], "lamda": [2]}')
        line = self._fails_cleanly(capsys, f"custom:{spec_file}")
        assert "unknown key" in line and "lamda" in line

    def test_unknown_spec_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["moments", "--spec", "fibonacci", "--nmax", "2"])
        assert info.value.code == 2
