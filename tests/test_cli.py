"""Command-line surface: outputs, formats, exit codes, determinism."""

import hashlib
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

    def test_latex_rational_coefficients(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(_GOLDEN_CUSTOM)
        code, out, _ = run(
            capsys, "expand", "--target", "x^3", "--spec", f"custom:{spec_file}",
            "--format", "latex",
        )
        assert code == 0
        assert out == (
            "\\[\nx^{3} = \\frac{1}{8} Q_{0} + \\frac{5}{12} Q_{1}"
            " + \\frac{3}{2} Q_{2} + Q_{3}\n\\]\n"
        )
        _, out, _ = run(
            capsys, "expand", "--target", "x^4 - 2/3*x", "--spec", "fib", "--format", "latex"
        )
        assert "- \\frac{2}{3} P_{1}" in out


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

    @pytest.mark.parametrize("fmt", ["plain", "json", "latex"])
    @pytest.mark.parametrize("path", ["@1", "@3", "NE,SE@1"])
    def test_from_path_rejects_open_paths(self, capsys, fmt, path):
        code, out, err = run(capsys, "heap", "from-path", "--path", path, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: path word must start and end at level 0\n"

    @pytest.mark.parametrize("fmt, expected", [("plain", "\n"), ("json", '{"word": ""}\n'), ("latex", "\n")])
    def test_from_path_empty_closed_path(self, capsys, fmt, expected):
        assert run(capsys, "heap", "from-path", "--path", "@0", "--format", fmt) == (0, expected, "")

    def test_to_path(self, capsys):
        _, out, _ = run(capsys, "heap", "to-path", "--word", "d1")
        assert out == "NE,SE@0\n"

    def test_to_path_error(self, capsys):
        code, _, err = run(capsys, "heap", "to-path", "--word", "m1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("cmd", ["settle", "canon", "to-path"])
    def test_piece_past_the_layout(self, capsys, cmd):
        code, out, err = run(capsys, "heap", cmd, "--word", "m99999999999 d5")
        assert (code, out) == (1, "")
        assert err == (
            "error: piece m99999999999 is past the heap layout: monomer indices"
            " stop at 2147483647 and dimer indices at 2147483648\n"
        )


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


class TestShortCustomSpecs:
    """c_0..c_m and lambda_1..lambda_m are enough for mu_0..mu_{2m+1}."""

    SHORT = '{"c": [1, 2, 3], "lambda": [-1, 2]}'
    LONGER = '{"c": [1, 2, 3, 7, "-5/2", 4], "lambda": [-1, 2, "3/7", 11, -6]}'

    def _specs(self, tmp_path):
        short, longer = tmp_path / "short.json", tmp_path / "longer.json"
        short.write_text(self.SHORT)
        longer.write_text(self.LONGER)
        return f"custom:{short}", f"custom:{longer}"

    @pytest.mark.parametrize("fmt", ["plain", "json", "latex"])
    @pytest.mark.parametrize(
        "argv",
        [["moments", "--nmax", "5"], ["cf", "--depth", "2"], ["cf", "--depth", "1", "--order", "5"]],
        ids=" ".join,
    )
    def test_same_as_extended_spec(self, capsys, tmp_path, argv, fmt):
        short, longer = self._specs(tmp_path)
        code, out, err = run(capsys, *argv, "--spec", short, "--format", fmt)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, *argv, "--spec", longer, "--format", fmt)

    def test_moments_past_the_spec_still_fail(self, capsys, tmp_path):
        short, _ = self._specs(tmp_path)
        code, out, err = run(capsys, "moments", "--nmax", "6", "--spec", short)
        assert (code, out) == (1, "")
        assert err == "error: custom spec has no lambda_3\n"


# A custom spec with a zero c and negative lambdas, long enough for every
# command below at the parent's full triangle and deep convergents.
_GOLDEN_CUSTOM = (
    '{"c": ["1/2", -1, 2, "-3/4", 1, 0, 3, -2, "5/3", 1, -1, 2], '
    '"lambda": [-1, "2/3", -2, 1, "-1/2", 3, -1, 2, -3, "1/4", 1, -2]}'
)


def golden_commands(group, spec, fmt):
    """The argument lists whose outputs one golden digest covers."""
    tail = ["--spec", spec, "--format", fmt]
    if group == "moments":
        return [["moments", "--nmax", "10", *tail]]
    if group == "cf":
        return [
            ["cf", "--depth", str(d), *order, *tail]
            for d in range(5)
            for order in ([], ["--order", "12"])
        ]
    return [["hankel", "-n", "4", "--which", w, *tail] for w in ("d", "chi")]


def golden_digest(run_one, commands):
    """sha256 over exit status, stdout and stderr of each command in turn."""
    h = hashlib.sha256()
    for argv in commands:
        code, out, err = run_one(argv)
        h.update(f"{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


# Captured from the full-triangle, long-division implementation.
GOLDEN_DIGESTS = {
    "moments symbolic plain": "79d1b33340054204bfb0ea524e5002746cd2b713d08c0e7e2660aa9865393124",
    "moments symbolic json": "b0416d63162b784d44a2229dd80e4227ca049ceea5ce036ba52a506773bb669a",
    "moments symbolic latex": "a5d1667626168b39e037d4ad1d7b2cd6091d12dea54ac853b8c7d02232c9a180",
    "moments fib plain": "11b546320586baf2713743866b8896f90ee9b950612a036a09b763c9eba1c7a8",
    "moments fib json": "58acdbd6bb755fbb26049ff3a2489e5ec4d6ca9cb77a9664bf94bd69c58f8389",
    "moments fib latex": "40f49503d51b2d916d5528dc87790f72575ff01b5233bc245bd6a9e260514109",
    "moments catalan plain": "9259ab9a871eca3ab0681f21651550264617608876893f5a3bc77ea46c759fad",
    "moments catalan json": "7b0af06cb57ccaf437d5541f511e2e99062f0e0b4327b0de67b1de816088fc92",
    "moments catalan latex": "230ff26d2fe79d788b313bdcd08215e1fa7a24874347925b281739e23d46185f",
    "moments custom plain": "78d705acb78569518b3ac34a4fb6a38ab6a20cb3f3de20ade0c708c3a839d748",
    "moments custom json": "5393f953e3492a022e1f5bb36135de37025f9a07b90527d1db23418c33a4a7a1",
    "moments custom latex": "82de7cf41681cdb2e2ee9e655e9cf15bd9ab808fab4187d6ef6b7d97f2962589",
    "cf symbolic plain": "84deb23190237ceb9e96fc6604d96c4ccfc76622515b622781daa85971a52097",
    "cf symbolic json": "a77d0c02a8d7330ebd03988aff3b151732020993a10423c53108105788cc3813",
    "cf symbolic latex": "66c0bd77e623c315ae2b430e27af25a71eb7df4fb6e0ec5519fcc80bf99c84e1",
    "cf fib plain": "f5f55c84f10f0adf2094b572d4e144bbfaf5a5946c7ec19b8ff7442639a50ed9",
    "cf fib json": "8b8acaf9ce999ac262c20b861dbe43f20d0736cea2c20dbb44e7205452aa7fc0",
    "cf fib latex": "5ed885a20b6b7b71744a93707fe4104f3d31ace6f19f53a09831969afa54c09a",
    "cf catalan plain": "0e57bb83015b771e7e62a5094fded83ce8ffd6604a38ca0a6d78ac25088cd718",
    "cf catalan json": "b8c6ee3bdff2335efc1b891df2f0b8764c0b6959797685adc31d7688bc5043c3",
    "cf catalan latex": "1fc95a6e478a6ed6949daf7aace77401f72f9fa1e611176407f3b08f124c6663",
    "cf custom plain": "d604805c3e198ca4721330f5cb142977cd937a4cf94f234cf6b699dcea4ebc74",
    "cf custom json": "7b792a604643dd2264893aa81dbd736cba0b2b2f863d7afdfe6c035fc11dbcf2",
    "cf custom latex": "2a650e350f7d6e4fbb78e85468ef338c30229cc82d39c1c8f5f69cd6fa6ec4c9",
    "hankel symbolic plain": "d91ca8b34153884525c5a4d4039feffe490e7a0eb2efd8bdc2fed24ca01e0b7b",
    "hankel symbolic json": "808e473e11dc8ae5df9d2ed4f234f1ea5f8f554d623143cbbf16a291c406df0d",
    "hankel symbolic latex": "584fcf61cf3d01e4124df0faa8231166fef827c323402f6f2c0895520050125e",
    "hankel fib plain": "5a4a848711146765eb863212a0e3d002ea4b164778ef07fe5c278940589f96f7",
    "hankel fib json": "99d7ca675df814eddf1ec5e2c9c123ce19239fbb3e4a7d4f2094b4ca7469fad9",
    "hankel fib latex": "cc56176e94cf6e360301353489fc2cce0f278288d43616425fa82fdfd33b8eef",
    "hankel catalan plain": "b4094e90116dc3dac8a6501506adedc23228a41d775fd4e0ecf504ea7188f0b8",
    "hankel catalan json": "f82e3a52e9dbcc1fe5f3252a92a223001048e479637939833d8beefc5cb5b28a",
    "hankel catalan latex": "bceabe6f476387f6e680a1b8445593578d4676f13148e19013d0608ccf307c2f",
    "hankel custom plain": "6e9f1c8d0edf27959e5c131b8a6bc95f29123c812a4c565afc4ffbed05f469fd",
    "hankel custom json": "2ef2d0de113aca5e15d60001d113d80bfc0b9cf346bbdbbafe8f873dd47e435b",
    "hankel custom latex": "a4050af735dd1415f0a629846cce47d063937d866261e665b591a4ca78915059",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_output_matches_golden_digest(capsys, tmp_path, key):
    group, spec, fmt = key.split()
    if spec == "custom":
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(_GOLDEN_CUSTOM)
        spec = f"custom:{spec_file}"
    digest = golden_digest(
        lambda argv: run(capsys, *argv), golden_commands(group, spec, fmt)
    )
    assert digest == GOLDEN_DIGESTS[key]


# Heap and path words for the heap golden digests: path images, pyramids
# with the wrong summit, non-pyramids, words that stack on themselves, words
# at the layout cap, and bad tokens.
_HEAP_GOLDEN_WORDS = (
    "", "m0", "d1", "m1", "d2", "m0 m0", "m0 d1", "d1 m0", "m0 m2", "m0 d2",
    "m0 d2 m2 d1 m1 d2 m3 m3", "m3 d2 m0 d1 m3 m1 m2 d2", "m0 d2 m3 d1 m2 m3 m1 d2",
    "d1 d3 m0 d2 m1 d2 m1 d1", "d1 m0 d3 d2 m1 d2 m1 d1", "m1 d1", "d2 d1", "m0 d1 m0",
    "m2 m1 m0", "m0 m1 m2", "d3 d2 d1", "d1 d2 d3", "m1 m1 d1 d1", "d1 d1 m0 m0",
    "m0 m0 m0 m0", "d5 d4 d3 d2 d1", "m0 m2 d1", "m0 d3", "d1 d3", "m0 m1", "d1 d2",
    "m2147483647", "d2147483648 m0", "m007 d01", "d1  m0\tm0",
    "q3", "m", "d0", "m-1", "m0 x", "M0", "m1.5",
)
_HEAP_GOLDEN_PATHS = (
    "", "@0", "E@0", "NE,SE@0", "E,E@0", "NE,E,SE@0", "NE,NE,SE,SE@0", "NE,SE,E@0",
    "E,NE,E,SE,E@0", "NE,E,NE,SE,E,NE,NE,SE,SE,SE,E,NE,SE@0", "NE, E ,SE@0",
    "NE@0", "SE@0", "E@1", "NE,SE@1", "foo", "NE,,SE@0", "NE,SE@x",
)


def heap_golden_commands(fmt):
    """Every heap subcommand over the golden words and paths in one format."""
    tail = ["--format", fmt]
    words = _HEAP_GOLDEN_WORDS
    cmds = []
    for word, other in zip(words, words[1:] + words[:1]):
        for sub in ("settle", "canon", "to-path"):
            cmds.append(["heap", sub, "--word", word, *tail])
        cmds.append(["heap", "eq", "--word", word, "--other", other, *tail])
        cmds.append(["heap", "eq", "--word", word, "--other", " ".join(reversed(word.split())), *tail])
    for path in _HEAP_GOLDEN_PATHS:
        cmds.append(["heap", "from-path", "--path", path, *tail])
    return cmds


# Captured from the PlacedPiece-tuple heaps.
HEAP_GOLDEN_DIGESTS = {
    "plain": "0427a37f56ec41ffba52d3fdd16d804ec53513f51a0397226d78afe9f8bf48cb",
    "json": "f574465e1dc7ebd0161f62364c9abfdcaedb5b4054a7d001bf8a1274b7ef73a0",
    "latex": "0427a37f56ec41ffba52d3fdd16d804ec53513f51a0397226d78afe9f8bf48cb",
}


@pytest.mark.parametrize("fmt", sorted(HEAP_GOLDEN_DIGESTS))
def test_heap_output_matches_golden_digest(capsys, fmt):
    digest = golden_digest(lambda argv: run(capsys, *argv), heap_golden_commands(fmt))
    assert digest == HEAP_GOLDEN_DIGESTS[fmt]
