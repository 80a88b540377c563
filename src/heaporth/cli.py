"""Command-line interface.

Subcommands compute the library's objects (basis polynomials, moments,
Hankel matrices, basis expansions, convergents, heaps, paths) or run the
named identity checks.  Output is plain text by default; ``--format json``
emits the documented JSON shapes and ``--format latex`` compilable math
fragments.  The HEAPORTH_FORMAT environment variable changes the default
format when no flag is given.

Exit status: 0 on success, 1 when a requested verification fails, 2 for
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .basis import (
    CoeffSpec,
    HankelMatrix,
    expand_in_basis,
    generate_basis,
    stieltjes_moments,
)
from .contfrac import cfrac_latex, convergent, j_series
from .heaps import (
    canonical_word,
    heap_word_text,
    heap_to_motzkin,
    heaps_equivalent,
    motzkin_to_heap,
    parse_heap_word,
    settle,
)
from .paths import MotzkinPath, PathWord, enumerate_paths, path_weight, path_word
from .poly import MultiPoly, UniPoly
from .verify import VERIFIER_NAMES, run_verifiers

_FORMATS = ("plain", "json", "latex")


def _default_format() -> str:
    env = os.environ.get("HEAPORTH_FORMAT", "").strip()
    return env if env in _FORMATS else "plain"


_NAMED_SPECS = {
    "fib": CoeffSpec.fibonacci,
    "catalan": CoeffSpec.catalan,
    "symbolic": CoeffSpec.symbolic,
}


class SpecFileError(ValueError):
    """A custom spec file cannot be read or does not describe a spec."""


def _spec_token(token: str) -> str:
    """Check the form of a --spec value; custom files are read later, in main."""
    if token in _NAMED_SPECS or token.startswith("custom:"):
        return token
    raise argparse.ArgumentTypeError(
        f"unknown spec {token!r} (expected fib|catalan|symbolic|custom:<file>)"
    )


def _depth(token: str) -> int:
    """Check a --nmax value for verify: an int >= 0."""
    try:
        value = int(token)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"invalid depth {token!r} (expected an int >= 0)")
    return value


def _parse_spec(token: str) -> CoeffSpec:
    if token in _NAMED_SPECS:
        return _NAMED_SPECS[token]()
    return _load_custom_spec(token[len("custom:"):])


def _load_custom_spec(path: str) -> CoeffSpec:
    """Read {"c": [...], "lambda": [...]} of rationals (numbers or "p/q" strings)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"spec file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecFileError(
            f"spec file {path!r} must hold a JSON object with keys 'c' and 'lambda'"
        )
    unknown = sorted(set(data) - {"c", "lambda"})
    if unknown:
        raise SpecFileError(
            f"spec file {path!r} has unknown key(s) {', '.join(map(repr, unknown))}"
            " (expected 'c' and 'lambda')"
        )
    lists: dict[str, list[Fraction]] = {}
    for key in ("c", "lambda"):
        values = data.get(key, [])
        if not isinstance(values, list):
            raise SpecFileError(f"spec file {path!r}: {key!r} must be a list")
        lists[key] = []
        for i, value in enumerate(values):
            try:
                lists[key].append(Fraction(str(value)))
            except (ValueError, ZeroDivisionError) as exc:
                raise SpecFileError(
                    f"spec file {path!r}: {key}[{i}] = {value!r} is not a rational number"
                ) from exc
    return CoeffSpec.custom(lists["c"], lists["lambda"])


def _encode_scalar(p: MultiPoly):
    """JSON encoding: int when integral, "p/q" when rational, else term list."""
    if p.is_constant:
        q = p.constant_value()
        if q.denominator == 1:
            return int(q)
        return f"{q.numerator}/{q.denominator}"
    return p.to_json_dict()


def parse_x_poly(text: str) -> UniPoly:
    """Parse a rational-coefficient polynomial in x, e.g. "x^8" or "3*x^2 - 1/2"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    chunks: list[str] = []
    buf = ""
    for ch in s:
        if ch in "+-" and buf and buf[-1] not in "+-*^/":
            chunks.append(buf)
            buf = ch
        else:
            buf += ch
    chunks.append(buf)
    coeffs: dict[int, Fraction] = {}
    for chunk in chunks:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        if "x" in chunk:
            cpart, _, xpart = chunk.partition("x")
            cpart = cpart.rstrip("*")
            coeff = Fraction(cpart) if cpart else Fraction(1)
            if xpart == "":
                k = 1
            elif xpart.startswith("^") and xpart[1:].isdigit():
                k = int(xpart[1:])
            else:
                raise ValueError(f"cannot parse term {chunk!r}")
        else:
            coeff = Fraction(chunk)
            k = 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coeff
    top = max(coeffs)
    return UniPoly([coeffs.get(i, Fraction(0)) for i in range(top + 1)])


# ---------------------------------------------------------------------------
# subcommand bodies (each returns the full output string)


def _cmd_poly(args) -> str:
    basis = generate_basis(args.n, args.spec)
    if args.format == "json":
        return json.dumps(
            {"basis": [basis.poly(k).to_multipoly().to_json_dict() for k in range(args.n + 1)]}
        )
    if args.format == "latex":
        sym = args.spec.basis_symbol
        rows = " \\\\\n".join(
            f"{sym}_{{{k}}} &= {basis.poly(k).to_latex()}" for k in range(args.n + 1)
        )
        return f"\\[\n\\begin{{aligned}}\n{rows}\n\\end{{aligned}}\n\\]"
    return str(basis.poly(args.n))


def _cmd_moments(args) -> str:
    mu = stieltjes_moments(args.nmax, args.spec)
    if args.format == "json":
        return json.dumps({"moments": [_encode_scalar(m) for m in mu.mu]})
    if args.format == "latex":
        rows = " \\\\\n".join(
            f"\\mu_{{{n}}} &= {mu.mu[n].to_latex()}" for n in range(args.nmax + 1)
        )
        return f"\\[\n\\begin{{aligned}}\n{rows}\n\\end{{aligned}}\n\\]"
    return "\n".join(f"mu_{n} = {mu.mu[n]}" for n in range(args.nmax + 1))


def _hankel_matrix(args) -> HankelMatrix:
    need = 2 * args.n + 1
    mu = stieltjes_moments(need, args.spec)
    variant = "plain" if args.which == "d" else "shifted"
    return HankelMatrix(mu, args.n, variant)


def _cmd_hankel(args) -> str:
    matrix = _hankel_matrix(args)
    det = matrix.det()
    if args.format == "json":
        return json.dumps(
            {
                "which": args.which,
                "n": args.n,
                "matrix": [[_encode_scalar(e) for e in row] for row in matrix.rows()],
                "det": _encode_scalar(det),
            }
        )
    if args.format == "latex":
        return f"\\[\n{matrix.to_latex()}\n\\]\n\\[\n\\det = {det.to_latex()}\n\\]"
    lines = ["[" + ", ".join(str(e) for e in row) + "]" for row in matrix.rows()]
    lines.append(f"det = {det}")
    return "\n".join(lines)


def _expansion_pieces(coeffs, symbol: str, latex: bool) -> str:
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if c.is_zero:
            continue
        name = f"{symbol}_{{{k}}}" if latex else f"{symbol}{k}"
        if c.is_constant:
            q = c.constant_value()
            sign = 1 if q > 0 else -1
            mag = abs(q)
            if mag == 1:
                body = name
            elif latex:
                body = f"{MultiPoly.const(mag).to_latex()} {name}"
            else:
                body = f"{mag}*{name}"
        else:
            sign = 1
            body = (
                f"\\left({c.to_latex()}\\right) {name}"
                if latex
                else f"({c})*{name}"
            )
        if not parts:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(parts) if parts else "0"


def _cmd_expand(args) -> str:
    target = parse_x_poly(args.target)
    n = max(target.degree, 0)
    basis = generate_basis(n, args.spec)
    mu = stieltjes_moments(2 * n, args.spec)
    coeffs = expand_in_basis(target, basis, mu)
    symbol = args.spec.basis_symbol
    if args.format == "json":
        return json.dumps(
            {
                "target": str(target),
                "basis": symbol,
                "coefficients": [_encode_scalar(c) for c in coeffs],
            }
        )
    if args.format == "latex":
        return f"\\[\n{target.to_latex()} = {_expansion_pieces(coeffs, symbol, True)}\n\\]"
    return f"{target} = {_expansion_pieces(coeffs, symbol, False)}"


def _cmd_cf(args) -> str:
    order = args.order if args.order is not None else 2 * args.depth + 1
    conv = convergent(args.depth, args.spec)
    series = j_series(order, args.spec)
    if args.format == "json":
        return json.dumps(
            {
                "depth": args.depth,
                "num": conv.value.num.to_multipoly().to_json_dict(),
                "den": conv.value.den.to_multipoly().to_json_dict(),
                "series": [_encode_scalar(c) for c in series.coeffs],
            }
        )
    if args.format == "latex":
        return f"\\[\n{cfrac_latex(args.depth, args.spec)}\n\\]"
    return "\n".join(
        [
            f"num = {conv.value.num}",
            f"den = {conv.value.den}",
            f"series = {series}",
        ]
    )


def _cmd_heap(args) -> str:
    if args.heap_cmd == "settle":
        heap = settle(parse_heap_word(args.word))
        if args.format == "json":
            return json.dumps(heap.to_json_dict())
        return str(heap)
    if args.heap_cmd == "canon":
        word = canonical_word(settle(parse_heap_word(args.word)))
        if args.format == "json":
            return json.dumps({"word": heap_word_text(word)})
        return heap_word_text(word)
    if args.heap_cmd == "eq":
        equal = heaps_equivalent(parse_heap_word(args.word), parse_heap_word(args.other))
        if args.format == "json":
            return json.dumps({"equivalent": equal})
        return "true" if equal else "false"
    if args.heap_cmd == "from-path":
        path = MotzkinPath.parse(args.path)
        if not path.is_closed:  # a step-less path's word forgets its level
            raise ValueError("path word must start and end at level 0")
        word = motzkin_to_heap(path_word(path))
        if args.format == "json":
            return json.dumps({"word": heap_word_text(word)})
        return heap_word_text(word)
    assert args.heap_cmd == "to-path"
    path = heap_to_motzkin(settle(parse_heap_word(args.word)))
    if args.format == "json":
        return json.dumps({"path": path.to_text()})
    return path.to_text()


def _cmd_path(args) -> str:
    if args.path_cmd == "enum":
        paths = enumerate_paths(args.start, args.end, args.n)
        if args.format == "json":
            return json.dumps({"paths": [p.to_text() for p in paths]})
        return "\n".join(p.to_text() for p in paths)
    if args.path_cmd == "word":
        word = path_word(MotzkinPath.parse(args.path))
        if args.format == "json":
            return json.dumps({"word": word.to_text()})
        return word.to_text()
    assert args.path_cmd == "weight"
    weight = path_weight(PathWord.parse(args.word), args.spec)
    if args.format == "json":
        return json.dumps({"weight": _encode_scalar(weight)})
    if args.format == "latex":
        return weight.to_latex()
    return str(weight)


def _cmd_verify(args) -> tuple[str, int]:
    names: list[str] = []
    for name in args.identities:
        if name == "ALL":
            names.extend(VERIFIER_NAMES)
        else:
            names.append(name)
    results = run_verifiers(names, nmax=args.nmax)
    lines: list[str] = []
    first_fail: str | None = None
    for result in results:
        status = "ok" if result.ok else "FAIL"
        lines.append(f"[{status:>4}] {result.name}")
        for detail in result.lines:
            lines.append(f"       {detail}")
        if not result.ok and first_fail is None:
            first_fail = result.name
    if first_fail is None:
        lines.append(f"verified {len(results)} identities")
        return "\n".join(lines), 0
    lines.append(f"FAILED: {first_fail}")
    return "\n".join(lines), 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heaporth",
        description="Exact identities for three-term recursions, lattice paths and heaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec_default="symbolic"):
        p.add_argument(
            "--spec",
            type=_spec_token,
            default=spec_default,
            help="coefficient spec: fib|catalan|symbolic|custom:<file>",
        )
        p.add_argument(
            "--format",
            choices=_FORMATS,
            default=_default_format(),
            help="output format (default from HEAPORTH_FORMAT, else plain)",
        )

    p = sub.add_parser("poly", help="basis polynomial of a given degree")
    p.add_argument("-n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("moments", help="moment sequence")
    p.add_argument("--nmax", type=int, required=True)
    add_common(p)

    p = sub.add_parser("hankel", help="moment matrix and its determinant")
    p.add_argument("--which", choices=("d", "chi"), default="d")
    p.add_argument("-n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("expand", help="expand a polynomial in the basis")
    p.add_argument("--target", required=True, help="polynomial in x, e.g. x^8")
    add_common(p)

    p = sub.add_parser("cf", help="continued fraction convergent and series")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    add_common(p)

    p = sub.add_parser("heap", help="heap words and settling")
    heap_sub = p.add_subparsers(dest="heap_cmd", required=True)
    q = heap_sub.add_parser("settle", help="settle a word into levels")
    q.add_argument("--word", required=True)
    add_common(q)
    q = heap_sub.add_parser("canon", help="canonical word of a word's heap")
    q.add_argument("--word", required=True)
    add_common(q)
    q = heap_sub.add_parser("eq", help="do two words build the same heap?")
    q.add_argument("--word", required=True)
    q.add_argument("--other", required=True)
    add_common(q)
    q = heap_sub.add_parser("from-path", help="image word of a closed path")
    q.add_argument("--path", required=True)
    add_common(q)
    q = heap_sub.add_parser("to-path", help="closed path of a pyramid")
    q.add_argument("--word", required=True)
    add_common(q)

    p = sub.add_parser("path", help="path enumeration, words, weights")
    path_sub = p.add_subparsers(dest="path_cmd", required=True)
    q = path_sub.add_parser("enum", help="all paths with given endpoints")
    q.add_argument("--start", type=int, default=0)
    q.add_argument("--end", type=int, default=0)
    q.add_argument("-n", type=int, required=True)
    add_common(q)
    q = path_sub.add_parser("word", help="letter word of a path")
    q.add_argument("--path", required=True)
    add_common(q)
    q = path_sub.add_parser("weight", help="weight of a word under a spec")
    q.add_argument("--word", required=True)
    add_common(q)

    p = sub.add_parser("verify", help="run named identity checks")
    p.add_argument(
        "identities",
        nargs="+",
        choices=VERIFIER_NAMES + ("ALL",),
        metavar="IDENTITY",
        help=f"one of {', '.join(VERIFIER_NAMES + ('ALL',))}",
    )
    p.add_argument("--nmax", type=_depth, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "spec"):
            args.spec = _parse_spec(args.spec)
        if args.command == "verify":
            out, code = _cmd_verify(args)
            print(out)
            return code
        handler = {
            "poly": _cmd_poly,
            "moments": _cmd_moments,
            "hankel": _cmd_hankel,
            "expand": _cmd_expand,
            "cf": _cmd_cf,
            "heap": _cmd_heap,
            "path": _cmd_path,
        }[args.command]
        print(handler(args))
        return 0
    except (ValueError, ArithmeticError, OSError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
