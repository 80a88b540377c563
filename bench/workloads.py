"""The three workloads: their inputs, operations, checks and self-tests.

Each workload runs its operations in one thread, one after another (a
closed loop with a single caller).  It calls heaporth only through public
names looked up at call time, so the tracer's wrappers take effect.  After
a pass, ``collect`` turns the results into plain JSON-like data through
the documented JSON renderings, and ``check`` holds that data against the
references in ``reference.py``.  ``corruptions`` yields damaged copies of
the data that ``check`` must reject.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
from fractions import Fraction

import heaporth as H
from heaporth import cli, verify

import reference as ref


class CliError(RuntimeError):
    """The CLI exited without output; its message is the last stderr line."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0 and not out.getvalue():
        lines = err.getvalue().strip().splitlines() or [f"exit status {code}"]
        raise CliError(lines[-1])
    return code, out.getvalue()


class Pass:
    """One pass over a workload's operations: per-operation times and failures."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.failures: list[tuple[str, str]] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    def op(self, label: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted and the pass goes on
            first = (str(exc).splitlines() or [""])[0]
            self.failures.append((label, f"{type(exc).__name__}: {first}"))
            return None
        finally:
            self.times[label] = time.perf_counter() - start


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational p/q with |p| and q in 1..9."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


# Primes of eight bits: ratios of two of them never cancel, and every seed
# gives coefficients of the same size, so the arithmetic costs the same.
_PRIMES = [p for p in range(131, 256) if all(p % d for d in range(2, 16))]


def _prime_ratio(rng: random.Random) -> Fraction:
    """A nonzero rational +-p/q with p != q two eight-bit primes."""
    p, q = rng.sample(_PRIMES, 2)
    return Fraction(rng.choice((-1, 1)) * p, q)


def _points(rng: random.Random, depth: int, count: int = 2) -> list[dict[str, Fraction]]:
    """Seeded evaluation points for c_0..c_depth and l_1..l_depth."""
    return [
        {**{f"c{i}": _rational(rng) for i in range(depth + 1)},
         **{f"l{k}": _rational(rng) for k in range(1, depth + 1)}}
        for _ in range(count)
    ]


def _bumped(poly: dict, index: int) -> dict:
    """A copy of a JSON polynomial with one added to one coefficient."""
    terms = list(poly["terms"])
    q = ref.parse_scalar(terms[index]["coeff"]) + 1
    terms[index] = {**terms[index], "coeff": f"{q.numerator}/{q.denominator}"}
    return {"terms": terms}


def _order_problems(label: str, obj) -> list[str]:
    why = ref.glex_problem(obj)
    return [f"{label}: {why}"] if why else []


class SymbolicMoments:
    name = "symbolic-moments"
    NMAX = 15
    PATHS_MAX = 12
    SERIES_ORDER = 14

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"spec": H.CoeffSpec.symbolic(), "points": _points(rng, self.NMAX)}

    def run(self, inp: dict, p: Pass) -> dict:
        spec = inp["spec"]
        raw = {"cli": p.op(
            f"cli moments --nmax {self.NMAX} --format json", run_cli,
            ["moments", "--spec", "symbolic", "--nmax", str(self.NMAX), "--format", "json"],
        )}
        for n in range(self.PATHS_MAX + 1):
            raw[f"paths {n}"] = p.op(f"moments_by_paths({n})", H.moments_by_paths, n, spec)
        raw["series"] = p.op(f"j_series({self.SERIES_ORDER})", H.j_series, self.SERIES_ORDER, spec)
        return raw

    def collect(self, raw: dict) -> dict:
        data: dict = {"paths": {}}
        if raw["cli"] is not None:
            code, out = raw["cli"]
            data["cli"] = {"code": code, "json": json.loads(out) if code == 0 else out}
        for n in range(self.PATHS_MAX + 1):
            if raw[f"paths {n}"] is not None:
                data["paths"][n] = raw[f"paths {n}"].to_json_dict()
        if raw["series"] is not None:
            data["series"] = [c.to_json_dict() for c in raw["series"].coeffs]
        return data

    def check(self, data: dict, inp: dict) -> list[str]:
        if "cli" not in data:
            return []  # the CLI failed; the failure is counted, and nothing is left to compare
        if data["cli"]["code"] != 0:
            return [f"moments CLI exited {data['cli']['code']}"]
        problems: list[str] = []
        moments = data["cli"]["json"]["moments"]
        if len(moments) != self.NMAX + 1:
            return [f"CLI printed {len(moments)} moments, expected {self.NMAX + 1}"]
        cli_terms = []
        for n, m in enumerate(moments):
            problems += _order_problems(f"CLI mu_{n}", m)
            cli_terms.append(ref.parse_poly(m))
        for point in inp["points"]:
            c, lam = ref.point_coeffs(point, self.NMAX)
            for n, want in enumerate(ref.moments(self.NMAX, c, lam)):
                if ref.evaluate(cli_terms[n], point) != want:
                    problems.append(f"CLI mu_{n} differs from the Fraction triangle at a seeded point")
        for n, obj in data["paths"].items():
            problems += _order_problems(f"paths mu_{n}", obj)
            if ref.parse_poly(obj) != cli_terms[n]:
                problems.append(f"path sum mu_{n} differs from the triangle")
        if "series" in data:
            if len(data["series"]) != self.SERIES_ORDER + 1:
                problems.append(f"j_series returned {len(data['series'])} coefficients")
            for n, obj in enumerate(data["series"][: self.SERIES_ORDER + 1]):
                if ref.parse_poly(obj) != cli_terms[n]:
                    problems.append(f"J-fraction mu_{n} differs from the triangle")
        return problems

    def sizes(self, data: dict) -> dict[str, int]:
        if data.get("cli", {}).get("code") != 0:
            return {}
        moments = data["cli"]["json"]["moments"]
        top = moments[-1]
        return {
            f"mu_{self.NMAX}_terms": len(top["terms"]) if isinstance(top, dict) else 1,
            "all_moment_terms": sum(len(m["terms"]) if isinstance(m, dict) else 1 for m in moments),
        }

    def corruptions(self, data: dict):
        moments = data["cli"]["json"]["moments"]

        def with_moment(n: int, poly: dict) -> dict:
            changed = moments[:n] + [poly] + moments[n + 1:]
            return {**data, "cli": {**data["cli"], "json": {"moments": changed}}}

        yield f"one changed coefficient in CLI mu_{self.NMAX}", with_moment(self.NMAX, _bumped(moments[self.NMAX], 7))
        terms = moments[10]["terms"]
        yield "two terms of CLI mu_10 swapped out of order", with_moment(10, {"terms": [terms[1], terms[0]] + terms[2:]})
        terms = data["paths"][self.PATHS_MAX]["terms"]
        paths = {**data["paths"], self.PATHS_MAX: {"terms": terms[:3] + terms[4:]}}
        yield f"one dropped term in the path sum mu_{self.PATHS_MAX}", {**data, "paths": paths}


class HankelDivision:
    name = "hankel-division"
    SYM_MOMENTS = 13
    SYM_DETS = 6
    SYM_QN = 5
    RECOVER = 5
    INVERSE = 8
    EXPAND = 6
    CUSTOM = 14
    CUSTOM_LEN = 2 * CUSTOM + 2

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        c = [_prime_ratio(rng) for _ in range(self.CUSTOM_LEN)]
        lam = [_prime_ratio(rng) for _ in range(self.CUSTOM_LEN)]
        return {
            "spec": H.CoeffSpec.symbolic(),
            "points": _points(rng, self.SYM_MOMENTS),
            "c": c,
            "lam": [Fraction(0)] + lam,
            "custom": H.CoeffSpec.custom(c, lam),
            "target": H.UniPoly.monomial(self.EXPAND),
        }

    def run(self, inp: dict, p: Pass) -> dict:
        spec, raw = inp["spec"], {}
        mu = raw["mu"] = p.op(f"stieltjes_moments({self.SYM_MOMENTS})", H.stieltjes_moments, self.SYM_MOMENTS, spec)
        basis = p.op(f"generate_basis({self.INVERSE})", H.generate_basis, self.INVERSE, spec)
        for n in range(self.SYM_DETS + 1):
            raw[f"dets {n}"] = p.op(f"hankel_dets({n})", H.hankel_dets, n, mu)
        for n in range(self.SYM_QN + 1):
            raw[f"qn {n}"] = p.op(f"qn_via_determinant({n})", H.qn_via_determinant, n, mu)
        raw["rc"] = p.op(f"recursion_coeffs({self.RECOVER})", H.recursion_coeffs, basis, mu, self.RECOVER)
        raw["inverse"] = p.op(f"basis_inverse_check({self.INVERSE})", H.basis_inverse_check, self.INVERSE, basis, mu)
        raw["expand"] = p.op(f"expand_in_basis(x^{self.EXPAND})", H.expand_in_basis, inp["target"], basis, mu)
        cmu = p.op(f"custom stieltjes_moments({2 * self.CUSTOM + 1})", H.stieltjes_moments, 2 * self.CUSTOM + 1, inp["custom"])
        for n in range(self.CUSTOM + 1):
            raw[f"custom dets {n}"] = p.op(f"custom hankel_dets({n})", H.hankel_dets, n, cmu)
        for n in range(self.CUSTOM + 1):
            raw[f"custom qn {n}"] = p.op(f"custom qn_via_determinant({n})", H.qn_via_determinant, n, cmu)
        return raw

    def collect(self, raw: dict) -> dict:
        data = {}
        for key, value in raw.items():
            if value is None:
                continue
            if key == "mu":
                data[key] = [m.to_json_dict() for m in value.mu]
            elif key.startswith(("dets", "custom dets")):
                data[key] = [value[0].to_json_dict(), value[1].to_json_dict()]
            elif key.startswith(("qn", "custom qn")):
                data[key] = [c.to_json_dict() for c in value.coeffs]
            elif key == "rc":
                data[key] = {"lams": [x.to_json_dict() for x in value[0]], "cs": [x.to_json_dict() for x in value[1]]}
            elif key == "inverse":
                data[key] = value
            elif key == "expand":
                data[key] = [c.to_json_dict() for c in value]
        return data

    def check(self, data: dict, inp: dict) -> list[str]:
        problems: list[str] = []
        points = inp["points"]
        at_points = [ref.point_coeffs(pt, self.SYM_MOMENTS) for pt in points]
        q_at_points = [ref.recursion_polys(self.INVERSE, c, lam) for c, lam in at_points]
        if "mu" in data:
            for pt, (c, lam) in zip(points, at_points):
                for n, want in enumerate(ref.moments(self.SYM_MOMENTS, c, lam)):
                    if ref.evaluate(ref.parse_poly(data["mu"][n]), pt) != want:
                        problems.append(f"symbolic mu_{n} differs from the Fraction triangle")
        for n in range(self.SYM_DETS + 1):
            if f"dets {n}" in data:
                d_want, chi_want = ref.symbolic_hankel_closed_forms(n)
                d_got, chi_got = (ref.parse_poly(x) for x in data[f"dets {n}"])
                if d_got != d_want:
                    problems.append(f"symbolic d_{n} is not prod lambda_k^(n-k+1)")
                if chi_got != chi_want:
                    problems.append(f"symbolic chi_{n} is not d_{n}(c_0+...+c_{n})")
        for n in range(self.SYM_QN + 1):
            if f"qn {n}" in data:
                coeffs = [ref.parse_poly(x) for x in data[f"qn {n}"]]
                for pt, qs in zip(points, q_at_points):
                    if [ref.evaluate(x, pt) for x in coeffs] != qs[n]:
                        problems.append(f"symbolic Q_{n} from the determinant differs from the recursion")
        if "rc" in data:
            lams = [ref.parse_poly(x) for x in data["rc"]["lams"]]
            cs = [ref.parse_poly(x) for x in data["rc"]["cs"]]
            if lams != [{ref.monomial(**{f"l{k}": 1}): 1} for k in range(1, self.RECOVER + 1)]:
                problems.append("recursion_coeffs did not return exactly l_1..l_5")
            if cs != [{ref.monomial(**{f"c{k}": 1}): 1} for k in range(self.RECOVER + 1)]:
                problems.append("recursion_coeffs did not return exactly c_0..c_5")
        if data.get("inverse", True) is not True:
            problems.append("basis_inverse_check returned False")
        if "expand" in data:
            coeffs = [ref.parse_poly(x) for x in data["expand"]]
            for pt, qs in zip(points, q_at_points):
                rebuilt = [Fraction(0)] * (self.EXPAND + 1)
                for k, coeff in enumerate(coeffs):
                    value = ref.evaluate(coeff, pt)
                    for i, a in enumerate(qs[k]):
                        rebuilt[i] += value * a
                if rebuilt != [0] * self.EXPAND + [1]:
                    problems.append(f"expansion does not rebuild x^{self.EXPAND} at a seeded point")
        custom_q = ref.recursion_polys(self.CUSTOM, inp["c"], inp["lam"])
        for n in range(self.CUSTOM + 1):
            if f"custom dets {n}" in data:
                got = [ref.evaluate(ref.parse_poly(x), {}) for x in data[f"custom dets {n}"]]
                if got != list(ref.hankel_closed_forms(n, inp["c"], inp["lam"])):
                    problems.append(f"custom d_{n} or chi_{n} differs from its closed form")
            if f"custom qn {n}" in data:
                got = [ref.evaluate(ref.parse_poly(x), {}) for x in data[f"custom qn {n}"]]
                if got != custom_q[n]:
                    problems.append(f"custom Q_{n} from the determinant differs from the recursion")
        return problems

    def sizes(self, data: dict) -> dict[str, int]:
        out = {}
        if "mu" in data:
            out[f"mu_{self.SYM_MOMENTS}_terms"] = len(data["mu"][-1]["terms"])
        if f"dets {self.SYM_DETS}" in data:
            out[f"chi_{self.SYM_DETS}_terms"] = len(data[f"dets {self.SYM_DETS}"][1]["terms"])
        if "expand" in data:
            out[f"expand_x{self.EXPAND}_terms"] = sum(len(x["terms"]) for x in data["expand"])
        return out

    def corruptions(self, data: dict):
        lams = data["rc"]["lams"]
        wrong = {"terms": [{"coeff": "1/1", "powers": {"l4": 1}}]}
        yield "a wrong recovered lambda_3", {**data, "rc": {**data["rc"], "lams": lams[:2] + [wrong] + lams[3:]}}
        key = f"custom dets {self.CUSTOM}"
        d, chi = data[key]
        yield f"one changed custom d_{self.CUSTOM}", {**data, key: [_bumped(d, 0), chi]}
        key = f"qn {self.SYM_QN}"
        q = data[key]
        yield f"one changed coefficient of symbolic Q_{self.SYM_QN}", {**data, key: [q[0], _bumped(q[1], 0)] + q[2:]}


class VerifyDeep:
    name = "verify-deep"
    DEEP = 12
    DEFAULT_T21 = 8
    _T21 = re.compile(r"^(\d+) closed paths of length <= (\d+): ")

    def inputs(self, seed: int) -> dict:
        # The catalog and the two depths are fixed; the seed changes nothing here.
        calls = [["verify", name] for name in verify.VERIFIER_NAMES]
        calls += [["verify", name, "--nmax", str(self.DEEP)] for name in verify.VERIFIER_NAMES]
        return {"calls": calls}

    def run(self, inp: dict, p: Pass) -> dict:
        return {" ".join(argv): p.op(" ".join(argv), run_cli, argv) for argv in inp["calls"]}

    def collect(self, raw: dict) -> dict:
        return {label: list(value) for label, value in raw.items() if value is not None}

    def check(self, data: dict, inp: dict) -> list[str]:
        problems: list[str] = []
        for label, (code, out) in data.items():
            name = label.split()[1]
            lines = out.strip("\n").splitlines()
            details = [line.strip() for line in lines[1:-1]]
            if code != 0 or lines[:1] != [f"[  ok] {name}"] or lines[-1:] != ["verified 1 identities"]:
                problems.append(f"{label}: exit {code}, output does not report the identity ok")
            elif not details or not all(line.endswith(": ok") for line in details):
                problems.append(f"{label}: a detail line is not ok")
            if name == "T2.1":
                top = self.DEEP if "--nmax" in label else self.DEFAULT_T21
                m = self._T21.match(details[0]) if details else None
                if m is None or int(m.group(2)) != top or int(m.group(1)) != ref.closed_path_count(top):
                    problems.append(f"{label}: closed path count is not {ref.closed_path_count(top)}")
        return problems

    def sizes(self, data: dict) -> dict[str, int]:
        out = {}
        for label, (_, text) in data.items():
            if label.split()[1] == "T2.1":
                for line in text.splitlines():
                    m = self._T21.match(line.strip())
                    if m:
                        out[f"T2.1_paths_to_{m.group(2)}"] = int(m.group(1))
        return out

    def corruptions(self, data: dict):
        deep = f"verify T2.1 --nmax {self.DEEP}"
        count = ref.closed_path_count(self.DEEP)
        code, out = data[deep]
        dropped = out.replace(f"{count} closed", f"{count - 1} closed")
        yield "one dropped closed path in T2.1", {**data, deep: [code, dropped]}
        code, out = data["verify T3.2"]
        yield "one detail line of T3.2 turned to FAIL", {**data, "verify T3.2": [code, out.replace(": ok", ": FAIL", 1)]}


WORKLOADS = {w.name: w for w in (SymbolicMoments(), HankelDivision(), VerifyDeep())}
