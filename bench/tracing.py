"""Per-layer tracing, installed from outside the program.

``Tracer.install`` replaces each traced public function of heaporth by a
wrapper that records a span (name, start, end, parent span) and bumps work
counters.  A function is replaced at every module that binds it, because
modules import one another's functions by name; ``MultiPoly`` methods are
replaced on the class.  ``uninstall`` puts the originals back, so untraced
passes run the program untouched.

Spans stay in memory until ``metrics`` folds them into per-layer calls and
self time: a span's duration minus the time covered by its child spans.
The work counters are taken after a span ends, and the time they take is
left out of both the span and its parent.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction


def _terms(poly) -> int:
    return sum(1 for _ in poly.items())


def _terms_out(counts, name, args, result):
    if result is not NotImplemented:
        counts[name + ".terms_out"] += _terms(result)


def _render_terms(counts, name, args, result):
    counts[name + ".terms"] += _terms(args[0])


def _divisor_kind(counts, name, args, result):
    _terms_out(counts, name, args, result)
    d = args[1]
    if isinstance(d, (int, Fraction)) or d.is_constant:
        kind = "const_divisor"
    elif _terms(d) == 1:
        kind = "monomial_divisor"
    else:
        kind = "multiterm_divisor"
    counts[f"{name}.{kind}.calls"] += 1


def _moment_terms(counts, name, args, result):
    counts[name + ".terms_out"] += sum(_terms(m) for m in result.mu)


def _paths_out(counts, name, args, result):
    counts[name + ".paths_out"] += len(result)


def _word_pieces(counts, name, args, result):
    counts[name + ".pieces_in"] += len(args[0])


def _heap_pieces(counts, name, args, result):
    counts[name + ".pieces_in"] += args[0].size


# (span name, module, attribute, extra counter, names of the extra counts)
TARGETS = (
    ("poly.mul", "poly", "MultiPoly.__mul__", _terms_out, ("terms_out",)),
    ("poly.add", "poly", "MultiPoly.__add__", _terms_out, ("terms_out",)),
    ("poly.sum", "poly", "MultiPoly.sum", _terms_out, ("terms_out",)),
    ("poly.exact_div", "poly", "MultiPoly.exact_div", _divisor_kind,
     ("terms_out", "const_divisor.calls", "monomial_divisor.calls", "multiterm_divisor.calls")),
    ("poly.render", "poly", "MultiPoly.to_json_dict", _render_terms, ("terms",)),
    ("poly.render", "poly", "MultiPoly.__str__", _render_terms, ()),
    ("basis.stieltjes_moments", "basis", "stieltjes_moments", _moment_terms, ("terms_out",)),
    ("basis.generate_basis", "basis", "generate_basis", None, ()),
    ("basis.scalar_product", "basis", "scalar_product", None, ()),
    ("basis.det_bareiss", "basis", "det_bareiss", _terms_out, ("terms_out",)),
    ("basis.qn_via_determinant", "basis", "qn_via_determinant", None, ()),
    ("basis.recursion_coeffs", "basis", "recursion_coeffs", None, ()),
    ("basis.basis_inverse_check", "basis", "basis_inverse_check", None, ()),
    ("basis.expand_in_basis", "basis", "expand_in_basis", None, ()),
    ("basis.hankel_positivity", "basis", "hankel_positivity", None, ()),
    ("paths.enumerate_paths", "paths", "enumerate_paths", _paths_out, ("paths_out",)),
    ("paths.h_tilde", "paths", "h_tilde", _terms_out, ("terms_out",)),
    ("paths.path_word", "paths", "path_word", None, ()),
    ("heaps.motzkin_to_heap", "heaps", "motzkin_to_heap", None, ()),
    ("heaps.settle", "heaps", "settle", _word_pieces, ("pieces_in",)),
    ("heaps.pyramid_summit", "heaps", "pyramid_summit", None, ()),
    ("heaps.heap_to_motzkin", "heaps", "heap_to_motzkin", _heap_pieces, ("pieces_in",)),
    ("series.series_div", "series", "series_div", None, ()),
    ("contfrac.convergent", "contfrac", "convergent", None, ()),
    ("contfrac.j_series", "contfrac", "j_series", None, ()),
    ("numeric.jacobi_eigenvalues", "numeric", "jacobi_eigenvalues", None, ()),
    ("numeric.catalan_integral", "numeric", "catalan_integral", None, ()),
    ("verify.run_verifiers", "verify", "run_verifiers", None, ()),
    ("cli.main", "cli", "main", None, ()),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for span, _, _, _, extras in TARGETS:
        units.setdefault(span + ".calls", "count")
        units.setdefault(span + ".self_s", "s")
        for extra in extras:
            units[f"{span}.{extra}"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = dict.fromkeys(metric_units(), 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, end, parent)
            if count is not None:
                count(counts, name, args, result)
                # Counting is tracer work: it belongs to no layer's self time.
                spans[idx] = (name, start, end, clock(), parent)
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "heaporth" or n.startswith("heaporth.")]
        for name, modname, attr, count, _ in TARGETS:
            owner = sys.modules["heaporth." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[meth]
                if isinstance(orig, classmethod):
                    repl = classmethod(self._wrap(name, orig.__func__, count))
                else:
                    repl = self._wrap(name, orig, count)
                homes = [cls]
            else:
                orig = getattr(owner, attr)
                repl = self._wrap(name, orig, count)
                homes = mods
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is orig:
                        self._restore.append((home, key, orig))
                        setattr(home, key, repl)

    def uninstall(self) -> None:
        while self._restore:
            home, key, orig = self._restore.pop()
            setattr(home, key, orig)

    def metrics(self) -> dict[str, float]:
        """Calls, self time and counts per layer function (no overhead figure)."""
        child = [0.0] * len(self.spans)
        for name, start, end, counted, parent in self.spans:
            if parent >= 0:
                child[parent] += counted - start
        out: dict[str, float] = dict(self.counts)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - covered
        return out
