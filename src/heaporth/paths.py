"""Weighted Motzkin and Dyck lattice paths.

A path proceeds by North-East, East and South-East steps and stays weakly
above the ground line.  Its word records one letter per edge -- a, c or b
for NE, E, SE -- subscripted by the height at which the edge starts.  The
weight of a word sends a_i to lambda_{i+1}, b_i to 1 and c_i to c_i, read
through whichever coefficient spec is in force; summing weights over all
paths of a given length and endpoint pair reproduces the moment triangle.

Enumeration is deliberately explicit and exponential: these paths serve as
the independent cross-check for the fast triangle recursion, so they must
not share code with it.  Lengths are capped at ``ENUMERATION_CAP`` steps to
keep that honest use cheap.

The weight is commutative, so a path's weight depends only on how many of
each letter it has.  ``h_tilde`` therefore walks the step tree carrying its
letter multiset as one flat int, the letter key: a ``LETTER_BITS``-bit
field per letter, a_h in field 2h and c_h in field 2h + 1, with descents
left out since they weigh 1.  A path uses no letter more often than it has
steps, so the cap bounds every field and no count carries into the next.
Taking a step adds one int; each finished path bumps its key's count, and
only then does each distinct key become a weight, once, through polynomial
products.  The walk still visits every path, one at a time, and shares
nothing with the triangle or the continued fraction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .basis import CoeffSpec
from .poly import MultiPoly

ENUMERATION_CAP = 18
LETTER_BITS = 5  # a letter key field holds up to 31 >= ENUMERATION_CAP uses


class EnumerationCapError(ValueError):
    """Explicit path enumeration was asked for beyond the supported length."""


class Step(str, Enum):
    NE = "NE"
    E = "E"
    SE = "SE"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_DELTA = {Step.NE: 1, Step.E: 0, Step.SE: -1}
_STEP_ORDER = (Step.NE, Step.E, Step.SE)
_STEP_LETTER = {Step.NE: "a", Step.E: "c", Step.SE: "b"}
_LETTER_STEP = {"a": Step.NE, "c": Step.E, "b": Step.SE}


def _trusted(cls, **attrs):
    """Construct a frozen instance without re-running validation.

    Only for values whose invariants the caller has already established;
    exhaustive enumeration would otherwise spend most of its time
    re-walking paths it built to be valid.
    """
    obj = object.__new__(cls)
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class MotzkinPath:
    """A step sequence with a starting level; never dips below 0."""

    start_level: int
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if self.start_level < 0:
            raise ValueError("start level must be >= 0")
        level = self.start_level
        for s in self.steps:
            level += _DELTA[s]
            if level < 0:
                raise ValueError("path drops below the ground line")

    def levels(self) -> list[int]:
        """Heights visited, including both endpoints (length = steps + 1)."""
        out = [self.start_level]
        for s in self.steps:
            out.append(out[-1] + _DELTA[s])
        return out

    @property
    def end_level(self) -> int:
        return self.start_level + sum(_DELTA[s] for s in self.steps)

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def max_level(self) -> int:
        return max(self.levels())

    @property
    def is_closed(self) -> bool:
        return self.start_level == 0 and self.end_level == 0

    @property
    def is_dyck(self) -> bool:
        return all(s is not Step.E for s in self.steps)

    def to_text(self) -> str:
        return ",".join(s.value for s in self.steps) + f"@{self.start_level}"

    @classmethod
    def parse(cls, text: str) -> "MotzkinPath":
        body, sep, level = text.rpartition("@")
        if not sep:
            body, level = text, "0"
        steps = tuple(
            Step(tok.strip()) for tok in body.split(",") if tok.strip()
        )
        return cls(int(level), steps)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Letter:
    """One edge letter: kind a/b/c tagged with the edge's starting height."""

    kind: str
    height: int

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b", "c"):
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if self.height < 0:
            raise ValueError("letter height must be >= 0")
        if self.kind == "b" and self.height < 1:
            raise ValueError("a descent cannot start at height 0")

    @property
    def next_height(self) -> int:
        return self.height + _DELTA[_LETTER_STEP[self.kind]]

    def __str__(self) -> str:
        return f"{self.kind}{self.height}"

    @classmethod
    def parse(cls, text: str) -> "Letter":
        if len(text) >= 2 and text[0] in ("a", "b", "c") and text[1:].isdigit():
            return cls(text[0], int(text[1:]))
        raise ValueError(f"cannot parse path letter {text!r}")


@dataclass(frozen=True)
class PathWord:
    """The a/b/c letter sequence of a path; heights must chain correctly."""

    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.letters, self.letters[1:]):
            if cur.height != prev.next_height:
                raise ValueError(
                    f"letter {cur} does not start where {prev} ends"
                )

    @property
    def start_level(self) -> int:
        return self.letters[0].height if self.letters else 0

    @property
    def end_level(self) -> int:
        return self.letters[-1].next_height if self.letters else 0

    @property
    def is_closed(self) -> bool:
        return self.start_level == 0 and self.end_level == 0

    def to_text(self) -> str:
        return " ".join(str(letter) for letter in self.letters)

    @classmethod
    def parse(cls, text: str) -> "PathWord":
        return cls(tuple(Letter.parse(tok) for tok in text.split()))

    def __str__(self) -> str:
        return self.to_text()

    def __len__(self) -> int:
        return len(self.letters)


def enumerate_paths(r: int, s: int, n: int) -> list[MotzkinPath]:
    """All n-step paths from level r to level s, in lexicographic step order.

    The order is NE < E < SE.  The list is empty whenever s is unreachable
    (fewer steps than the level gap).
    """
    if r < 0 or s < 0:
        raise ValueError("levels must be >= 0")
    if n < 0:
        raise ValueError("length must be >= 0")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"explicit enumeration capped at {ENUMERATION_CAP} steps"
        )
    results: list[MotzkinPath] = []
    acc: list[Step] = []

    def rec(level: int, remaining: int) -> None:
        if abs(level - s) > remaining:
            return
        if remaining == 0:
            results.append(_trusted(MotzkinPath, start_level=r, steps=tuple(acc)))
            return
        for step in _STEP_ORDER:
            nxt = level + _DELTA[step]
            if nxt < 0:
                continue
            acc.append(step)
            rec(nxt, remaining - 1)
            acc.pop()

    rec(r, n)
    return results


def path_word(path: MotzkinPath) -> PathWord:
    """Letter-for-step transcription, heights read off the path."""
    letters = []
    level = path.start_level
    for step in path.steps:
        letters.append(_trusted(Letter, kind=_STEP_LETTER[step], height=level))
        level += _DELTA[step]
    return _trusted(PathWord, letters=tuple(letters))


def path_from_word(word: PathWord) -> MotzkinPath:
    steps = tuple(_LETTER_STEP[letter.kind] for letter in word.letters)
    return MotzkinPath(word.start_level, steps)


def path_weight(word: PathWord, spec: CoeffSpec) -> MultiPoly:
    """Commutative weight: a_i -> lambda_{i+1}, b_i -> 1, c_i -> c_i."""
    out = MultiPoly.one()
    for letter in word.letters:
        if letter.kind == "a":
            out = out * spec.lam(letter.height + 1)
        elif letter.kind == "c":
            out = out * spec.c(letter.height)
    return out


def h_tilde(n: int, k: int, spec: CoeffSpec) -> MultiPoly:
    """Weight sum over all n-step paths from level 0 to level k.

    Walks the same step tree as enumerate_paths, one path at a time, but
    carries the path's letter key (see the module docstring) instead of
    materializing the path: an ascent from height h adds the unit of field
    2h, a level step the unit of field 2h + 1, a descent nothing.  Each
    finished path adds one to the count of its key.  Afterwards each
    distinct key becomes count * prod lambda_{h+1}**e * c_h**e once, from
    powers cached per letter.

    The walk never takes a step whose letter weighs zero.  Over Q a product
    of nonzero polynomials is nonzero, so that drops exactly the paths of
    zero weight.  It also never takes a step from which level k is out of
    reach, and asks the spec for a letter's weight only when it is about to
    take such a step for the first time, so a spec needs no entries past
    what the paths from 0 to k can reach.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"explicit enumeration capped at {ENUMERATION_CAP} steps"
        )
    if k > n:
        return MultiPoly.zero()
    weights: dict[int, MultiPoly] = {}  # letter field -> weight, as asked for
    # The key unit of the ascent and of the level step from each height:
    # None until asked for, 0 when the letter weighs zero.
    ups: list[int | None] = [None] * n
    flats: list[int | None] = [None] * n

    def unit(field: int) -> int:
        h = field >> 1
        weight = weights[field] = spec.c(h) if field & 1 else spec.lam(h + 1)
        return 0 if weight.is_zero else 1 << (LETTER_BITS * field)

    counts: defaultdict[int, int] = defaultdict(int)

    def rec(level: int, remaining: int, key: int) -> None:
        # Invariant: level k is reachable, |level - k| <= remaining.
        d = level - k
        if d == remaining:  # only descents are left: one path, no letters
            counts[key] += 1
            return
        r = remaining - 1
        if d < r:
            step = ups[level]
            if step is None:
                step = ups[level] = unit(2 * level)
            if step:
                rec(level + 1, r, key + step)
        if -d <= r:
            step = flats[level]
            if step is None:
                step = flats[level] = unit(2 * level + 1)
            if step:
                rec(level, r, key + step)
        if level and -d < r:
            rec(level - 1, r, key)

    rec(0, n, 0)

    mask = (1 << LETTER_BITS) - 1
    powers: dict[int, list[MultiPoly]] = {}  # letter field -> [w**0, w**1, ...]
    parts: list[MultiPoly] = []
    for key, count in counts.items():
        weight = None
        field = 0
        while key:
            e = key & mask
            if e:
                pw = powers.get(field)
                if pw is None:
                    pw = powers[field] = [MultiPoly.one(), weights[field]]
                while len(pw) <= e:
                    pw.append(pw[-1] * pw[1])
                weight = pw[e] if weight is None else weight * pw[e]
            key >>= LETTER_BITS
            field += 1
        if weight is None:  # the path has no ascent or level step
            weight = MultiPoly.one()
        parts.append(weight if count == 1 else weight * count)
    return MultiPoly.sum(parts)


def moments_by_paths(n: int, spec: CoeffSpec) -> MultiPoly:
    """The n-th moment as a sum over closed n-step paths."""
    return h_tilde(n, 0, spec)
