"""Heaps of monomers and dimers on a row of needles.

A monomer m_i occupies the single column i; a dimer d_i spans the two
columns i-1 and i.  A word over these pieces builds a configuration by
threading the pieces one at a time and letting each settle as far down as
it can: a piece lands one level above the highest earlier piece whose
columns it shares, or on the ground.  Two words are equivalent when they
settle to the same configuration, which happens exactly when one can be
turned into the other by repeatedly swapping adjacent pieces with disjoint
columns; the settled configuration is the canonical representative.

The canonical word of a heap lists its pieces level by level from the
ground up, left to right within a level.  A heap whose order has a unique
maximal piece is a pyramid, and that piece is its summit: pushing it down
flattens the whole heap.

Two pieces are comparable exactly when they share a column, so the heap
routines keep per-column bookkeeping rather than comparing pieces pairwise
(Cartier-Foata 1969; Viennot, "Heaps of pieces I", 1986): settling tracks
the next free level of each column, a summit is a piece on top of every
column it covers, and a minimal piece is at the bottom of every column it
covers.

Closed Motzkin paths embed into heaps: read the path word right to left,
drop the descents, and turn each ascent a_i into the dimer d_{i+1} and each
level step c_i into the monomer m_i.  The image is always a pyramid with
summit m_0 or d_1.  The map is inverted by a walk that unstacks the heap
from the ground up and whose every choice is forced; see heap_to_motzkin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .paths import MotzkinPath, PathWord, Step, path_word


class NotInImageError(ValueError):
    """The heap is not the image of any closed Motzkin path."""


@dataclass(frozen=True)
class Piece:
    """A monomer m_i (column i) or dimer d_i (columns i-1 and i)."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("m", "d"):
            raise ValueError(f"unknown piece kind {self.kind!r}")
        if self.kind == "m" and self.index < 0:
            raise ValueError("monomer index must be >= 0")
        if self.kind == "d" and self.index < 1:
            raise ValueError("dimer index must be >= 1")

    @cached_property
    def support(self) -> tuple[int, ...]:
        if self.kind == "m":
            return (self.index,)
        return (self.index - 1, self.index)

    @property
    def min_col(self) -> int:
        return self.support[0]

    def overlaps(self, other: "Piece") -> bool:
        a, b = self.support, other.support
        return a[0] <= b[-1] and b[0] <= a[-1]

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Piece":
        if len(text) >= 2 and text[0] in ("m", "d") and text[1:].isdigit():
            return cls(text[0], int(text[1:]))
        raise ValueError(f"cannot parse piece {text!r}")


HeapWord = tuple[Piece, ...]


def parse_heap_word(text: str) -> HeapWord:
    """Whitespace-separated piece tokens, e.g. "m0 d2 m3"."""
    return tuple(Piece.parse(tok) for tok in text.split())


def heap_word_text(word: Iterable[Piece]) -> str:
    return " ".join(str(p) for p in word)


@dataclass(frozen=True)
class PlacedPiece:
    piece: Piece
    level: int

    def __str__(self) -> str:
        return f"{self.piece}@{self.level}"


@dataclass(frozen=True)
class Heap:
    """A settled configuration, stored in canonical reading order."""

    placed: tuple[PlacedPiece, ...]

    @classmethod
    def from_placed(cls, placed: Iterable[PlacedPiece]) -> "Heap":
        ordered = tuple(
            sorted(placed, key=lambda pp: (pp.level, pp.piece.min_col))
        )
        return cls(ordered)

    @property
    def size(self) -> int:
        return len(self.placed)

    @property
    def max_level(self) -> int:
        return max((pp.level for pp in self.placed), default=-1)

    def columns(self) -> tuple[int, ...]:
        cols = {c for pp in self.placed for c in pp.piece.support}
        return tuple(sorted(cols))

    def to_json_dict(self) -> dict:
        return {
            "pieces": [
                {"kind": pp.piece.kind, "i": pp.piece.index, "level": pp.level}
                for pp in self.placed
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Heap":
        return cls.from_placed(
            PlacedPiece(Piece(entry["kind"], entry["i"]), entry["level"])
            for entry in data["pieces"]
        )

    def __str__(self) -> str:
        return " ".join(str(pp) for pp in self.placed)


def settle(word: HeapWord) -> Heap:
    """Drop the pieces of a word one by one onto the needles.

    ``top[c]`` is the next free level of column c, so each piece lands at
    the highest of them over the columns it covers: one pass over the word.
    """
    top: dict[int, int] = {}
    placed: list[PlacedPiece] = []
    for piece in word:
        i = piece.index
        if piece.kind == "m":  # column i
            level = top.get(i, 0)
            top[i] = level + 1
        else:  # columns i-1 and i
            level = max(top.get(i - 1, 0), top.get(i, 0))
            top[i - 1] = top[i] = level + 1
        placed.append(PlacedPiece(piece, level))
    return Heap.from_placed(placed)


def canonical_word(heap: Heap) -> HeapWord:
    """Bottom row to top, left to right within a row."""
    return tuple(pp.piece for pp in heap.placed)


def heaps_equivalent(w1: HeapWord, w2: HeapWord) -> bool:
    return settle(w1) == settle(w2)


def pyramid_summit(heap: Heap) -> Piece | None:
    """The unique maximal piece if the heap is a pyramid, else None.

    A piece is maximal when no piece with overlapping columns sits at a
    higher level, that is when it is at the top of every column it covers.
    One pass records each column's highest level; the empty heap has no
    summit.
    """
    top: dict[int, int] = {}
    for pp in heap.placed:
        for c in pp.piece.support:
            if top.get(c, -1) < pp.level:
                top[c] = pp.level
    summit = None
    for pp in heap.placed:
        for c in pp.piece.support:
            if top[c] != pp.level:
                break
        else:
            if summit is not None:
                return None
            summit = pp.piece
    return summit


# Pieces are immutable, so one table shared by every caller is safe; it
# holds one entry per (kind, index) ever seen, which path heights bound.
_INTERNED: dict[tuple[str, int], Piece] = {}


def _interned(kind: str, index: int) -> Piece:
    """One shared Piece per (kind, index): validated and given its support once."""
    piece = _INTERNED.get((kind, index))
    if piece is None:
        piece = _INTERNED[kind, index] = Piece(kind, index)
    return piece


_SUMMITS = (_interned("m", 0), _interned("d", 1))


def motzkin_to_heap(word: PathWord) -> HeapWord:
    """Right-to-left reading of a closed path word, descents dropped.

    a_i becomes the dimer d_{i+1} and c_i the monomer m_i.
    """
    if not word.is_closed:
        raise ValueError("path word must start and end at level 0")
    out: list[Piece] = []
    for letter in reversed(word.letters):
        if letter.kind == "a":
            out.append(_interned("d", letter.height + 1))
        elif letter.kind == "c":
            out.append(_interned("m", letter.height))
    return tuple(out)


def heap_to_motzkin(heap: Heap) -> MotzkinPath:
    """Reconstruct the unique closed path whose image is this heap.

    Walk the path backwards, from its end at height 0, unstacking the heap
    from the ground up.  Reversed, a descent climbs one level and adds no
    piece; a level step c_j consumes the monomer m_j at height j; an ascent
    a_{j-1} consumes the dimer d_j at height j and lands at j-1.  So a
    piece is consumed at its target, its highest column (j for both m_j
    and d_j), and the walk at height g reaches it by climbing, which needs
    target >= g.  The consumed pieces, in order, are the image word of the
    path, so each is minimal in what remains.

    Every choice is forced: at height g the walk consumes the minimal
    remaining piece with the smallest target t >= g.

    - No ties: the only pieces with equal targets are m_t and d_t (or
      copies of one piece), and they share column t, so they are
      comparable and cannot both be minimal.
    - No stranding: say a minimal piece q with target s, g <= s < t, is
      passed over for a piece p with target t.  Consuming p leaves the walk
      at height t or t-1, which is at least s.  At s it would mean p is
      d_{s+1}, which shares column s with q, so p and q could not both be
      minimal.  Above s, the walk must later come down to s to consume q,
      and the only step from s+1 to s consumes d_{s+1}, which shares column
      s with q.  Since q is minimal, d_{s+1} lies above q and cannot be
      consumed before it: q is stranded.

    Per-column stacks make the choice cheap: a minimal piece is at the
    bottom of every column it covers, and a piece with target c covers
    column c, so scanning the bottoms of columns g, g+1, ... finds the
    first candidate.  The walk rejects the heap when no piece qualifies or
    when it does not end at height 0.  A heap that is not settled can still
    yield a walk, so the last check is that settling the consumed pieces
    gives back the heap.
    """
    summit = pyramid_summit(heap)
    if summit is None:
        raise NotInImageError("heap is not a pyramid")
    if summit not in _SUMMITS:
        raise NotInImageError(f"summit {summit} is neither m0 nor d1")
    # Each column's pieces, top first, so that the bottom one is stack[-1].
    stacks: dict[int, list[PlacedPiece]] = {}
    for pp in reversed(heap.placed):
        for c in pp.piece.support:
            stacks.setdefault(c, []).append(pp)
    top_col = max(stacks)
    word: list[Piece] = []
    letters: list[Step] = []  # the path's steps, last step first
    g = 0
    for _ in range(heap.size):
        for c in range(g, top_col + 1):
            stack = stacks.get(c)
            if stack:
                pp = stack[-1]
                piece = pp.piece
                if piece.index == c and (
                    piece.kind == "m" or stacks[c - 1][-1] is pp
                ):
                    break
        else:
            raise NotInImageError("no closed path settles to this heap")
        for col in piece.support:
            stacks[col].pop()
        letters.extend([Step.SE] * (c - g))
        if piece.kind == "m":
            letters.append(Step.E)
            g = c
        else:
            letters.append(Step.NE)
            g = c - 1
        word.append(piece)
    if g != 0 or settle(tuple(word)) != heap:
        raise NotInImageError("no closed path settles to this heap")
    return MotzkinPath(0, tuple(reversed(letters)))


def path_to_heap(path: MotzkinPath) -> Heap:
    """Settled image of a closed path."""
    return settle(motzkin_to_heap(path_word(path)))
