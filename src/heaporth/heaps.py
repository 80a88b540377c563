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

A settled heap is stored flat, as ``Heap.key``: a sorted tuple with one int
``level << 32 | f`` per placed piece.  The field ``f = 2*index - (kind ==
"d")`` sends m_i to 2i and d_i to 2i - 1, so a piece's lowest column is
``f >> 1``, its highest column (its target, see heap_to_motzkin) is
``(f + 1) >> 1`` and its kind is ``f & 1``.  Int order is therefore
(level, f), and f orders pieces by their lowest column; the one tie, m_i
(2i) against d_{i+1} (2i + 1), is between pieces that share column i and
so never share a level in a settled heap.  That makes int order the
canonical reading order, and sorting, equality and hashing run natively;
``Piece`` and ``PlacedPiece`` appear only when parsing and rendering.
Levels sit in the unbounded top field, so the negative levels a
hand-written JSON heap may carry still encode.  A field that does not fit
its 32 bits, a monomer index above 2^31 - 1 or a dimer index above 2^31,
raises ``PieceOverflowError``; nothing ever wraps.

Closed Motzkin paths embed into heaps: read the path word right to left,
drop the descents, and turn each ascent a_i into the dimer d_{i+1} and each
level step c_i into the monomer m_i.  The image is always a pyramid with
summit m_0 or d_1.  ``path_to_heap`` reads the steps themselves right to
left from height 0: a descent climbs one level, a level step at height g
gives the field 2g, and an ascent ending at height g gives 2g - 1 and
leaves height g - 1; no letters or words are built.  The map is inverted by
a walk that unstacks the heap from the ground up and whose every choice is
forced; see heap_to_motzkin.  In a pyramid every piece is linked to the
summit by a chain of pieces that share a column, each chain step moving the
highest column by at most one, so when the summit is m_0 or d_1 no column
exceeds the heap's size and the walk's per-column stacks fit in a list of
size + 1 entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .paths import MotzkinPath, PathWord, Step


class NotInImageError(ValueError):
    """The heap is not the image of any closed Motzkin path."""


class PieceOverflowError(ValueError):
    """A piece index lies outside the packed heap layout."""


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


_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def _fields(pieces: Iterable[Piece]) -> list[int]:
    """Each piece's field 2*index - (kind == "d"), checked against its 32 bits."""
    fields = [2 * p.index - (p.kind == "d") for p in pieces]
    widest = max(fields, default=0)
    if widest > _FIELD_MASK:
        raise PieceOverflowError(
            f"piece {_piece(widest)} is past the heap layout: monomer indices stop "
            f"at {_FIELD_MASK >> 1} and dimer indices at {(_FIELD_MASK + 1) >> 1}"
        )
    return fields


# Pieces are immutable, so one table shared by every caller is safe; it
# holds one entry per field ever decoded, which path heights bound in the
# enumerations and the input bounds on the command line.
_INTERNED: dict[int, Piece] = {}


def _piece(f: int) -> Piece:
    """The one shared Piece of a field: validated and given its support once."""
    piece = _INTERNED.get(f)
    if piece is None:
        piece = _INTERNED[f] = Piece("d" if f & 1 else "m", (f + 1) >> 1)
    return piece


@dataclass(frozen=True)
class Heap:
    """A settled configuration: one int per placed piece, in canonical order."""

    key: tuple[int, ...]

    @classmethod
    def from_placed(cls, placed: Iterable[PlacedPiece]) -> "Heap":
        placed = tuple(placed)
        fields = _fields(pp.piece for pp in placed)
        return cls(tuple(sorted(pp.level << _FIELD_BITS | f for pp, f in zip(placed, fields))))

    @property
    def placed(self) -> tuple[PlacedPiece, ...]:
        return tuple(
            PlacedPiece(_piece(k & _FIELD_MASK), k >> _FIELD_BITS) for k in self.key
        )

    @property
    def size(self) -> int:
        return len(self.key)

    @property
    def max_level(self) -> int:
        return self.key[-1] >> _FIELD_BITS if self.key else -1

    def columns(self) -> tuple[int, ...]:
        fields = {k & _FIELD_MASK for k in self.key}
        return tuple(sorted({f >> 1 for f in fields} | {(f + 1) >> 1 for f in fields}))

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


def _settle_fields(fields: Iterable[int]) -> tuple[int, ...]:
    """The sorted key of the heap that a word of fields settles to.

    ``top[c]`` is the next free level of column c, so each piece lands at
    the highest of them over the columns it covers: one pass over the word.
    """
    top: dict[int, int] = {}
    key: list[int] = []
    for f in fields:
        lo = f >> 1
        if f & 1:  # d_{lo+1}: columns lo and lo + 1
            level = top.get(lo, 0)
            right = top.get(lo + 1, 0)
            if right > level:
                level = right
            top[lo] = top[lo + 1] = level + 1
        else:  # m_lo: column lo
            level = top.get(lo, 0)
            top[lo] = level + 1
        key.append(level << _FIELD_BITS | f)
    key.sort()
    return tuple(key)


def settle(word: HeapWord) -> Heap:
    """Drop the pieces of a word one by one onto the needles."""
    return Heap(_settle_fields(_fields(word)))


def canonical_word(heap: Heap) -> HeapWord:
    """Bottom row to top, left to right within a row."""
    return tuple(_piece(k & _FIELD_MASK) for k in heap.key)


def heaps_equivalent(w1: HeapWord, w2: HeapWord) -> bool:
    return settle(w1) == settle(w2)


def _summit_field(key: tuple[int, ...]) -> int | None:
    """The field of the unique maximal piece of a heap key, or None.

    A piece is maximal when no piece with overlapping columns sits at a
    higher level, that is when it is at the top of every column it covers.
    The key runs up the levels, so one pass leaves each column's highest
    level in ``top``; the empty heap has no summit.
    """
    top: dict[int, int] = {}
    for k in key:
        f = k & _FIELD_MASK
        top[f >> 1] = top[(f + 1) >> 1] = k >> _FIELD_BITS
    summit = None
    for k in key:
        f = k & _FIELD_MASK
        level = k >> _FIELD_BITS
        if top[f >> 1] == level and top[(f + 1) >> 1] == level:
            if summit is not None:
                return None
            summit = f
    return summit


def pyramid_summit(heap: Heap) -> Piece | None:
    """The unique maximal piece if the heap is a pyramid, else None."""
    f = _summit_field(heap.key)
    return None if f is None else _piece(f)


def motzkin_to_heap(word: PathWord) -> HeapWord:
    """Right-to-left reading of a closed path word, descents dropped.

    a_i becomes the dimer d_{i+1} and c_i the monomer m_i.
    """
    if not word.is_closed:
        raise ValueError("path word must start and end at level 0")
    out: list[Piece] = []
    for letter in reversed(word.letters):
        if letter.kind == "a":
            out.append(_piece(2 * letter.height + 1))
        elif letter.kind == "c":
            out.append(_piece(2 * letter.height))
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
    first candidate.  The stacks are a list indexed by column, which the
    summit check bounds by the heap's size (see the module docstring).  The
    walk rejects the heap when no piece qualifies or when it does not end
    at height 0.  A heap that is not settled can still yield a walk, so the
    last check is that settling the consumed pieces gives back the heap.
    """
    return _unstack(heap.key, _summit_field(heap.key))


def _unstack(key: tuple[int, ...], summit: int | None) -> MotzkinPath:
    """heap_to_motzkin on a heap key whose summit field is already known."""
    if summit is None:
        raise NotInImageError("heap is not a pyramid")
    if summit > 1:  # neither m0 (field 0) nor d1 (field 1)
        raise NotInImageError(f"summit {_piece(summit)} is neither m0 nor d1")
    mask = _FIELD_MASK
    # Each column's pieces, top first, so that the bottom one is stack[-1].
    stacks: list[list[int]] = [[] for _ in range(len(key) + 1)]
    for k in reversed(key):
        f = k & mask
        stacks[(f + 1) >> 1].append(k)
        if f & 1:
            stacks[f >> 1].append(k)
    word: list[int] = []
    letters: list[Step] = []  # the path's steps, last step first
    g = 0
    for _ in key:
        for c in range(g, len(stacks)):
            stack = stacks[c]
            if stack:
                k = stack[-1]
                f = k & mask
                if (f + 1) >> 1 == c and (not f & 1 or stacks[c - 1][-1] == k):
                    break
        else:
            raise NotInImageError("no closed path settles to this heap")
        stack.pop()
        if c > g:
            letters += [Step.SE] * (c - g)
        if f & 1:
            stacks[c - 1].pop()
            letters.append(Step.NE)
            g = c - 1
        else:
            letters.append(Step.E)
            g = c
        word.append(f)
    if g != 0 or _settle_fields(word) != key:
        raise NotInImageError("no closed path settles to this heap")
    letters.reverse()
    return MotzkinPath(0, tuple(letters))


def path_to_heap(path: MotzkinPath) -> Heap:
    """Settled image of a closed path, read off its steps right to left."""
    fields: list[int] = []
    g = 0
    for step in reversed(path.steps):
        if step is Step.SE:
            g += 1
        elif step is Step.E:
            fields.append(2 * g)
        else:
            fields.append(2 * g - 1)
            g -= 1
    # Read from an assumed end at 0, the walk ends at start - end.
    if g or path.start_level:
        raise ValueError("path word must start and end at level 0")
    return Heap(_settle_fields(fields))
