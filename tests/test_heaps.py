"""Settling, canonical words, pyramids, and the closed-path bijection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heaporth.heaps import (
    Heap,
    NotInImageError,
    Piece,
    PieceOverflowError,
    canonical_word,
    heap_to_motzkin,
    heap_word_text,
    heaps_equivalent,
    motzkin_to_heap,
    parse_heap_word,
    path_to_heap,
    pyramid_summit,
    settle,
)
from heaporth.paths import MotzkinPath, PathWord, Step, enumerate_paths, path_word

from oracles import (
    heap_to_motzkin_backtrack,
    pyramid_summit_pairwise,
    settle_pairwise,
    settle_placed,
    swap_closure,
)

# the worked example: two words with the same heap and its canonical reading
W1 = "m0 d2 m2 d1 m1 d2 m3 m3"
W2 = "m3 d2 m0 d1 m3 m1 m2 d2"
W_CANONICAL = "m0 d2 m3 d1 m2 m3 m1 d2"

# the worked 13-step closed path and the printed reading of its image heap
PATH_WORD_13 = "a0 c1 a1 b2 c1 a1 a2 b3 b2 b1 c0 a0 b1"
IMAGE_WORD_13 = "d1 d3 m0 d2 m1 d2 m1 d1"


class TestPieces:
    def test_supports(self):
        assert Piece("m", 0).support == (0,)
        assert Piece("d", 2).support == (1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Piece("d", 0)
        with pytest.raises(ValueError):
            Piece("m", -1)
        with pytest.raises(ValueError):
            Piece.parse("q3")

    def test_word_text_roundtrip(self):
        word = parse_heap_word(W1)
        assert heap_word_text(word) == W1


class TestSettle:
    def test_worked_example_levels(self):
        heap = settle(parse_heap_word(W1))
        levels = [(str(pp.piece), pp.level) for pp in heap.placed]
        assert levels == [
            ("m0", 0), ("d2", 0), ("m3", 0),
            ("d1", 1), ("m2", 1), ("m3", 1),
            ("m1", 2), ("d2", 3),
        ]

    def test_empty_word(self):
        assert settle(()) == Heap(())

    def test_self_conflict_stacks(self):
        heap = settle(parse_heap_word("m0 m0"))
        assert [pp.level for pp in heap.placed] == [0, 1]

    def test_canonical_word(self):
        assert heap_word_text(canonical_word(settle(parse_heap_word(W1)))) == W_CANONICAL

    def test_second_word_same_heap(self):
        assert heap_word_text(canonical_word(settle(parse_heap_word(W2)))) == W_CANONICAL

    def test_canonical_word_settles_back(self):
        heap = settle(parse_heap_word(W1))
        assert settle(canonical_word(heap)) == heap

    def test_canonicalization_idempotent(self):
        word = parse_heap_word(W2)
        once = canonical_word(settle(word))
        assert canonical_word(settle(once)) == once


class TestEquivalence:
    def test_worked_pair(self):
        assert heaps_equivalent(parse_heap_word(W1), parse_heap_word(W2))

    def test_disjoint_commute(self):
        assert heaps_equivalent(parse_heap_word("m0 d2"), parse_heap_word("d2 m0"))

    def test_different_multisets(self):
        assert not heaps_equivalent(parse_heap_word("m0 m0"), parse_heap_word("m0"))

    def test_conflicting_do_not_commute(self):
        assert not heaps_equivalent(parse_heap_word("m0 d1"), parse_heap_word("d1 m0"))

    def test_matches_swap_closure_short_words(self):
        # full-length exhaustive version lives in the acceptance suite
        pieces = [Piece("m", i) for i in range(4)] + [Piece("d", i) for i in (1, 2, 3)]
        import itertools

        for length in range(1, 5):
            groups: dict[Heap, set] = {}
            for word in itertools.product(pieces, repeat=length):
                groups.setdefault(settle(word), set()).add(word)
            for members in groups.values():
                assert swap_closure(next(iter(members))) == members


class TestPyramids:
    def test_worked_heap_is_not_a_pyramid(self):
        assert pyramid_summit(settle(parse_heap_word(W1))) is None

    def test_single_dimer(self):
        assert pyramid_summit(settle(parse_heap_word("d1"))) == Piece("d", 1)

    def test_empty_heap(self):
        assert pyramid_summit(Heap(())) is None

    def test_path_images_are_pyramids(self):
        for n in range(1, 7):
            for path in enumerate_paths(0, 0, n):
                summit = pyramid_summit(path_to_heap(path))
                assert summit in (Piece("m", 0), Piece("d", 1))


class TestMotzkinToHeap:
    def test_single_arch(self):
        assert motzkin_to_heap(PathWord.parse("a0 b1")) == (Piece("d", 1),)

    def test_single_flat(self):
        assert motzkin_to_heap(PathWord.parse("c0")) == (Piece("m", 0),)

    def test_worked_path(self):
        image = motzkin_to_heap(PathWord.parse(PATH_WORD_13))
        assert heap_word_text(image) == "d1 m0 d3 d2 m1 d2 m1 d1"
        assert heaps_equivalent(image, parse_heap_word(IMAGE_WORD_13))

    def test_open_word_rejected(self):
        with pytest.raises(ValueError):
            motzkin_to_heap(PathWord.parse("a0"))

    def test_dyck_paths_become_all_dimer_pyramids(self):
        for n in (2, 4, 6):
            for path in enumerate_paths(0, 0, n):
                if not path.is_dyck:
                    continue
                heap = path_to_heap(path)
                assert all(pp.piece.kind == "d" for pp in heap.placed)
                assert pyramid_summit(heap) == Piece("d", 1)

    def test_step_count_is_2d_plus_m(self):
        for n in range(1, 7):
            for path in enumerate_paths(0, 0, n):
                heap = path_to_heap(path)
                d = sum(1 for pp in heap.placed if pp.piece.kind == "d")
                m = heap.size - d
                assert 2 * d + m == n


class TestHeapToMotzkin:
    def test_single_monomer(self):
        path = heap_to_motzkin(settle(parse_heap_word("m0")))
        assert path == MotzkinPath(0, (Step.E,))

    def test_single_dimer(self):
        path = heap_to_motzkin(settle(parse_heap_word("d1")))
        assert path == MotzkinPath(0, (Step.NE, Step.SE))

    def test_worked_roundtrip(self):
        word = PathWord.parse(PATH_WORD_13)
        heap = settle(motzkin_to_heap(word))
        reconstructed = heap_to_motzkin(heap)
        assert path_word(reconstructed).to_text() == PATH_WORD_13

    def test_roundtrip_exhaustive_small(self):
        for n in range(1, 7):
            for path in enumerate_paths(0, 0, n):
                assert heap_to_motzkin(path_to_heap(path)) == path

    def test_injective_small(self):
        seen = set()
        for n in range(1, 7):
            for path in enumerate_paths(0, 0, n):
                heap = path_to_heap(path)
                assert heap not in seen
                seen.add(heap)

    def test_wrong_summit_rejected(self):
        with pytest.raises(NotInImageError):
            heap_to_motzkin(settle(parse_heap_word("m1")))
        with pytest.raises(NotInImageError):
            heap_to_motzkin(settle(parse_heap_word("d2")))

    def test_non_pyramid_rejected(self):
        with pytest.raises(NotInImageError):
            heap_to_motzkin(settle(parse_heap_word("m0 m2")))

    def test_empty_heap_rejected(self):
        with pytest.raises(NotInImageError):
            heap_to_motzkin(Heap(()))

    def test_unsettled_heap_rejected(self):
        # m0 at levels 0 and 2 has a gap; the path E,E settles to m0@0 m0@1
        heap = Heap.from_json_dict(
            {"pieces": [{"kind": "m", "i": 0, "level": 0}, {"kind": "m", "i": 0, "level": 2}]}
        )
        assert str(path_to_heap(MotzkinPath.parse("E,E@0"))) == "m0@0 m0@1"
        with pytest.raises(NotInImageError):
            heap_to_motzkin(heap)


def _inversion(reconstruct, heap):
    """The path, or the rejection with its message."""
    try:
        return reconstruct(heap)
    except NotInImageError as exc:
        return NotInImageError, str(exc)


class TestAgainstPairwiseOracles:
    def test_every_closed_path_to_length_10(self):
        # the subset backtrack is 2^n, so this stops well below ENUMERATION_CAP
        total = 0
        for n in range(1, 11):
            for path in enumerate_paths(0, 0, n):
                word = motzkin_to_heap(path_word(path))
                heap = settle(word)
                assert heap == settle_pairwise(word)
                assert pyramid_summit(heap) == pyramid_summit_pairwise(heap)
                assert heap_to_motzkin(heap) == heap_to_motzkin_backtrack(heap) == path
                total += 1
        assert total == 3561


_PIECES = [Piece("m", i) for i in range(5)] + [Piece("d", i) for i in range(1, 5)]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=10))
def test_random_words_match_pairwise_oracles(word):
    heap = settle(word)
    assert heap == settle_pairwise(word)
    assert pyramid_summit(heap) == pyramid_summit_pairwise(heap)
    assert _inversion(heap_to_motzkin, heap) == _inversion(heap_to_motzkin_backtrack, heap)


class TestJson:
    def test_golden(self):
        heap = settle(parse_heap_word("m0 d2"))
        assert heap.to_json_dict() == {
            "pieces": [
                {"kind": "m", "i": 0, "level": 0},
                {"kind": "d", "i": 2, "level": 0},
            ]
        }

    def test_roundtrip(self):
        heap = settle(parse_heap_word(W1))
        assert Heap.from_json_dict(heap.to_json_dict()) == heap


def _assert_renders_like(heap, placed):
    """Every reading of the flat heap equals that of the PlacedPiece tuple."""
    assert heap.placed == placed
    assert str(heap) == " ".join(str(pp) for pp in placed)
    assert heap.to_json_dict() == {
        "pieces": [
            {"kind": pp.piece.kind, "i": pp.piece.index, "level": pp.level} for pp in placed
        ]
    }
    assert canonical_word(heap) == tuple(pp.piece for pp in placed)


_PIECES_TO_5 = [Piece("m", i) for i in range(6)] + [Piece("d", i) for i in range(1, 6)]
_WORDS_TO_12 = st.lists(st.sampled_from(_PIECES_TO_5), max_size=12)


@st.composite
def _word_pairs(draw):
    """A word and a second one: drawn apart, permuted, or moved by commuting swaps."""
    w1 = draw(_WORDS_TO_12)
    how = draw(st.sampled_from(("apart", "permuted", "commuted")))
    if how == "apart":
        return w1, draw(_WORDS_TO_12)
    if how == "permuted":
        return w1, draw(st.permutations(w1))
    w2 = list(w1)
    for i in draw(st.lists(st.integers(0, max(len(w1) - 2, 0)), max_size=24)):
        if i + 1 < len(w2) and not w2[i].overlaps(w2[i + 1]):
            w2[i], w2[i + 1] = w2[i + 1], w2[i]
    return w1, w2


@settings(max_examples=500, deadline=None)
@given(_word_pairs())
def test_flat_heaps_match_placed_oracle(pair):
    w1, w2 = pair
    h1, h2 = settle(w1), settle(w2)
    p1, p2 = settle_placed(w1), settle_placed(w2)
    _assert_renders_like(h1, p1)
    _assert_renders_like(h2, p2)
    assert (h1 == h2) == (p1 == p2)
    if h1 == h2:
        assert hash(h1) == hash(h2)


def test_path_to_heap_matches_the_word_route():
    total = 0
    for n in range(1, 13):
        for path in enumerate_paths(0, 0, n):
            heap = path_to_heap(path)
            assert heap == settle(motzkin_to_heap(path_word(path)))
            assert Heap.from_json_dict(heap.to_json_dict()) == heap
            total += 1
    assert total == 24870


class TestFlatLayout:
    def test_worked_example_renders_like_oracle(self):
        for text in (W1, W2, IMAGE_WORD_13, "m0 m0", ""):
            word = parse_heap_word(text)
            _assert_renders_like(settle(word), settle_placed(word))

    def test_open_paths_rejected(self):
        for text in ("NE@0", "E@1", "NE,SE@1", "SE@1"):
            with pytest.raises(ValueError, match="must start and end at level 0"):
                path_to_heap(MotzkinPath.parse(text))

    def test_step_less_open_paths_rejected(self):
        for text in ("@1", "@2"):
            with pytest.raises(ValueError, match="must start and end at level 0"):
                path_to_heap(MotzkinPath.parse(text))
        assert path_to_heap(MotzkinPath.parse("@0")) == Heap(())

    def test_negative_levels_round_trip(self):
        data = {"pieces": [{"kind": "d", "i": 1, "level": -3}, {"kind": "m", "i": 4, "level": -7}]}
        heap = Heap.from_json_dict(data)
        assert str(heap) == "m4@-7 d1@-3"
        assert Heap.from_json_dict(heap.to_json_dict()) == heap

    def test_settle_at_the_cap(self):
        heap = settle(parse_heap_word("m2147483647 d2147483648"))
        assert str(heap) == "m2147483647@0 d2147483648@1"

    @pytest.mark.parametrize("text", ["m2147483648", "m0 d2147483649", "m99999999999 d5"])
    def test_settle_past_the_cap(self, text):
        with pytest.raises(PieceOverflowError, match="past the heap layout"):
            settle(parse_heap_word(text))

    @pytest.mark.parametrize("kind, i", [("m", 2**31), ("d", 2**31 + 1)])
    def test_json_past_the_cap(self, kind, i):
        data = {"pieces": [{"kind": "m", "i": 0, "level": 0}, {"kind": kind, "i": i, "level": 1}]}
        with pytest.raises(PieceOverflowError):
            Heap.from_json_dict(data)
