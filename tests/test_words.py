import doctest

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import disksurgery.words
from disksurgery.words import MAX_RANK, format_letter
from disksurgery import (
    CyclicWord,
    Word,
    WordSyntaxError,
    abelianize,
    apply_auto_cyclic,
    concat,
    format_word,
    parse_word,
    unoriented_cyclic_class,
)
from disksurgery.primitivity import enumerate_whitehead_autos
from helpers import DISK_E_FACTORS, DISK_E_WORD, OUTCOME_SHORT, apply_auto


def letters(rank=3, max_size=64):
    alphabet = [i for i in range(-rank, rank + 1) if i != 0]
    return st.lists(st.sampled_from(alphabet), max_size=max_size)


class TestParseFormat:
    def test_basic(self):
        assert parse_word("x1 x2^-1", 2).letters == (1, -2)

    def test_empty(self):
        assert parse_word("1", 3).letters == ()
        assert format_word(Word()) == "1"

    def test_index_beyond_rank(self):
        with pytest.raises(WordSyntaxError, match="token 1.*index 3 exceeds rank 2"):
            parse_word("x3 x1", 2)

    def test_index_zero(self):
        with pytest.raises(WordSyntaxError, match="token 2.*at least 1"):
            parse_word("x1 x0", 2)

    @pytest.mark.parametrize("bad", ["y1", "x1^1", "x1^-2", "x", "x1 1", "x-1"])
    def test_malformed_tokens(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad, 3)

    # Arabic-Indic one and fullwidth one: digits to `\d`, not letters.
    @pytest.mark.parametrize("digit", ["\u0661", "\uff11"])
    def test_index_in_ascii_digits_only(self, digit):
        with pytest.raises(WordSyntaxError, match=f"token 2: 'x{digit}' is not of the form"):
            parse_word(f"x2 x{digit}", 3)

    def test_index_of_many_digits_is_not_converted(self):
        # int() refuses more than 4,300 digits; the index exceeds every rank.
        digits = "9" * 5000
        with pytest.raises(WordSyntaxError) as info:
            parse_word(f"x1 x{digits}^-1", 3)
        assert str(info.value) == f"token 2: generator index {digits} exceeds rank 3"

    def test_leading_zeros_do_not_count(self):
        assert parse_word("x" + "0" * 5000 + "2 x01^-1", 3).letters == (2, -1)

    @given(letters())
    def test_format_parse_round_trip(self, seq):
        w = Word(tuple(seq))
        assert parse_word(format_word(w), 3) == w

    def test_doctests(self):
        failures, _ = doctest.testmod(disksurgery.words)
        assert failures == 0


class TestTokenTable:
    """``format_word`` reads letter tokens from a bounded table."""

    @staticmethod
    def joined(seq):
        return " ".join(format_letter(a) for a in seq)

    @pytest.mark.parametrize("seq", [
        (1,), (-1,), (2,), (-2,), (MAX_RANK,), (-MAX_RANK,),
        (1, -1, 2, -2, MAX_RANK, -MAX_RANK, 1, -MAX_RANK),
    ])
    def test_equals_format_letter(self, seq):
        assert format_word(Word(seq)) == self.joined(seq)
        assert format_word(seq) == self.joined(seq)

    def test_empty_word(self):
        assert format_word(Word()) == "1"
        assert format_word(CyclicWord()) == "1"
        assert format_word(()) == "1"

    def test_bool_letter_formats_as_its_int(self):
        assert format_word(Word((True, -2))) == "x1 x2^-1"
        assert format_word(Word((1, True))) == "x1 x1"

    def test_letters_after_the_table_is_full(self):
        tokens = disksurgery.words._TOKENS
        bound = disksurgery.words._TOKENS_BOUND
        for start in range(1, 3 * bound, 64):
            seq = tuple(a for i in range(start, start + 64) for a in (i, -i))
            assert format_word(seq) == self.joined(seq)
        assert len(tokens) == bound
        late = (MAX_RANK - 5, -(MAX_RANK - 6), 4 * bound + 7, -(4 * bound + 7))
        assert not set(late) & set(tokens)
        assert format_word(Word(late)) == self.joined(late)
        assert format_word(Word(late)) == self.joined(late)
        assert len(tokens) == bound


class TestLetterRange:
    @pytest.mark.parametrize("cls", [Word, CyclicWord])
    @pytest.mark.parametrize("bad", [MAX_RANK + 1, -MAX_RANK - 1, 2**70, -2**70])
    def test_index_beyond_max_rank_rejected(self, cls, bad):
        # Rejected before any kernel sees it, on either backend.
        with pytest.raises(ValueError, match="exceeds the largest rank"):
            cls((1, bad, 2))

    @pytest.mark.parametrize("cls", [Word, CyclicWord])
    def test_max_rank_accepted(self, cls):
        assert len(cls((MAX_RANK, 1, -MAX_RANK, 2))) == 4

    def test_bool_letters_stored_as_ints(self, backend):
        # The compiled kernels return ints; the pure ones pass letters through.
        results = [Word((True, -2)).letters, CyclicWord((True, 2)).letters,
                   Word((True, True)).reduced().letters, Word((1, True)).cyclic().letters]
        assert results == [(1, -2), (1, 2), (1, 1), (1, 1)]
        assert all(type(a) is int for letters in results for a in letters)


class TestReduce:
    def test_disk_e_word_reduces_to_x2(self):
        w = parse_word(DISK_E_WORD, 3)
        assert len(w) == 21
        assert format_word(w.reduced()) == "x2"

    def test_cancelling_pair(self):
        assert parse_word("x1 x1^-1", 2).reduced() == Word()

    def test_already_reduced(self):
        w = parse_word(OUTCOME_SHORT, 2)
        assert w.reduced() == w

    @given(letters())
    def test_idempotent(self, seq):
        w = Word(tuple(seq))
        assert w.reduced().reduced() == w.reduced()

    @given(letters())
    def test_cancellation_with_inverse(self, seq):
        w = Word(tuple(seq))
        assert (w * w.inverse()).reduced() == Word()
        assert len(w * w.inverse()) == 2 * len(w)

    @given(letters())
    def test_length_shrinks_iff_unreduced(self, seq):
        w = Word(tuple(seq))
        r = w.reduced()
        assert len(r) <= len(w)
        assert (len(r) == len(w)) == (r == w)


class TestCyclic:
    def test_conjugate_of_generator(self):
        assert parse_word("x1 x2 x1^-1", 2).cyclic() == CyclicWord((2,))

    def test_no_shrinkage_when_cyclically_reduced(self):
        w = parse_word(OUTCOME_SHORT, 2)
        assert len(w.cyclic()) == 6

    def test_cancels_to_empty(self):
        assert parse_word("x1 x1^-1", 2).cyclic() == CyclicWord(())

    @given(letters(max_size=32), letters(max_size=32))
    def test_conjugation_invariant(self, seq, conj):
        w, u = Word(tuple(seq)), Word(tuple(conj))
        assert (u * w * u.inverse()).cyclic() == w.cyclic()

    @given(letters(max_size=32))
    def test_any_rotation_same_canonical(self, seq):
        base = Word(tuple(seq)).cyclic()
        n = len(base)
        for r in range(n):
            rotated = base.letters[r:] + base.letters[:r]
            assert CyclicWord(rotated).letters == base.letters

    @given(letters(max_size=32))
    def test_canonical_is_cyclically_reduced(self, seq):
        w = CyclicWord(tuple(seq)).letters
        for i in range(len(w)):
            assert w[i] != -w[(i + 1) % len(w)]

    def test_words_over_two_inverses_hash_apart(self):
        # CPython hashes -1 and -2 alike, so the letter tuple alone gives
        # these 16 words of length 16 one hash, and a set of them compares
        # each pair by __eq__.
        words = {CyclicWord((-1,) * p + (-2,) * (16 - p)) for p in range(16)}
        assert len({hash(w) for w in words}) == len(words) == 16

    @given(letters(max_size=32))
    def test_hash_follows_equality(self, seq):
        w = CyclicWord(tuple(seq))
        assert hash(w) == hash(CyclicWord._from_canonical(w.letters))


class TestTextForms:
    @pytest.mark.parametrize("word,shown,text,letters", [
        (Word((1, -2)), "Word('x1 x2^-1')", "x1 x2^-1", [1, -2]),
        (Word(), "Word('1')", "1", []),
        (CyclicWord((2, 1, 2, -2)), "CyclicWord('x1 x2')", "x1 x2", [1, 2]),
        (CyclicWord((1, -1)), "CyclicWord('1')", "1", []),
    ])
    def test_repr_str_len_iter(self, word, shown, text, letters):
        assert repr(word) == shown
        assert str(word) == text
        assert len(word) == len(letters)
        assert list(iter(word)) == letters


class TestInvertConcat:
    def test_invert_example(self):
        assert format_word(parse_word("x1 x2^-1", 2).inverse()) == "x2 x1^-1"

    def test_invert_empty(self):
        assert Word().inverse() == Word()

    @given(letters())
    def test_involution(self, seq):
        w = Word(tuple(seq))
        assert w.inverse().inverse() == w

    def test_concat_does_not_reduce(self):
        w = parse_word("x1", 2) * parse_word("x1^-1", 2)
        assert len(w) == 2

    def test_concat_identity(self):
        v = parse_word("x2 x1", 2)
        assert concat(Word(), v) == v

    def test_factors_concatenate_to_disk_e_word(self):
        parts = [parse_word(t, 3) for t in DISK_E_FACTORS]
        assert concat(*parts) == parse_word(DISK_E_WORD, 3)


class TestAbelianize:
    def test_basic(self):
        assert abelianize(parse_word("x1 x2^-1", 2), 2) == (1, -1)

    def test_disk_e_word(self):
        w = parse_word(DISK_E_WORD, 3)
        assert abelianize(w, 3) == (0, 1, 0)
        assert abelianize(w, 3) == abelianize(w.reduced(), 3)

    def test_outcome_short(self):
        assert abelianize(parse_word(OUTCOME_SHORT, 2), 2) == (1, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds rank"):
            abelianize(Word((3,)), 2)

    @given(letters())
    def test_reduction_invariant(self, seq):
        w = Word(tuple(seq))
        assert abelianize(w, 3) == abelianize(w.reduced(), 3)


class TestUnorientedClass:
    def test_inversion_collapses(self):
        w = parse_word(OUTCOME_SHORT, 2)
        assert unoriented_cyclic_class(w) == unoriented_cyclic_class(w.inverse())

    @given(letters(max_size=24), letters(max_size=8))
    def test_conjugation_and_inversion_invariant(self, seq, conj):
        w, u = Word(tuple(seq)), Word(tuple(conj))
        expected = unoriented_cyclic_class(w)
        assert unoriented_cyclic_class(u * w * u.inverse()) == expected
        assert unoriented_cyclic_class(w.inverse()) == expected


def brute_free_reduce(seq):
    out = []
    for a in seq:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def brute_cyclic_reduce(seq):
    """Cancel adjacent inverse pairs, cyclically, until none is left."""
    w = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(w)):
            j = (i + 1) % len(w)
            if len(w) >= 2 and w[i] == -w[j]:
                del w[max(i, j)], w[min(i, j)]
                changed = True
                break
    return tuple(w)


def least_of_rotations(*words):
    """Least rotation of any of ``words`` under x1 < x1^-1 < x2 < ..."""
    rotations = [w[r:] + w[:r] for w in words for r in range(max(len(w), 1))]
    return min(rotations, key=lambda w: [2 * abs(a) - (a > 0) for a in w])


def invert(seq):
    return tuple(-a for a in reversed(seq))


# The backend stays swapped for every example, as intended.
SWAPPED = settings(max_examples=80, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTrustedPaths:
    """Results built from checked words skip the checks; they must equal
    what the checking constructors give."""

    @SWAPPED
    @given(letters(rank=4, max_size=40))
    def test_unoriented_class_is_least_rotation_of_either(self, backend, seq):
        reduced = brute_cyclic_reduce(seq)
        want = least_of_rotations(reduced, invert(reduced))
        assert unoriented_cyclic_class(Word(tuple(seq))).letters == want
        assert unoriented_cyclic_class(CyclicWord(tuple(seq))).letters == want

    @SWAPPED
    @given(letters(rank=4, max_size=40))
    def test_cyclic_inverse_is_least_rotation_of_inverse(self, backend, seq):
        inverse = CyclicWord(tuple(seq)).inverse()
        assert inverse.letters == least_of_rotations(invert(brute_cyclic_reduce(seq)))
        assert inverse == CyclicWord(invert(seq))

    @SWAPPED
    @given(letters(), letters())
    def test_derived_words_equal_checked_ones(self, backend, left, right):
        u, v = Word(tuple(left)), Word(tuple(right))
        derived = [
            (concat(u, v), Word(tuple(left) + tuple(right))),
            (u * v, Word(tuple(left) + tuple(right))),
            (u.inverse(), Word(invert(left))),
            (u.reduced(), Word(brute_free_reduce(left))),
        ]
        for got, want in derived:
            assert type(got) is Word and type(got.letters) is tuple
            assert got == want
        cyclic = u.cyclic()
        assert type(cyclic) is CyclicWord and type(cyclic.letters) is tuple
        assert cyclic == CyclicWord(tuple(left))
        assert cyclic.letters == least_of_rotations(brute_cyclic_reduce(left))

    @SWAPPED
    @given(letters(), st.sampled_from(enumerate_whitehead_autos(3)))
    def test_parsed_words_and_images_equal_checked_ones(self, backend, seq, auto):
        word = Word(tuple(seq))
        parsed = parse_word(format_word(word), 3)
        assert type(parsed.letters) is tuple and parsed == word
        cyclic = apply_auto_cyclic(auto, word.cyclic())
        assert type(cyclic.letters) is tuple
        assert cyclic == CyclicWord(apply_auto(auto, word).letters)

    @pytest.mark.parametrize("cls, bad", [
        (Word, (0,)), (Word, (2**70,)), (Word, (1.5,)), (CyclicWord, ("a",)),
    ])
    def test_public_constructors_still_check(self, cls, bad):
        with pytest.raises(ValueError):
            cls(bad)
