import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from disksurgery import (
    CyclicWord,
    Word,
    WhiteheadAuto,
    abelianize,
    apply_auto_cyclic,
    is_primitive,
    oracle_primitives,
    oz_rank2_nonprimitive,
    parse_word,
    replay_certificate,
    whitehead_minimize,
)
from disksurgery import primitivity
from disksurgery.primitivity import OracleCapExceeded, enumerate_whitehead_autos
from helpers import (
    DISK_E_WORD, OUTCOME_LONG, OUTCOME_SHORT, apply_auto, first_kind_auto, first_kind_generators,
    inverse_auto, random_word,
)


def all_cyclic_words(rank, max_len):
    alphabet = [i for i in range(-rank, rank + 1) if i != 0]
    classes = set()
    for length in range(max_len + 1):
        for combo in product(alphabet, repeat=length):
            classes.add(CyclicWord(combo))
    return classes


class TestEnumeration:
    def test_second_kind_count_rank2(self):
        assert len(enumerate_whitehead_autos(2)) == 16

    def test_second_kind_count_rank3(self):
        assert len(enumerate_whitehead_autos(3)) == 96

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_second_kind_count_formula(self, rank):
        expected = 2 * rank * 2 ** (2 * rank - 2)
        autos = enumerate_whitehead_autos(rank)
        assert len(autos) == expected
        assert all(auto.kind == "second" and auto.perm is auto.signs is None for auto in autos)

    def test_first_kind_generators_rank2(self):
        firsts = first_kind_generators(2)
        assert len(firsts) == 3  # one transposition, two sign flips

    def test_duplicate_free(self):
        autos = enumerate_whitehead_autos(3)
        assert len(set(autos)) == len(autos)

    def test_deterministic(self):
        a = [auto.describe() for auto in enumerate_whitehead_autos(2)]
        b = [auto.describe() for auto in enumerate_whitehead_autos(2)]
        assert a == b

    def test_invalid_member_sets_rejected(self):
        with pytest.raises(ValueError):
            WhiteheadAuto(2, 1, frozenset({1, -1}))
        with pytest.raises(ValueError):
            WhiteheadAuto(2, 1, frozenset({2}))

    # Image tables built from (a, A) go to the kernels, so the constructor
    # is what keeps a float or a bool out of them.
    @pytest.mark.parametrize("build,field", [
        (lambda: WhiteheadAuto(2, 1.0, frozenset({1.0})), "multiplier"),
        (lambda: WhiteheadAuto(2, 1.0, frozenset({1})), "multiplier"),
        (lambda: WhiteheadAuto(2, True, frozenset({1})), "multiplier"),
        (lambda: WhiteheadAuto(2, 1, frozenset({1, 2.0})), "members"),
        (lambda: WhiteheadAuto(2, 2, frozenset({2, True})), "members"),
    ])
    def test_letters_that_are_not_ints_rejected(self, build, field):
        with pytest.raises(ValueError, match=f"{field} entries must be ints"):
            build()


class TestApplyAuto:
    def test_singleton_set_acts_trivially(self):
        w = parse_word("x1 x1^-1 x2", 2)
        for auto in enumerate_whitehead_autos(2):
            if auto.members == frozenset({auto.multiplier}):
                assert apply_auto(auto, w) == w.reduced()

    def test_sign_flip(self):
        flip = first_kind_auto(2, (1, 2), (-1, 1))
        assert apply_auto(flip, parse_word("x1 x2", 2)) == parse_word("x1^-1 x2", 2)

    def test_some_auto_shortens_x1x2(self):
        w = parse_word("x1 x2", 2)
        images = [apply_auto(auto, w) for auto in enumerate_whitehead_autos(2)]
        assert any(len(img) == 1 for img in images)

    def test_rank_mismatch(self):
        auto = enumerate_whitehead_autos(2)[0]
        with pytest.raises(ValueError, match="exceeds rank"):
            apply_auto_cyclic(auto, CyclicWord((3,)))

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16))
    def test_homomorphism_on_reduced_words(self, left, right):
        u, v = Word(tuple(left)), Word(tuple(right))
        for auto in enumerate_whitehead_autos(2)[:6]:
            assert apply_auto(auto, u * v) == (apply_auto(auto, u) * apply_auto(auto, v)).reduced()

    def test_every_second_kind_inverse_is_enumerated(self):
        autos = set(enumerate_whitehead_autos(2))
        for auto in autos:
            assert inverse_auto(auto) in autos

    @pytest.mark.parametrize("rank", [2, 3])
    def test_inverse_composition_is_identity_on_basis(self, rank):
        for auto in enumerate_whitehead_autos(rank):
            inverse = inverse_auto(auto)
            for i in range(1, rank + 1):
                for gen in (Word((i,)), Word((-i,))):
                    assert apply_auto(inverse, apply_auto(auto, gen)) == gen


class TestMinimize:
    def test_generator_is_already_minimal(self):
        verdict = whitehead_minimize(parse_word("x2", 3), 3)
        assert verdict.primitive
        assert verdict.certificate == ()
        assert len(verdict.minimal) == 1

    def test_outcome_short_not_primitive(self):
        verdict = whitehead_minimize(parse_word(OUTCOME_SHORT, 2), 2)
        assert not verdict.primitive
        assert len(verdict.minimal) >= 2

    def test_empty_word_not_primitive(self):
        verdict = whitehead_minimize(Word(), 2)
        assert not verdict.primitive
        assert len(verdict.minimal) == 0

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10))
    def test_certificate_replays_with_strict_descent(self, seq):
        w = Word(tuple(seq))
        verdict = whitehead_minimize(w, 2)
        trail = replay_certificate(w, verdict.certificate)
        assert trail[-1] == verdict.minimal
        for before, after in zip(trail, trail[1:]):
            assert len(after) < len(before)
        assert len(verdict.certificate) <= len(w.cyclic())


class TestOzTest:
    def test_outcome_short_fires(self):
        assert oz_rank2_nonprimitive(parse_word(OUTCOME_SHORT, 2).cyclic())

    def test_outcome_long_fires(self):
        assert oz_rank2_nonprimitive(parse_word(OUTCOME_LONG, 2).cyclic())

    def test_silent_on_positive_word(self):
        # x1 x2 x2 happens to be primitive; the test must stay silent.
        assert not oz_rank2_nonprimitive(parse_word("x1 x2 x2", 2).cyclic())

    def test_rejects_higher_rank_support(self):
        with pytest.raises(ValueError, match="rank-2"):
            oz_rank2_nonprimitive(CyclicWord((1, 3)))

    def test_sound_against_descent(self, rng):
        for _ in range(300):
            cyclic = random_word(rng, 2, 10).cyclic()
            if cyclic.letters and oz_rank2_nonprimitive(cyclic):
                assert len(whitehead_minimize(cyclic, 2).minimal) >= 2


class TestIsPrimitive:
    def test_disk_e_word_rank3(self):
        verdict = is_primitive(parse_word(DISK_E_WORD, 3), 3)
        assert verdict.primitive
        trail = replay_certificate(parse_word(DISK_E_WORD, 3), verdict.certificate)
        assert len(trail[-1]) == 1

    def test_outcome_long_rank2(self):
        verdict = is_primitive(parse_word(OUTCOME_LONG, 2), 2)
        assert not verdict.primitive
        assert verdict.oz_fired

    def test_x1x1_not_primitive(self):
        assert not is_primitive(parse_word("x1 x1", 2), 2).primitive
        assert parse_word("x1 x1", 2).cyclic() not in oracle_primitives(2, 2)

    def test_oz_verdict_matches_descent(self, rng):
        for _ in range(200):
            w = random_word(rng, 2, 10)
            fast = is_primitive(w, 2)
            slow = is_primitive(w, 2, use_oz=False)
            assert fast.primitive == slow.primitive
            assert not slow.oz_fired

    def test_support_restriction_fires_at_higher_rank(self):
        verdict = is_primitive(parse_word(OUTCOME_SHORT, 2), 3)
        assert not verdict.primitive
        assert verdict.oz_fired

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds rank"):
            is_primitive(Word((4,)), 3)

    @pytest.mark.parametrize("check", [is_primitive, whitehead_minimize])
    def test_first_offending_letter_named(self, check):
        # x3 cancels out of the cyclic word, and x4 comes after x5 in
        # the word: the support is checked on the word as given.
        with pytest.raises(ValueError, match="generator index 3 exceeds rank 2"):
            check(Word((3, 1, -3)), 2)
        with pytest.raises(ValueError, match="generator index 5 exceeds rank 3"):
            check(Word((1, -5, 2, 4)), 3)

    def test_support_checked_once(self, monkeypatch):
        calls = []
        original = primitivity.check_support

        def counted(letters, rank):
            calls.append(None)
            return original(letters, rank)

        monkeypatch.setattr(primitivity, "check_support", counted)
        verdict = is_primitive(parse_word("x1 x2 x3 x1 x2", 3), 3, use_oz=False)
        assert verdict.primitive and verdict.certificate
        assert len(calls) == 1

    def test_invariance_under_conjugation_and_inversion(self, rng):
        for _ in range(150):
            w = random_word(rng, 2, 10)
            u = random_word(rng, 2, 4)
            expected = is_primitive(w, 2).primitive
            assert is_primitive(u * w * u.inverse(), 2).primitive == expected
            assert is_primitive(w.inverse(), 2).primitive == expected

    def test_rank_stability(self, rng):
        for _ in range(300):
            w = random_word(rng, 2, 12)
            verdicts = {g: is_primitive(w, g).primitive for g in (2, 3, 4)}
            assert len(set(verdicts.values())) == 1, (w, verdicts)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.data(), st.booleans())
    def test_empty_certificate_keeps_input_form(self, rank, data, use_oz):
        # closure reports read an outcome's class off such a verdict.
        alphabet = [i for i in range(-rank, rank + 1) if i != 0]
        seq = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=20)))
        for word in (Word(seq), CyclicWord(seq)):
            verdict = is_primitive(word, rank, use_oz=use_oz)
            if not verdict.certificate:
                assert verdict.minimal == CyclicWord(seq)

    def test_primitive_implies_unimodular_row(self, rng):
        for _ in range(300):
            w = random_word(rng, 3, 10)
            if is_primitive(w, 3).primitive:
                vector = abelianize(w, 3)
                nonzero = [abs(v) for v in vector if v]
                assert nonzero and math.gcd(*nonzero) == 1


class TestOracle:
    def test_single_letters(self):
        got = oracle_primitives(2, 1)
        assert got == {CyclicWord((1,)), CyclicWord((-1,)), CyclicWord((2,)), CyclicWord((-2,))}

    def test_contains_x1x2x2_excludes_outcome_short(self):
        words = oracle_primitives(2, 6)
        assert CyclicWord((1, 2, 2)) in words
        assert parse_word(OUTCOME_SHORT, 2).cyclic() not in words

    def test_excludes_identity_and_squares(self):
        words = oracle_primitives(2, 4)
        assert CyclicWord(()) not in words
        assert CyclicWord((1, 1)) not in words

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(primitivity, "ORACLE_NODE_CAP", 3)
        with pytest.raises(OracleCapExceeded):
            oracle_primitives(2, 6)

    @pytest.mark.parametrize("rank,max_len", [(2, 5), (3, 3)])
    def test_descent_agrees_with_oracle(self, rank, max_len):
        truth = oracle_primitives(rank, max_len)
        for cyclic in all_cyclic_words(rank, max_len):
            verdict = is_primitive(cyclic, rank)
            assert verdict.primitive == (cyclic in truth), cyclic
