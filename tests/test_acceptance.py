"""Acceptance suite: one test per criterion, each printing a PASS line.

Run visibly with ``pytest tests/test_acceptance.py -v -s``. Time budgets
are asserted as stated, measuring the underlying library operation after
a warm-up call.
"""

import itertools
import random
import time

from disksurgery import (
    CyclicWord,
    Word,
    builtin_scenario,
    closure_report,
    is_primitive,
    oracle_primitives,
    outermost_choices,
    parse_word,
    replay_certificate,
    surger,
    unoriented_cyclic_class,
)
from disksurgery.cli import main
from disksurgery.primitivity import enumerate_whitehead_autos
from helpers import (
    DISK_E_WORD, OUTCOME_LONG, OUTCOME_SHORT, apply_auto, inverse_auto, random_system,
    random_word,
)


def best_time(fn, repeats=3):
    fn()  # warm-up
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def test_criterion_1_word_identity():
    word = parse_word(DISK_E_WORD, 3)
    reduced, seconds = best_time(word.reduced)
    assert str(reduced) == "x2"
    assert seconds < 1e-3
    print(f"\nACCEPTANCE 1: PASS — 21-letter boundary word reduces to x2"
          f" ({seconds * 1e6:.0f} us)")


def test_criterion_2_non_primitivity(capsys):
    for text in (OUTCOME_SHORT, OUTCOME_LONG):
        word = parse_word(text, 2)
        verdict, seconds = best_time(lambda w=word: is_primitive(w, 2))
        assert not verdict.primitive and verdict.oz_fired
        assert seconds < 1e-2
        slow, slow_seconds = best_time(lambda w=word: is_primitive(w, 2, use_oz=False))
        assert slow.primitive == verdict.primitive and not slow.oz_fired
        assert slow_seconds < 1e-2
        assert main(["primitive", "--rank", "2", text]) == 3
        assert main(["primitive", "--rank", "2", "--no-oz", text]) == 3
    out = capsys.readouterr().out
    assert out.count("verdict: not primitive") == 4
    assert out.count("oz fired: yes") == 2
    print("ACCEPTANCE 2: PASS — both surgery words not primitive at rank 2,"
          " oz fired, identical verdicts without the fast path")


def test_criterion_3_primitivity(capsys):
    word = parse_word(DISK_E_WORD, 3)
    verdict, seconds = best_time(lambda: is_primitive(word, 3))
    assert verdict.primitive
    assert seconds < 1e-2
    trail = replay_certificate(word, verdict.certificate)
    assert trail[-1] == verdict.minimal and len(trail[-1]) == 1
    lengths = [len(c) for c in trail]
    assert lengths == sorted(lengths, reverse=True)
    assert main(["primitive", "--rank", "3", DISK_E_WORD]) == 0
    capsys.readouterr()
    print(f"ACCEPTANCE 3: PASS — boundary word primitive at rank 3,"
          f" certificate replays to a single letter ({seconds * 1e3:.2f} ms)")


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for rank, max_len in ((2, 8), (3, 5)):
        alphabet = [i for i in range(-rank, rank + 1) if i != 0]
        classes = set()
        for length in range(max_len + 1):
            for combo in itertools.product(alphabet, repeat=length):
                classes.add(CyclicWord(combo))
        truth = oracle_primitives(rank, max_len)
        for cyclic in classes:
            assert is_primitive(cyclic, rank).primitive == (cyclic in truth), cyclic
        checked += len(classes)
    elapsed = time.perf_counter() - started
    assert elapsed <= 60
    print(f"ACCEPTANCE 4: PASS — descent agrees with the orbit oracle on all"
          f" {checked} cyclic classes (rank 2 len<=8, rank 3 len<=5) in {elapsed:.1f} s")


def test_criterion_5_rank_stability():
    rng = random.Random(424242)
    for case in range(1000):
        word = random_word(rng, 2, 12)
        verdicts = {g: is_primitive(word, g).primitive for g in (2, 3, 4)}
        assert len(set(verdicts.values())) == 1, (case, word, verdicts)
    print("ACCEPTANCE 5: PASS — 1000 rank-2 words keep their verdict at ranks 2, 3, 4")


def test_criterion_6_closure_reproduction(capsys):
    for genus in (3, 4, 5):
        system = builtin_scenario("fig1", genus)
        expected = {
            unoriented_cyclic_class(parse_word(OUTCOME_SHORT, genus)),
            unoriented_cyclic_class(parse_word(OUTCOME_LONG, genus)),
        }
        started = time.perf_counter()
        report = closure_report(system)
        elapsed = time.perf_counter() - started
        assert elapsed < 1
        outcomes = [entry for d in report.directions for entry in d.entries]
        assert len(outcomes) == 8
        assert {unoriented_cyclic_class(o.boundary_word) for o, _ in outcomes} == expected
        assert all(not v.primitive for _, v in outcomes)
        assert all(not d.any_primitive for d in report.directions)
        assert main(["closure", "fig1", "--genus", str(genus)]) == 0
        assert "weak closedness fails in both directions" in capsys.readouterr().out
    print("ACCEPTANCE 6: PASS — fig1 at genus 3, 4, 5: 8 outcomes on the two"
          " expected classes, none primitive, weak closedness fails both ways")


def test_criterion_7_surgery_monotonicity():
    rng = random.Random(777)
    outcomes_checked = 0
    for _ in range(500):
        system = random_system(rng)
        k = system.chord_count
        for along in ("E", "D"):
            for choice in outermost_choices(system, along):
                first, second = surger(system, choice)
                assert first.inherited_chords < k
                assert second.inherited_chords < k
                assert first.inherited_chords + second.inherited_chords == k - 1
                outcomes_checked += 2
    print(f"ACCEPTANCE 7: PASS — {outcomes_checked} outcomes over 500 random"
          f" systems all drop below the original arc count and pair to k-1")


def test_criterion_8_algebra_suite():
    rng = random.Random(31337)
    started = time.perf_counter()

    for _ in range(10_000):
        word = random_word(rng, 3, 64)
        reduced = word.reduced()
        assert reduced.reduced() == reduced

    for _ in range(10_000):
        word = random_word(rng, 3, 32)
        assert (word * word.inverse()).reduced() == Word()

    for _ in range(10_000):
        word = random_word(rng, 3, 24)
        conjugator = random_word(rng, 3, 8)
        assert (conjugator * word * conjugator.inverse()).cyclic() == word.cyclic()

    autos_by_rank = {rank: enumerate_whitehead_autos(rank) for rank in (2, 3)}
    for _ in range(10_000):
        rank = rng.choice((2, 3))
        auto = rng.choice(autos_by_rank[rank])
        inverse = inverse_auto(auto)
        for i in range(1, rank + 1):
            generator = Word((i,))
            assert apply_auto(inverse, apply_auto(auto, generator)) == generator

    elapsed = time.perf_counter() - started
    assert elapsed <= 30
    print(f"ACCEPTANCE 8: PASS — four 10^4-case fuzz suites (idempotence,"
          f" cancellation, conjugation, inverses) in {elapsed:.1f} s")
