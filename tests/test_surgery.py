import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from disksurgery import (
    DiskPairSystem,
    DisjointDisksError,
    InvalidSystemError,
    SurgeryChoice,
    SurgeryChoiceError,
    Word,
    all_surgeries,
    boundary_word,
    builtin_scenario,
    closure_report,
    format_word,
    is_primitive,
    load_scenario,
    outermost_choices,
    parse_word,
    run_report,
    surger,
    surgery,
    unoriented_cyclic_class,
    validate_system,
)
from disksurgery.surgery import _first_crossing
from helpers import (
    DISK_E_WORD,
    OUTCOME_LONG,
    OUTCOME_SHORT,
    disjoint_system,
    random_noncrossing_matching,
    random_system,
    reference_crossing_pairs,
    reference_surgeries,
    reference_surger,
    single_chord_system,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def fig1():
    return builtin_scenario("fig1", 3)


def outcome_classes(outcomes):
    return {unoriented_cyclic_class(o.boundary_word) for o in outcomes}


def expected_classes(rank=3):
    return {
        unoriented_cyclic_class(parse_word(OUTCOME_SHORT, rank)),
        unoriented_cyclic_class(parse_word(OUTCOME_LONG, rank)),
    }


class TestValidate:
    def test_fig1_valid(self, fig1):
        assert validate_system(fig1) == []

    def test_crossing_chords_detected(self):
        system = DiskPairSystem(
            rank=2,
            points=("p1", "p2", "p3", "p4"),
            order_d=("p1", "p2", "p3", "p4"),
            order_e=("p1", "p3", "p2", "p4"),
            chords=(("p1", "p3"), ("p2", "p4")),
            labels_d=(Word(),) * 4,
            labels_e=(Word(),) * 4,
        )
        assert [str(v) for v in validate_system(system)] == [
            "crossing-chords-d: chords ('p1', 'p3') and ('p2', 'p4') cross in order_d",
        ]

    def test_disjoint_disks_valid(self):
        assert validate_system(disjoint_system()) == []

    def test_accepts_generated_rejects_mutated(self, rng):
        mutations = {
            "order-d-mismatch": lambda s: replace(s, order_d=s.order_d[:-1]),
            "order-e-mismatch": lambda s: replace(
                s, order_e=(s.order_e[1],) + s.order_e[1:]),
            "label-count-d": lambda s: replace(s, labels_d=s.labels_d[:-1]),
            "label-rank-e": lambda s: replace(
                s, labels_e=(Word((s.rank + 1,)),) + s.labels_e[1:]),
            "bad-rank": lambda s: replace(s, rank=1),
            "not-a-matching": lambda s: replace(s, chords=s.chords[:-1]),
            "degenerate-chord": lambda s: replace(
                s, chords=((s.chords[0][0], s.chords[0][0]),) + s.chords[1:]),
            "unknown-endpoint": lambda s: replace(
                s, chords=((s.chords[0][0], "bogus"),) + s.chords[1:]),
            "crossing-chords-d": lambda s: replace(s, chords=(
                (s.order_d[0], s.order_d[2]), (s.order_d[1], s.order_d[3]),
            ) + tuple(
                (s.order_d[i], s.order_d[i + 1]) for i in range(4, len(s.order_d), 2)
            )),
        }
        for _ in range(60):
            system = random_system(rng, min_chords=2)
            assert validate_system(system) == []
            for expected_code, mutate in mutations.items():
                codes = {v.code for v in validate_system(mutate(system))}
                assert expected_code in codes, (expected_code, codes)


@st.composite
def matchings(draw):
    """A cyclic order of 2k points and a perfect matching of them: about
    half the draws non-crossing by construction, the rest arbitrary."""
    k = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        slots = random_noncrossing_matching(draw(st.randoms(use_true_random=False)), k)
        start = draw(st.integers(min_value=0, max_value=2 * k - 1))
        order = [f"p{(i + start) % (2 * k)}" for i in range(2 * k)]
        chords = [(f"p{a}", f"p{b}") for a, b in slots]
    else:
        order = [f"p{i}" for i in draw(st.permutations(range(2 * k)))]
        chords = [(f"p{2 * i}", f"p{2 * i + 1}") for i in range(k)]
    return tuple(order), tuple(sorted(tuple(sorted(c)) for c in chords))


class TestValidateManyPoints:
    """Duplicate lists are counted once, so a long point list with a
    repeat is checked in linear time."""

    N = 100_000

    def system(self, points, order_d):
        names = [f"p{i}" for i in range(self.N)]
        return DiskPairSystem(
            rank=2, points=points, order_d=order_d, order_e=tuple(names),
            chords=tuple(zip(names[::2], names[1::2])),
            labels_d=(Word(),) * len(order_d), labels_e=(Word(),) * self.N,
        )

    def test_repeated_point(self):
        names = tuple(f"p{i}" for i in range(self.N))
        violations = validate_system(self.system(names + ("p7",), names))
        assert [str(v) for v in violations] == ["duplicate-point: points listed twice: ['p7']"]

    def test_repeated_point_in_order(self):
        names = tuple(f"p{i}" for i in range(self.N))
        order = ("p5",) + names[:5] + names[6:-1] + ("p5", "p3")
        violations = validate_system(self.system(names, order))
        assert [str(v) for v in violations] == [
            "order-d-mismatch: order_d must list each point exactly once"
            f" (missing ['p{self.N - 1}'], extra [], repeated ['p3', 'p5'])",
        ]


class TestNoncrossingScan:
    """The scan names a crossing pair that the pairwise reference lists."""

    @given(matchings())
    def test_agrees_with_pairwise_list(self, case):
        order, chords = case
        crossing = _first_crossing(order, chords)
        pairs = reference_crossing_pairs(order, chords)
        assert (crossing is None) == (not pairs)
        if pairs:
            assert crossing in pairs
        if len(pairs) == 1:
            assert crossing == pairs[0]

    def test_innermost_open_chord_named(self):
        # Every chord crosses every other; the first to close is (a0, b0),
        # while the last to open, (a4, b4), is innermost.
        order = [f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)]
        chords = [(f"a{i}", f"b{i}") for i in range(5)]
        assert len(reference_crossing_pairs(order, chords)) == 10
        assert _first_crossing(order, chords) == (("a0", "b0"), ("a4", "b4"))

    def test_both_verdicts_drawn(self):
        seen = set()

        @given(matchings())
        def collect(case):
            seen.add(_first_crossing(*case) is None)

        collect()
        assert seen == {True, False}


class TestValidateBadRank:
    @pytest.mark.parametrize("rank", ["3", None, 1.5, 0])
    def test_bad_rank_is_one_violation(self, fig1, rank):
        violations = validate_system(replace(fig1, rank=rank))
        assert [v.code for v in violations] == ["bad-rank"]

    def test_out_of_range_index_named_once_per_label(self, fig1):
        label = Word((4, -4, 5, 4, 1, -5))
        violations = validate_system(replace(fig1, labels_e=(label,) + fig1.labels_e[1:]))
        assert [str(v) for v in violations] == [
            "label-rank-e: labels_e[0] uses generator index 4 beyond rank 3",
            "label-rank-e: labels_e[0] uses generator index 5 beyond rank 3",
        ]


class TestBoundaryWord:
    def test_fig1_disk_e(self, fig1):
        assert format_word(boundary_word(fig1, "E")) == DISK_E_WORD

    def test_fig1_disk_e_reduces_to_x2(self, fig1):
        assert format_word(boundary_word(fig1, "E").reduced()) == "x2"

    def test_disjoint_single_label(self):
        assert format_word(boundary_word(disjoint_system(label_d="x1"), "D")) == "x1"

    def test_rejects_invalid_system(self, fig1):
        broken = replace(fig1, labels_d=fig1.labels_d[:-1])
        with pytest.raises(InvalidSystemError, match="label-count-d"):
            boundary_word(broken, "D")


class TestOutermostChoices:
    def test_fig1_two_per_direction(self, fig1):
        assert len(outermost_choices(fig1, "E")) == 2
        assert len(outermost_choices(fig1, "D")) == 2

    def test_single_chord_has_both_sides(self):
        system = single_chord_system(["x1", "x2"], ["1", "1"])
        choices = outermost_choices(system, "E")
        assert len(choices) == 2
        assert {c.start for c in choices} == {"a", "b"}

    def test_parallel_chords_one_side_each(self, fig1):
        for choice in outermost_choices(fig1, "E"):
            order = fig1.order_e
            start = order.index(choice.start)
            assert order[(start + 1) % len(order)] == choice.end

    def test_disjoint_disks_error(self):
        with pytest.raises(DisjointDisksError):
            outermost_choices(disjoint_system(), "E")


class TestSurger:
    def test_fig1_outcomes_along_e(self, fig1):
        for choice in outermost_choices(fig1, "E"):
            for outcome in surger(fig1, choice):
                assert unoriented_cyclic_class(outcome.boundary_word) in expected_classes()

    def test_single_chord_outcome_words(self):
        system = single_chord_system(["x1", "x2"], ["x1 x2", "1"])
        choice = outermost_choices(system, "E")[0]
        assert choice.start == "a"
        cap = parse_word("x1 x2", 2)
        first, second = surger(system, choice)
        assert first.boundary_word == parse_word("x1", 2) * cap.inverse()
        assert second.boundary_word == parse_word("x2", 2) * cap
        assert first.inherited_chords == 0
        assert second.inherited_chords == 0

    def test_fig1_inherited_below_chord_count(self, fig1):
        for outcome in all_surgeries(fig1):
            assert outcome.inherited_chords <= 1 < fig1.chord_count

    def test_rejects_non_outermost_choice(self, fig1):
        bogus = SurgeryChoice(target="D", chord=fig1.chords[0],
                              start=fig1.chords[0][0], end=fig1.chords[0][0])
        with pytest.raises(SurgeryChoiceError):
            surger(fig1, bogus)


class TestAllSurgeries:
    def test_fig1_eight_outcomes(self, fig1):
        assert len(all_surgeries(fig1)) == 8

    def test_single_chord_eight_outcomes(self):
        system = single_chord_system(["x1", "x2"], ["1", "1"])
        assert len(all_surgeries(system)) == 8

    def test_fig1_classes_are_the_two_expected(self, fig1):
        assert outcome_classes(all_surgeries(fig1)) == expected_classes()

    def test_deterministic_order(self, fig1):
        first = [(o.choice, o.piece, o.boundary_word) for o in all_surgeries(fig1)]
        second = [(o.choice, o.piece, o.boundary_word) for o in all_surgeries(fig1)]
        assert first == second
        assert [o.choice.target for o in all_surgeries(fig1)] == ["D"] * 4 + ["E"] * 4


class TestClosureReport:
    def test_fig1_not_weakly_closed_either_direction(self, fig1):
        report = closure_report(fig1)
        for direction in report.directions:
            assert not direction.any_primitive
            assert not direction.all_primitive

    def test_higher_genus_same_classes(self):
        for genus in (4, 5):
            system = builtin_scenario("fig1", genus)
            assert outcome_classes(all_surgeries(system)) == expected_classes(genus)
            report = closure_report(system)
            assert not any(d.any_primitive for d in report.directions)

    def test_all_primitive_synthetic_pair(self):
        system = single_chord_system(["x1", "x2"], ["1", "1"])
        report = closure_report(system)
        for direction in report.directions:
            assert direction.all_primitive
            assert direction.any_primitive

    def test_all_implies_any(self, rng):
        for _ in range(40):
            report = closure_report(random_system(rng, max_chords=3))
            for direction in report.directions:
                assert direction.any_primitive or not direction.all_primitive


def shared_work_systems():
    """fig1, the mixed rank-3 golden pair and seeded random pairs of both ranks."""
    rng = random.Random(21)
    drawn = [random_system(rng, max_chords=8) for _ in range(16)]
    assert {system.rank for system in drawn} == {2, 3}
    return [
        pytest.param(builtin_scenario("fig1", 3), id="fig1"),
        pytest.param(load_scenario(GOLDEN / "mixed_rank3.json"), id="mixed_rank3"),
        *(pytest.param(system, id=f"random{i}-rank{system.rank}")
          for i, system in enumerate(drawn)),
    ]


@pytest.mark.parametrize("system", shared_work_systems())
def test_shared_verdicts_and_classes_change_no_result(monkeypatch, system):
    calls = []

    def counted(word, rank):
        calls.append(word)
        return is_primitive(word, rank)

    monkeypatch.setattr(surgery, "is_primitive", counted)
    closure = closure_report(system)
    entries = [entry for direction in closure.directions for entry in direction.entries]
    outcomes = [outcome for outcome, _ in entries]
    assert outcomes == list(all_surgeries(system))
    for outcome, verdict in entries:
        alone = is_primitive(outcome.boundary_word.cyclic(), system.rank)
        assert (verdict.primitive, verdict.oz_fired, verdict.minimal, verdict.certificate) == (
            alone.primitive, alone.oz_fired, alone.minimal, alone.certificate)
    # One verdict per distinct canonical word, shared by its outcomes.
    assert len(calls) == len({outcome.boundary_word.cyclic() for outcome in outcomes})

    rows = run_report(system)["outcomes"]
    assert [row["cyclic_class"] for row in rows] == [
        format_word(unoriented_cyclic_class(o.boundary_word)) for o in outcomes]
    assert [row["word"] for row in rows] == [format_word(o.boundary_word) for o in outcomes]


@st.composite
def disk_pairs(draw):
    """A valid pair of 1-5 chords: independent non-crossing arrangements on
    the two circles, each started at a drawn basepoint, a drawn chord
    bijection between them, and labels of up to 3 letters, empty ones
    included."""
    k = draw(st.integers(min_value=1, max_value=5))
    rank = draw(st.sampled_from([2, 3]))
    orders = []
    for _ in range(2):
        slots = random_noncrossing_matching(draw(st.randoms(use_true_random=False)), k)
        order = [None] * (2 * k)
        for chord, (a, b) in zip(draw(st.permutations(range(k))), slots):
            first, second = f"q{2 * chord}", f"q{2 * chord + 1}"
            if draw(st.booleans()):
                first, second = second, first
            order[a], order[b] = first, second
        shift = draw(st.integers(min_value=0, max_value=2 * k - 1))
        orders.append(tuple(order[shift:] + order[:shift]))
    alphabet = [a for a in range(-rank, rank + 1) if a != 0]
    labels = st.lists(st.sampled_from(alphabet), max_size=3).map(lambda s: Word(tuple(s)))
    system = DiskPairSystem(
        rank=rank, points=orders[0], order_d=orders[0], order_e=orders[1],
        chords=tuple((f"q{2 * i}", f"q{2 * i + 1}") for i in range(k)),
        labels_d=tuple(draw(labels) for _ in range(2 * k)),
        labels_e=tuple(draw(labels) for _ in range(2 * k)),
    )
    assert validate_system(system) == []
    return system


def fields(outcomes):
    return [(o.choice, o.piece, o.boundary_word, o.inherited_chords) for o in outcomes]


class TestAgainstReference:
    """``surger`` and ``all_surgeries`` give exactly the outcomes of the
    rotate-and-join construction in ``helpers.reference_surger``."""

    @given(disk_pairs())
    def test_same_outcomes(self, system):
        for along in ("E", "D"):
            for choice in outermost_choices(system, along):
                assert fields(surger(system, choice)) == fields(reference_surger(system, choice))
        assert fields(all_surgeries(system)) == fields(reference_surgeries(system))

    def test_cases_drawn(self):
        """The draws include a cap that wraps past the basepoint, an empty
        label on either side of a cut, single-chord pairs and both
        directions."""
        seen = set()

        @given(disk_pairs())
        def collect(system):
            for outcome in all_surgeries(system):
                choice = outcome.choice
                order = system.order_of(choice.along)
                seen.add(("direction", choice.target))
                if choice.start == order[-1]:
                    seen.add("cap wraps")
                if not system.labels_of(choice.along)[order.index(choice.start)]:
                    seen.add("empty cap")
            if any(not label for label in system.labels_d + system.labels_e):
                seen.add("empty label")
            if system.chord_count == 1:
                seen.add("single chord")

        collect()
        assert seen == {("direction", "D"), ("direction", "E"), "cap wraps", "empty cap",
                        "empty label", "single chord"}

    @pytest.mark.parametrize("labels_d, labels_e", [
        (["x1", "x2"], ["x1 x2", "1"]),
        (["1", "1"], ["1", "1"]),
        (["x1 x2^-1", "1"], ["1", "x2 x2"]),
    ])
    def test_single_chord(self, labels_d, labels_e):
        system = single_chord_system(labels_d, labels_e)
        assert fields(all_surgeries(system)) == fields(reference_surgeries(system))

    def test_fig1(self, fig1):
        assert fields(all_surgeries(fig1)) == fields(reference_surgeries(fig1))


def nested_chords(system, disk, begin, finish):
    """Chords with both ends strictly inside the path that walks the
    disk's circle forward from ``begin`` to ``finish``."""
    order = system.order_of(disk)
    i = order.index(begin)
    inside = set()
    while order[(i + 1) % len(order)] != finish:
        i = (i + 1) % len(order)
        inside.add(order[i])
    return sum(1 for p, q in system.chords if p in inside and q in inside)


class TestSurgeryProperties:
    def test_monotone_and_paired(self, rng):
        for _ in range(200):
            system = random_system(rng)
            k = system.chord_count
            for along in ("E", "D"):
                for choice in outermost_choices(system, along):
                    first, second = surger(system, choice)
                    assert first.inherited_chords < k
                    assert second.inherited_chords < k
                    assert first.inherited_chords + second.inherited_chords == k - 1
                    assert first.inherited_chords == nested_chords(
                        system, choice.target, choice.start, choice.end)
                    assert second.inherited_chords == nested_chords(
                        system, choice.target, choice.end, choice.start)

    def test_split_conserves_target_word(self, rng):
        for _ in range(200):
            system = random_system(rng)
            for along in ("E", "D"):
                target = "D" if along == "E" else "E"
                whole = boundary_word(system, target)
                for choice in outermost_choices(system, along):
                    first, second = surger(system, choice)
                    cap = system.labels_of(along)[
                        system.order_of(along).index(choice.start)]
                    path_first = first.boundary_word.letters[
                        :len(first.boundary_word) - len(cap)]
                    path_second = second.boundary_word.letters[
                        :len(second.boundary_word) - len(cap)]
                    split = Word(path_first) * Word(path_second)
                    assert sorted(split.letters) == sorted(whole.letters)
                    assert split.cyclic() == whole.cyclic()

    def test_basepoint_rotation_preserves_outcome_classes(self, rng):
        for _ in range(100):
            system = random_system(rng, max_chords=4)
            baseline = Counter(
                unoriented_cyclic_class(o.boundary_word) for o in all_surgeries(system))
            shift_d = rng.randrange(len(system.order_d))
            shift_e = rng.randrange(len(system.order_e))
            rotated = replace(
                system,
                order_d=system.order_d[shift_d:] + system.order_d[:shift_d],
                labels_d=system.labels_d[shift_d:] + system.labels_d[:shift_d],
                order_e=system.order_e[shift_e:] + system.order_e[:shift_e],
                labels_e=system.labels_e[shift_e:] + system.labels_e[:shift_e],
            )
            assert validate_system(rotated) == []
            rotated_classes = Counter(
                unoriented_cyclic_class(o.boundary_word) for o in all_surgeries(rotated))
            assert rotated_classes == baseline
