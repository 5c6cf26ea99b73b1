"""Combinatorial disk pairs and the surgery operation.

A pair of properly embedded disks D and E in a genus-``rank`` handlebody
is modelled by its boundary combinatorics alone: the intersection points
of the two boundary circles, their cyclic order along each circle, the
arcs of the disk intersection as a chord matching, and a word of
meridian letters on every boundary segment. Arcs properly embedded in a
disk are disjoint, so the matching must be non-crossing with respect to
both cyclic orders; that is the model's only geometric constraint.

Surgery cuts the target disk along one chord and caps both pieces with
the outermost subdisk of the other disk that the chord cuts off. On
boundary words: the chord splits the target circle into two paths, and
each outcome is a path's word followed by the outermost segment's word,
inverted exactly when closing the loop traverses that segment against
its own orientation. Labels are always read along the owning circle's
orientation; with outcomes compared as cyclic words up to inversion,
any consistent orientation convention yields the same classes.

Intersection patterns are certified input (scenario files), never
computed from an embedding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Mapping

from .primitivity import PrimitivityVerdict, is_primitive
from .words import CyclicWord, Word, check_rank, concat

__all__ = [
    "DiskPairSystem",
    "SurgeryChoice",
    "InvalidSystemError",
    "DisjointDisksError",
    "SurgeryChoiceError",
    "validate_system",
    "boundary_word",
    "outermost_choices",
    "surger",
    "all_surgeries",
    "closure_report",
]

DISKS = ("D", "E")


def other_disk(disk: str) -> str:
    return "E" if disk == "D" else "D"


def _check_disk(disk: str) -> str:
    if disk not in DISKS:
        raise ValueError(f"disk must be 'D' or 'E', got {disk!r}")
    return disk


class InvalidSystemError(ValueError):
    """Operation attempted on a system that fails validation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid disk pair system: {lines}")


class DisjointDisksError(ValueError):
    """Surgery is undefined for disjoint disks (no intersection arcs)."""


class SurgeryChoiceError(ValueError):
    """The supplied choice is not an outermost choice of the system."""


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def _normalize_chords(chords) -> tuple[tuple[str, str], ...]:
    normalized = []
    for chord in chords:
        pair = tuple(chord)
        if len(pair) != 2:
            raise ValueError(f"chord must have two endpoints, got {pair!r}")
        normalized.append(tuple(sorted(pair)))
    return tuple(sorted(normalized))


@dataclass(frozen=True, slots=True)
class DiskPairSystem:
    """Two intersecting disks, given by boundary combinatorics.

    ``order_d``/``order_e`` list the intersection points as met along
    each boundary circle from its basepoint; ``labels_d``/``labels_e``
    hold the word read on the segment starting at the same position. For
    disjoint disks (no chords) the orders are empty and each disk
    carries exactly one unbroken cyclic label. ``meta`` is free-form
    annotation carried by scenario files; it never affects computation
    and is excluded from equality.
    """

    rank: int
    points: tuple[str, ...]
    order_d: tuple[str, ...]
    order_e: tuple[str, ...]
    chords: tuple[tuple[str, str], ...]
    labels_d: tuple[Word, ...]
    labels_e: tuple[Word, ...]
    meta: Mapping = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "order_d", tuple(self.order_d))
        object.__setattr__(self, "order_e", tuple(self.order_e))
        object.__setattr__(self, "chords", _normalize_chords(self.chords))
        object.__setattr__(self, "labels_d", tuple(self.labels_d))
        object.__setattr__(self, "labels_e", tuple(self.labels_e))
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def chord_count(self) -> int:
        return len(self.chords)

    def order_of(self, disk: str) -> tuple[str, ...]:
        return self.order_d if _check_disk(disk) == "D" else self.order_e

    def labels_of(self, disk: str) -> tuple[Word, ...]:
        return self.labels_d if _check_disk(disk) == "D" else self.labels_e


def _first_crossing(order, chords):
    """The first crossing of a perfect matching of ``order``'s points, or None.

    One scan along the order: a chord opens at its first endpoint and
    must close at its second while it is the innermost open chord, as
    in matching brackets, or it crosses that later, still open chord.
    O(k) for k chords; a crossing is a sorted pair of sorted chords.
    """
    mate = {}
    for p, q in chords:
        mate[p], mate[q] = q, p
    seen = set()
    stack = []
    for p in order:
        if mate[p] in seen:
            inner = stack.pop()
            if inner != mate[p]:
                return tuple(sorted(tuple(sorted((a, mate[a]))) for a in (p, inner)))
        else:
            seen.add(p)
            stack.append(p)
    return None


def validate_system(system: DiskPairSystem) -> list[Violation]:
    """Check every invariant; returns the violations (empty when valid).

    A crossing order gives one violation, the first crossing its scan meets.
    """
    out: list[Violation] = []
    try:
        check_rank(system.rank)
        rank_ok = True
    except ValueError as exc:
        out.append(Violation("bad-rank", str(exc)))
        rank_ok = False

    points = system.points
    point_set = set(points)
    if len(point_set) != len(points):
        dupes = sorted(p for p, count in Counter(points).items() if count > 1)
        out.append(Violation("duplicate-point", f"points listed twice: {dupes}"))

    touched: dict[str, int] = {}
    for p, q in system.chords:
        if p == q:
            out.append(Violation("degenerate-chord", f"chord ({p}, {q}) joins a point to itself"))
        for end in (p, q):
            if end not in point_set:
                out.append(Violation("unknown-endpoint", f"chord endpoint {end!r} is not a point"))
            touched[end] = touched.get(end, 0) + 1
    for p in sorted(point_set):
        count = touched.get(p, 0)
        if count != 1:
            out.append(Violation(
                "not-a-matching", f"point {p!r} lies on {count} chords (expected exactly 1)"
            ))

    orders_ok = {}
    for disk in DISKS:
        order = system.order_of(disk)
        ok = sorted(order) == sorted(point_set)
        orders_ok[disk] = ok
        if not ok:
            missing = sorted(point_set - set(order))
            extra = sorted(set(order) - point_set)
            dupes = sorted(p for p, count in Counter(order).items() if count > 1)
            out.append(Violation(
                f"order-{disk.lower()}-mismatch",
                f"order_{disk.lower()} must list each point exactly once"
                f" (missing {missing}, extra {extra}, repeated {dupes})",
            ))

    k = system.chord_count
    for disk in DISKS:
        labels = system.labels_of(disk)
        expected = 1 if k == 0 else len(system.order_of(disk))
        if len(labels) != expected:
            out.append(Violation(
                f"label-count-{disk.lower()}",
                f"labels_{disk.lower()} has {len(labels)} entries, expected {expected}"
                + (" (single cyclic label for disjoint disks)" if k == 0 else ""),
            ))
        if not rank_ok:
            continue
        for i, label in enumerate(labels):
            # Each out-of-range generator index once, in order of first use.
            beyond = dict.fromkeys(abs(a) for a in label.letters if abs(a) > system.rank)
            for index in beyond:
                out.append(Violation(
                    f"label-rank-{disk.lower()}",
                    f"labels_{disk.lower()}[{i}] uses generator index {index}"
                    f" beyond rank {system.rank}",
                ))
    if k == 0 and points:
        out.append(Violation("points-without-chords", "points listed but no chords"))

    matching_ok = not any(v.code in ("not-a-matching", "unknown-endpoint", "degenerate-chord")
                          for v in out)
    if matching_ok:
        for disk in DISKS:
            crossing = orders_ok[disk] and _first_crossing(system.order_of(disk), system.chords)
            if crossing:
                first, second = crossing
                out.append(Violation(
                    f"crossing-chords-{disk.lower()}",
                    f"chords {first} and {second} cross in order_{disk.lower()}",
                ))
    return out


def _require_valid(system: DiskPairSystem) -> None:
    violations = validate_system(system)
    if violations:
        raise InvalidSystemError(violations)


def _require_intersecting(system: DiskPairSystem) -> None:
    _require_valid(system)
    if system.chord_count == 0:
        raise DisjointDisksError("surgery undefined for disjoint disks")


def boundary_word(system: DiskPairSystem, disk: str) -> Word:
    """Word read along the disk's boundary from its basepoint; unreduced."""
    _check_disk(disk)
    _require_valid(system)
    return concat(*system.labels_of(disk))


@dataclass(frozen=True, slots=True)
class SurgeryChoice:
    """One outermost choice: surger ``target`` along the other disk.

    ``chord`` is the cutting arc; walking the non-target circle forward
    from ``start`` reaches ``end`` (the chord's other endpoint) without
    meeting any other intersection point, so the segment between them
    bounds the capping subdisk.
    """

    target: str
    chord: tuple[str, str]
    start: str
    end: str

    @property
    def along(self) -> str:
        return other_disk(self.target)

    def describe(self) -> str:
        return (f"on {self.target} along {self.along},"
                f" chord {{{self.chord[0]}, {self.chord[1]}}}, cap from {self.start}")


@dataclass(frozen=True, slots=True)
class SurgeryOutcome:
    """One disk produced by surgery.

    ``piece`` records which side of the chord the target contributed:
    ``C1`` keeps the target's path from the choice's start point to its
    end point, ``C2`` the complementary path. ``inherited_chords`` counts
    the original arcs remaining on that piece.
    """

    choice: SurgeryChoice
    piece: str
    boundary_word: Word
    inherited_chords: int


def _outermost_choices(system: DiskPairSystem, along: str) -> tuple[SurgeryChoice, ...]:
    order = system.order_of(along)
    chord_set = set(system.chords)
    n = len(order)
    choices = []
    for i, start in enumerate(order):
        end = order[(i + 1) % n]
        chord = tuple(sorted((start, end)))
        if chord in chord_set:
            choices.append(SurgeryChoice(
                target=other_disk(along), chord=chord, start=start, end=end,
            ))
    return tuple(choices)


def outermost_choices(system: DiskPairSystem, along: str) -> tuple[SurgeryChoice, ...]:
    """Every outermost choice with the capping subdisk cut from ``along``.

    A chord qualifies once per side of the non-target circle that holds
    no other intersection point: a lone chord gives both sides, two
    parallel chords one side each.
    """
    _check_disk(along)
    _require_intersecting(system)
    return _outermost_choices(system, along)


@dataclass(frozen=True, slots=True)
class _Boundary:
    """One disk's boundary of a valid intersecting system, ready to slice.

    ``letters`` is the boundary word read twice round from the basepoint,
    so every path along the circle is one slice of it; segment ``i``
    starts at ``letters[offsets[i]]`` for ``i`` up to twice the point
    count. ``position`` maps each point to its index in the disk's order.
    """

    labels: tuple[Word, ...]
    letters: tuple[int, ...]
    offsets: tuple[int, ...]
    position: dict[str, int]


def _prepare(system: DiskPairSystem) -> dict[str, _Boundary]:
    """Both disks' boundaries; the caller has validated ``system``."""
    prepared = {}
    for disk in DISKS:
        labels = system.labels_of(disk)
        once = tuple(chain.from_iterable(label.letters for label in labels))
        prepared[disk] = _Boundary(
            labels=labels,
            letters=once + once,
            offsets=tuple(accumulate((len(label) for label in labels + labels), initial=0)),
            position={p: i for i, p in enumerate(system.order_of(disk))},
        )
    return prepared


def _surger(prepared: dict[str, _Boundary],
            choice: SurgeryChoice) -> tuple[SurgeryOutcome, SurgeryOutcome]:
    along, target = prepared[choice.along], prepared[choice.target]
    cap_word = along.labels[along.position[choice.start]]

    # The chord cuts the target circle into the path of ``span`` segments
    # from start to end and the complementary path. The matching is
    # non-crossing, so the points strictly inside a path are matched
    # among themselves: each piece inherits half of them as arcs.
    n = len(target.position)
    i = target.position[choice.start]
    span = (target.position[choice.end] - i) % n
    begin, cut, finish = target.offsets[i], target.offsets[i + span], target.offsets[i + n]

    # Closing piece C1 walks the cap segment end->start, against its own
    # orientation (it reads start->end on the other circle), so its word
    # is inverted; piece C2 walks it forward.
    first = SurgeryOutcome(
        choice=choice, piece="C1",
        boundary_word=Word._from_valid(
            target.letters[begin:cut] + cap_word.inverse().letters),
        inherited_chords=(span - 1) // 2,
    )
    second = SurgeryOutcome(
        choice=choice, piece="C2",
        boundary_word=Word._from_valid(target.letters[cut:finish] + cap_word.letters),
        inherited_chords=(n - span - 1) // 2,
    )
    return first, second


def surger(system: DiskPairSystem, choice: SurgeryChoice) -> tuple[SurgeryOutcome, SurgeryOutcome]:
    """Both disks produced by one outermost choice."""
    _require_intersecting(system)
    if choice not in _outermost_choices(system, choice.along):
        raise SurgeryChoiceError(f"not an outermost choice of this system: {choice}")
    return _surger(_prepare(system), choice)


def _outcomes(system: DiskPairSystem):
    """Validate once, then yield every outcome in ``all_surgeries`` order."""
    _require_intersecting(system)
    prepared = _prepare(system)
    for along in ("E", "D"):
        for choice in _outermost_choices(system, along):
            yield from _surger(prepared, choice)


def all_surgeries(system: DiskPairSystem) -> tuple[SurgeryOutcome, ...]:
    """Every outcome: both directions, every choice, both pieces.

    Deterministic order: surgeries on D along E first, choices in
    boundary order, piece C1 before C2.
    """
    return tuple(_outcomes(system))


@dataclass(frozen=True, slots=True)
class DirectionReport:
    """Closure data for one direction of Definition-style closedness.

    ``any_primitive`` is the weak form (some surgery yields a primitive
    disk), ``all_primitive`` the strong form (every surgery does).
    ``cyclic_words`` holds the canonical cyclic form of each entry's
    boundary word, in entry order.
    """

    surgered: str
    along: str
    entries: tuple[tuple[SurgeryOutcome, PrimitivityVerdict], ...]
    cyclic_words: tuple[CyclicWord, ...]
    any_primitive: bool
    all_primitive: bool

    @property
    def label(self) -> str:
        return f"on {self.surgered} along {self.along}"


@dataclass(frozen=True, slots=True)
class ClosureReport:
    d_along_e: DirectionReport
    e_along_d: DirectionReport

    @property
    def directions(self) -> tuple[DirectionReport, DirectionReport]:
        return (self.d_along_e, self.e_along_d)


def closure_report(system: DiskPairSystem) -> ClosureReport:
    """Run every surgery and test every outcome for primitivity.

    Weak closedness fails for the pair in a direction exactly when that
    direction's ``any_primitive`` is False. Each outcome word is put in
    canonical cyclic form once; the verdict and the report get that form.
    Outcomes with the same canonical form share one verdict object.
    """
    entries = {surgered: [] for surgered in DISKS}
    cyclic_words = {surgered: [] for surgered in DISKS}
    verdicts = {}
    for outcome in _outcomes(system):
        cyclic = outcome.boundary_word.cyclic()
        verdict = verdicts.get(cyclic.letters)
        if verdict is None:
            verdict = verdicts[cyclic.letters] = is_primitive(cyclic, system.rank)
        entries[outcome.choice.target].append((outcome, verdict))
        cyclic_words[outcome.choice.target].append(cyclic)
    reports = {}
    for surgered, pairs in entries.items():
        flags = [verdict.primitive for _, verdict in pairs]
        reports[surgered] = DirectionReport(
            surgered=surgered,
            along=other_disk(surgered),
            entries=tuple(pairs),
            cyclic_words=tuple(cyclic_words[surgered]),
            any_primitive=any(flags),
            all_primitive=all(flags),
        )
    return ClosureReport(d_along_e=reports["D"], e_along_d=reports["E"])
