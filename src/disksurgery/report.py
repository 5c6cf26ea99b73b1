"""Human- and machine-readable closure reports.

Every value shown is recomputable by re-running the named operations on
the scenario, and rendering is deterministic: identical systems produce
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surgery import DiskPairSystem, closure_report
from .words import concat, format_word, parse_word, unoriented_cyclic_class

__all__ = ["OutcomeRow", "Report", "run_report", "render_text", "render_json"]


@dataclass(frozen=True, slots=True)
class OutcomeRow:
    direction: str
    chord: tuple[str, str]
    cap_from: str
    piece: str
    word: str
    cyclic_class: str
    inherited_chords: int
    primitive: bool
    oz_fired: bool


@dataclass(frozen=True, slots=True)
class Report:
    """Closure verdicts for one disk pair.

    ``deviations`` is nonempty when the scenario's meta names the
    expected outcome classes and some outcome strays from them; a
    mistranscribed built-in pair fails loudly instead of passing as a
    different theorem.
    """

    label: str
    rank: int
    chord_count: int
    boundary_d: str
    boundary_d_reduced: str
    boundary_e: str
    boundary_e_reduced: str
    outcomes: tuple[OutcomeRow, ...]
    any_primitive: dict
    all_primitive: dict
    deviations: tuple[str, ...]


def _expected_classes(system: DiskPairSystem):
    texts = system.meta.get("expected_outcome_classes")
    if not isinstance(texts, list):
        return None
    return {unoriented_cyclic_class(parse_word(t, system.rank)) for t in texts}


def run_report(system: DiskPairSystem, label: str = "scenario") -> Report:
    """Boundary words, every surgery outcome with its verdict, closure flags."""
    closure = closure_report(system)
    word_d = concat(*system.labels_d)
    word_e = concat(*system.labels_e)

    expected = _expected_classes(system)
    rows = []
    deviations = []
    for direction in closure.directions:
        for outcome, verdict in direction.entries:
            cyclic_class = unoriented_cyclic_class(outcome.boundary_word)
            rows.append(OutcomeRow(
                direction=direction.label,
                chord=outcome.choice.chord,
                cap_from=outcome.choice.start,
                piece=outcome.piece,
                word=format_word(outcome.boundary_word),
                cyclic_class=format_word(cyclic_class),
                inherited_chords=outcome.inherited_chords,
                primitive=verdict.primitive,
                oz_fired=verdict.oz_fired,
            ))
            if expected is not None and cyclic_class not in expected:
                deviations.append(
                    f"outcome {direction.label}, chord {{{outcome.choice.chord[0]},"
                    f" {outcome.choice.chord[1]}}}, piece {outcome.piece} has class"
                    f" '{format_word(cyclic_class)}' outside the expected classes"
                )

    return Report(
        label=label,
        rank=system.rank,
        chord_count=system.chord_count,
        boundary_d=format_word(word_d),
        boundary_d_reduced=format_word(word_d.reduced()),
        boundary_e=format_word(word_e),
        boundary_e_reduced=format_word(word_e.reduced()),
        outcomes=tuple(rows),
        any_primitive={d.label: d.any_primitive for d in closure.directions},
        all_primitive={d.label: d.all_primitive for d in closure.directions},
        deviations=tuple(deviations),
    )


def render_text(report: Report) -> str:
    lines = [
        f"scenario: {report.label}",
        f"rank: {report.rank}",
        f"intersection arcs: {report.chord_count}",
        f"boundary D: {report.boundary_d}",
        f"  reduced:  {report.boundary_d_reduced}",
        f"boundary E: {report.boundary_e}",
        f"  reduced:  {report.boundary_e_reduced}",
        f"surgery outcomes ({len(report.outcomes)}):",
    ]
    for i, row in enumerate(report.outcomes, start=1):
        verdict = "primitive" if row.primitive else "not primitive"
        oz = ", oz" if row.oz_fired else ""
        lines.append(
            f"  [{i}] {row.direction} | chord {{{row.chord[0]}, {row.chord[1]}}}"
            f" cap from {row.cap_from} | piece {row.piece}"
            f" | arcs left {row.inherited_chords} | {verdict}{oz}"
        )
        lines.append(f"      word:  {row.word}")
        lines.append(f"      class: {row.cyclic_class}")
    for direction in sorted(report.any_primitive):
        any_p = report.any_primitive[direction]
        all_p = report.all_primitive[direction]
        closed = "holds" if all_p else "fails"
        weakly = "holds" if any_p else "fails"
        lines.append(
            f"direction {direction}: any primitive: {'yes' if any_p else 'no'}"
            f" | all primitive: {'yes' if all_p else 'no'}"
            f" -> closed {closed}, weakly closed {weakly} at this pair"
        )
    if all(not v for v in report.any_primitive.values()):
        lines.append("verdict: no surgery on this pair yields a primitive disk"
                     " (weak closedness fails in both directions)")
    elif all(report.all_primitive.values()):
        lines.append("verdict: every surgery on this pair yields a primitive disk"
                     " (closedness holds at this pair)")
    for deviation in report.deviations:
        lines.append(f"DEVIATION: {deviation}")
    if report.deviations:
        lines.append("DEVIATION: outcome classes differ from the scenario's expected set")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    import json

    data = {
        "scenario": report.label,
        "rank": report.rank,
        "intersection_arcs": report.chord_count,
        "boundary": {
            "D": {"word": report.boundary_d, "reduced": report.boundary_d_reduced},
            "E": {"word": report.boundary_e, "reduced": report.boundary_e_reduced},
        },
        "outcomes": [
            {
                "direction": row.direction,
                "chord": list(row.chord),
                "cap_from": row.cap_from,
                "piece": row.piece,
                "word": row.word,
                "cyclic_class": row.cyclic_class,
                "inherited_chords": row.inherited_chords,
                "primitive": row.primitive,
                "oz_fired": row.oz_fired,
            }
            for row in report.outcomes
        ],
        "any_primitive": dict(sorted(report.any_primitive.items())),
        "all_primitive": dict(sorted(report.all_primitive.items())),
        "deviations": list(report.deviations),
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
