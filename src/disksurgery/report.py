"""Human- and machine-readable closure reports.

A report is the ``closure --machine`` document itself: a plain dict of
JSON values, rendered as JSON by :func:`render_json` and as text by
:func:`render_text`. Every value shown is recomputable by re-running the
named operations on the scenario, and rendering is deterministic:
identical systems produce byte-identical reports.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .scenarios import _word_list
from .surgery import DiskPairSystem, closure_report
from .words import concat, format_word, unoriented_cyclic_class

__all__ = ["run_report", "render_text", "render_json"]


def _expected_classes(system: DiskPairSystem):
    texts = system.meta.get("expected_outcome_classes")
    if not isinstance(texts, list):
        return None
    words = _word_list(texts, "meta.expected_outcome_classes", system.rank)
    return {unoriented_cyclic_class(w) for w in words}


def _boundary(word) -> dict:
    return {"word": format_word(word), "reduced": format_word(word.reduced())}


def run_report(system: DiskPairSystem, label: str = "scenario") -> dict:
    """Boundary words, every surgery outcome with its verdict, closure flags.

    ``deviations`` is nonempty when the scenario's meta names the
    expected outcome classes and some outcome strays from them; a
    mistranscribed built-in pair fails loudly instead of passing as a
    different theorem. Its entries are checked before any surgery runs.

    Each outcome's class is taken from the canonical cyclic form that
    ``closure_report`` computed for its verdict. The class, its text and
    whether it is expected are worked out once per distinct form.
    """
    expected = _expected_classes(system)
    closure = closure_report(system)
    outcomes = []
    deviations = []
    classes = {}
    for direction in closure.directions:
        name = direction.label
        for (outcome, verdict), cyclic in zip(direction.entries, direction.cyclic_words):
            p, q = outcome.choice.chord
            known = classes.get(cyclic.letters)
            if known is None:
                cyclic_class = unoriented_cyclic_class(cyclic)
                known = classes[cyclic.letters] = (
                    format_word(cyclic_class),
                    expected is not None and cyclic_class not in expected,
                )
            class_text, strays = known
            outcomes.append({
                "direction": name,
                "chord": [p, q],
                "cap_from": outcome.choice.start,
                "piece": outcome.piece,
                "word": format_word(outcome.boundary_word),
                "cyclic_class": class_text,
                "inherited_chords": outcome.inherited_chords,
                "primitive": verdict.primitive,
                "oz_fired": verdict.oz_fired,
            })
            if strays:
                deviations.append(
                    f"outcome {name}, chord {{{p}, {q}}}, piece {outcome.piece}"
                    f" has class '{class_text}' outside the expected classes"
                )

    return {
        "scenario": label,
        "rank": system.rank,
        "intersection_arcs": system.chord_count,
        "boundary": {
            "D": _boundary(concat(*system.labels_d)),
            "E": _boundary(concat(*system.labels_e)),
        },
        "outcomes": outcomes,
        "any_primitive": {d.label: d.any_primitive for d in closure.directions},
        "all_primitive": {d.label: d.all_primitive for d in closure.directions},
        "deviations": deviations,
    }


def render_text(report: dict) -> str:
    boundary = report["boundary"]
    outcomes = report["outcomes"]
    any_primitive = report["any_primitive"]
    all_primitive = report["all_primitive"]
    lines = [
        f"scenario: {report['scenario']}",
        f"rank: {report['rank']}",
        f"intersection arcs: {report['intersection_arcs']}",
        f"boundary D: {boundary['D']['word']}",
        f"  reduced:  {boundary['D']['reduced']}",
        f"boundary E: {boundary['E']['word']}",
        f"  reduced:  {boundary['E']['reduced']}",
        f"surgery outcomes ({len(outcomes)}):",
    ]
    for i, row in enumerate(outcomes, start=1):
        verdict = "primitive" if row["primitive"] else "not primitive"
        oz = ", oz" if row["oz_fired"] else ""
        p, q = row["chord"]
        lines.append(
            f"  [{i}] {row['direction']} | chord {{{p}, {q}}}"
            f" cap from {row['cap_from']} | piece {row['piece']}"
            f" | arcs left {row['inherited_chords']} | {verdict}{oz}"
        )
        lines.append(f"      word:  {row['word']}")
        lines.append(f"      class: {row['cyclic_class']}")
    for direction in sorted(any_primitive):
        any_p = any_primitive[direction]
        all_p = all_primitive[direction]
        closed = "holds" if all_p else "fails"
        weakly = "holds" if any_p else "fails"
        lines.append(
            f"direction {direction}: any primitive: {'yes' if any_p else 'no'}"
            f" | all primitive: {'yes' if all_p else 'no'}"
            f" -> closed {closed}, weakly closed {weakly} at this pair"
        )
    if all(not v for v in any_primitive.values()):
        lines.append("verdict: no surgery on this pair yields a primitive disk"
                     " (weak closedness fails in both directions)")
    elif all(all_primitive.values()):
        lines.append("verdict: every surgery on this pair yields a primitive disk"
                     " (closedness holds at this pair)")
    for deviation in report["deviations"]:
        lines.append(f"DEVIATION: {deviation}")
    if report["deviations"]:
        lines.append("DEVIATION: outcome classes differ from the scenario's expected set")
    return "\n".join(lines) + "\n"


# One outcome row as ``json.dumps(report, indent=2, sort_keys=True)`` lays
# it out inside ``outcomes``, keys in sorted order, after its separator.
_ROW = """,
    {
      "cap_from": %s,
      "chord": [
        %s,
        %s
      ],
      "cyclic_class": %s,
      "direction": %s,
      "inherited_chords": %d,
      "oz_fired": %s,
      "piece": %s,
      "primitive": %s,
      "word": %s
    }"""
_OUTCOMES = '\n  "outcomes": []'


def render_json(report: dict) -> str:
    """The ``closure --machine`` document: a :func:`run_report` dict as JSON.

    Writes exactly ``run_report``'s schema, byte-identical to
    ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``. The outcome
    rows, nearly all of the text, come from one template, their strings
    escaped by ``json``'s own C escaper; only the small rest goes through
    ``json.dumps``, whose indented output runs the pure-Python encoder.
    The document is joined once.
    """
    # No newline occurs inside an encoded string and only top-level keys
    # sit at two spaces, so the mark is found once, where the rows go.
    head, _, tail = json.dumps(
        {**report, "outcomes": []}, indent=2, sort_keys=True
    ).partition(_OUTCOMES)
    outcomes = report["outcomes"]
    if not outcomes:
        return "".join((head, _OUTCOMES, tail, "\n"))
    esc = encode_basestring_ascii
    parts = [head, '\n  "outcomes": [']
    parts.extend(
        _ROW % (
            esc(row["cap_from"]), esc(row["chord"][0]), esc(row["chord"][1]),
            esc(row["cyclic_class"]), esc(row["direction"]), row["inherited_chords"],
            "true" if row["oz_fired"] else "false", esc(row["piece"]),
            "true" if row["primitive"] else "false", esc(row["word"]),
        )
        for row in outcomes
    )
    parts[2] = parts[2][1:]  # the first row has no separator
    parts += ("\n  ]", tail, "\n")
    return "".join(parts)
