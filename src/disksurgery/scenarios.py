"""Scenario persistence and the built-in disk pairs.

A scenario file is a JSON document with the fields

    rank      int from 2 to words.MAX_RANK
    points    list of distinct point identifiers (strings)
    order_d   the points as met along the boundary of D
    order_e   the points as met along the boundary of E
    chords    list of two-element lists (the intersection arcs)
    labels_d  word strings, one per order_d position (one single entry
              when there are no chords)
    labels_e  same for E
    meta      free-form object, preserved verbatim

Word strings use the CLI syntax (``x2``, ``x1^-1``, empty word ``1``).
Loading checks structure only; invariant checking is a separate step
(:func:`disksurgery.surgery.validate_system`) so that broken files can
be reported violation by violation.

The built-in ``fig1`` pair is shipped as a reviewed data file, not code:
it is the genus-3 pair whose 21-letter E-boundary reduces to ``x2`` and
whose eight surgery outcomes all land on the two expected non-primitive
classes. Its labels avoid every generator beyond ``x2``, so the same
transcription serves any genus >= 3 by raising the rank.
"""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources

from .surgery import DiskPairSystem
from .words import MAX_RANK, Word, WordSyntaxError, check_rank, format_word, parse_word

__all__ = [
    "ScenarioFormatError",
    "builtin_scenario",
    "load_scenario",
    "loads_scenario",
    "save_scenario",
    "dumps_scenario",
]

BUILTIN_SCENARIOS = ("fig1",)


class ScenarioFormatError(ValueError):
    """Scenario file violates the schema; message carries the field path."""


def _fail(path: str, message: str):
    raise ScenarioFormatError(f"{path}: {message}")


def _string_list(data, path: str) -> tuple[str, ...]:
    if not isinstance(data, list):
        _fail(path, f"expected a list, got {type(data).__name__}")
    for i, item in enumerate(data):
        if not isinstance(item, str):
            _fail(f"{path}[{i}]", f"expected a string, got {type(item).__name__}")
    return tuple(data)


def _word_list(data, path: str, rank: int) -> tuple[Word, ...]:
    """Each distinct text is parsed once; an error names its first index."""
    parsed = {}
    words = []
    for i, text in enumerate(_string_list(data, path)):
        word = parsed.get(text)
        if word is None:
            try:
                word = parsed[text] = parse_word(text, rank)
            except WordSyntaxError as exc:
                _fail(f"{path}[{i}]", str(exc))
        words.append(word)
    return tuple(words)


# The schema's fields in file order; every one but the last, ``meta``, is required.
_FIELDS = ("rank", "points", "order_d", "order_e", "chords", "labels_d", "labels_e", "meta")


def loads_scenario(text: str) -> DiskPairSystem:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        _fail("$", f"expected an object, got {type(data).__name__}")
    for name in _FIELDS[:-1]:
        if name not in data:
            _fail(name, "missing required field")
    for name in data:
        if name not in _FIELDS:
            _fail(name, "unknown field")

    rank = data["rank"]
    try:
        check_rank(rank)
    except ValueError as exc:
        _fail("rank", str(exc))

    points = _string_list(data["points"], "points")
    order_d = _string_list(data["order_d"], "order_d")
    order_e = _string_list(data["order_e"], "order_e")

    chords_raw = data["chords"]
    if not isinstance(chords_raw, list):
        _fail("chords", f"expected a list, got {type(chords_raw).__name__}")
    chords = []
    for i, pair in enumerate(chords_raw):
        endpoints = _string_list(pair, f"chords[{i}]")
        if len(endpoints) != 2:
            _fail(f"chords[{i}]", f"expected two endpoints, got {len(endpoints)}")
        chords.append(endpoints)

    labels_d = _word_list(data["labels_d"], "labels_d", rank)
    labels_e = _word_list(data["labels_e"], "labels_e", rank)

    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        _fail("meta", f"expected an object, got {type(meta).__name__}")

    return DiskPairSystem(
        rank=rank, points=points, order_d=order_d, order_e=order_e,
        chords=tuple(chords), labels_d=labels_d, labels_e=labels_e, meta=meta,
    )


def load_scenario(path) -> DiskPairSystem:
    """Read a scenario file; schema errors name the offending field."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    return loads_scenario(text)


def dumps_scenario(system: DiskPairSystem) -> str:
    data = {
        "rank": system.rank,
        "points": list(system.points),
        "order_d": list(system.order_d),
        "order_e": list(system.order_e),
        "chords": [list(chord) for chord in system.chords],
        "labels_d": [format_word(w) for w in system.labels_d],
        "labels_e": [format_word(w) for w in system.labels_e],
        "meta": system.meta,
    }
    return json.dumps(data, indent=2) + "\n"


def save_scenario(system: DiskPairSystem, path) -> None:
    """Write a scenario file; ``load_scenario`` round-trips it."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_scenario(system))


def builtin_scenario(name: str, genus: int) -> DiskPairSystem:
    """A built-in disk pair at the requested genus.

    ``fig1`` is transcribed at genus 3; higher genus reuses the same
    labels with a larger rank (they involve no generator beyond ``x2``).
    """
    if name not in BUILTIN_SCENARIOS:
        raise ValueError(f"unknown built-in scenario {name!r}; known: {BUILTIN_SCENARIOS}")
    if not isinstance(genus, int) or not 3 <= genus <= MAX_RANK:
        raise ValueError(f"genus must be an integer >= 3 and <= {MAX_RANK}, got {genus!r}")
    text = resources.files("disksurgery").joinpath(f"data/{name}.json").read_text("utf-8")
    base = loads_scenario(text)
    return replace(base, rank=genus, meta={**base.meta, "genus": genus})
