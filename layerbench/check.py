"""Checks of the program's answers against the references in ``refs``.

Each ``check_<workload>`` gets the inputs ``run.py`` generated and the
results the worker wrote, and returns a list of error strings (empty
when every answer holds). Nothing here imports ``disksurgery``.
"""

from __future__ import annotations

import json
import os
import re
from functools import lru_cache
from math import gcd

import refs

# The paper's figure: every surgery on the fig1 pair, in either direction
# and at any genus, gives a disk in one of these two classes, and neither
# is primitive.
FIG1_CLASSES = (
    "x1 x2^-1 x1 x2 x1^-1 x2",
    "x1 x2^-1 x1 x2^-1 x1 x2 x1^-1 x2 x2 x1^-1 x2",
)


def _phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(n, k) == 1)


@lru_cache(maxsize=None)
def _autos(rank):
    """Own second-kind table, built once per rank."""
    return refs.second_kind_autos(rank)


def _verify_verdict(letters, rank, record):
    """Check one verdict record (primitive, oz_fired, minimal, certificate)."""
    support = {abs(a) for a in refs.cyclic_reduce(letters)}
    if record["oz_fired"]:
        if not support <= {1, 2}:
            return "sign test fired on a word beyond x1, x2"
        if record["primitive"] or refs.rank2_primitive(letters):
            return "sign-test verdict contradicts the Christoffel criterion"
        return None
    problem = refs.replay(letters, record["certificate"], record["minimal"])
    if problem:
        return "certificate: " + problem
    if record["primitive"]:
        return None if len(record["minimal"]) == 1 else "primitive, but minimum is not one letter"
    if len(record["minimal"]) <= 1:
        return "not primitive, but minimum has length <= 1"
    if not refs.whitehead_minimal(record["minimal"], _autos(rank)):
        return "reported minimum is shortened by a Whitehead automorphism"
    return None


def check_descent(items, results, run_dir):
    errors = []
    for item, record in zip(items, results["first"]):
        if record is None:  # raised; counted as failed
            continue
        letters, rank = tuple(item["letters"]), item["rank"]
        if record["primitive"] != item["primitive"]:
            errors.append(f"{item['label']}: verdict {record['primitive']},"
                          f" built as {item['primitive']}")
            continue
        problem = _verify_verdict(letters, rank, record)
        if problem:
            errors.append(f"{item['label']}: {problem}")
    return errors


def check_oracle(calls, results, run_dir):
    errors = []
    brute = {}
    for (rank, max_len), words in zip(calls, results["first"]):
        if words is None:  # raised; counted as failed
            continue
        label = f"oracle({rank}, {max_len})"
        found = {tuple(w) for w in words}
        if len(found) != len(words):
            errors.append(f"{label}: repeated words")
        if any(refs.canonical(w) != w or not 1 <= len(w) <= max_len for w in found):
            errors.append(f"{label}: a word is not canonical or out of length range")
        if rank == 2:
            expected = 4 + sum(4 * _phi(n) for n in range(2, max_len + 1))
            if len(found) != expected:
                errors.append(f"{label}: {len(found)} words, expected {expected}")
            bad = [w for w in found if not refs.rank2_primitive(w)]
            if bad:
                errors.append(f"{label}: {len(bad)} words fail the Christoffel criterion")
            continue
        if any(gcd(*refs.abelianize(w, rank)) != 1 for w in found):
            errors.append(f"{label}: a word has exponent sums that are not coprime")
        # Inversion, adjacent transpositions and one sign flip generate the
        # signed permutations, so closure under them is closure under all.
        identity = list(range(1, rank + 1))
        moves = [refs.first_kind_images(rank, identity, [-1] + [1] * (rank - 1))]
        for i in range(1, rank):
            perm = list(identity)
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            moves.append(refs.first_kind_images(rank, perm, [1] * rank))
        for w in found:
            if refs.canonical(refs.inverse(w)) not in found or any(
                    refs.canonical(refs.substitute(w, m)) not in found for m in moves):
                errors.append(f"{label}: not closed under inversion and signed permutations")
                break
        bound = min(max_len, 5)
        if (rank, bound) not in brute:
            brute[rank, bound] = {c for c in refs.cyclic_classes(rank, bound)
                                  if len(refs.descend(c, _autos(rank))) == 1}
        if {w for w in found if len(w) <= bound} != brute[rank, bound]:
            errors.append(f"{label}: words up to length {bound} differ from own classification")
    return errors


_ROW = re.compile(
    r"^  \[(\d+)\] (on [DE] along [DE]) \| chord \{(\S+), (\S+)\} cap from (\S+)"
    r" \| piece (C[12]) \| arcs left (\d+) \| (primitive|not primitive)(, oz)?$")
_FLAGS = re.compile(
    r"^direction (on [DE] along [DE]): any primitive: (yes|no) \| all primitive: (yes|no) ")


def read_text(text):
    """Header, outcome rows, closure flags and deviation flag of a text report."""
    lines = text.splitlines()
    fields = dict(line.split(": ", 1) for line in lines[:3])
    head = {"scenario": fields["scenario"], "rank": int(fields["rank"]),
            "arcs": int(fields["intersection arcs"]),
            "D": lines[3].split(": ", 1)[1], "D reduced": lines[4].split(":  ", 1)[1],
            "E": lines[5].split(": ", 1)[1], "E reduced": lines[6].split(":  ", 1)[1]}
    rows = []
    i = 8
    while i < len(lines) and _ROW.match(lines[i]):
        m = _ROW.match(lines[i])
        rows.append({"direction": m.group(2), "chord": [m.group(3), m.group(4)],
                     "cap_from": m.group(5), "piece": m.group(6),
                     "inherited_chords": int(m.group(7)),
                     "word": lines[i + 1].split("word:  ", 1)[1],
                     "cyclic_class": lines[i + 2].split("class: ", 1)[1],
                     "primitive": m.group(8) == "primitive", "oz_fired": bool(m.group(9))})
        i += 3
    any_p, all_p = {}, {}
    for m in filter(None, map(_FLAGS.match, lines[i:])):
        any_p[m.group(1)] = m.group(2) == "yes"
        all_p[m.group(1)] = m.group(3) == "yes"
    deviations = any("DEVIATION" in line for line in lines[i:])
    return head, rows, any_p, all_p, deviations


def read_json(text):
    """The same fields from a ``--machine`` report."""
    data = json.loads(text)
    bound = data["boundary"]
    head = {"scenario": data["scenario"], "rank": data["rank"],
            "arcs": data["intersection_arcs"],
            "D": bound["D"]["word"], "D reduced": bound["D"]["reduced"],
            "E": bound["E"]["word"], "E reduced": bound["E"]["reduced"]}
    return (head, data["outcomes"], data["any_primitive"], data["all_primitive"],
            bool(data["deviations"]))


def _own_pair(item, root):
    if item["pair"] is not None:
        return item["pair"]
    path = os.path.join(root, "src", "disksurgery", "data", "fig1.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    pair = {k: data[k] for k in ("order_d", "order_e", "chords")}
    for disk in ("d", "e"):
        pair["labels_" + disk] = [refs.parse_word(t) for t in data["labels_" + disk]]
    pair["rank"] = item["rank"]
    return pair


def _short(value, width=60):
    text = repr(value)
    return text if len(text) <= width else text[:width] + "..."


def _check_rows(rows, own, rank, certified):
    if len(rows) != len(own):
        return [f"{len(rows)} outcomes, the surgery rule gives {len(own)}"]
    errors = []
    for j, (row, mine) in enumerate(zip(rows, own)):
        word = mine["word"]
        expect = dict(mine, word=refs.format_word(word),
                      cyclic_class=refs.format_word(refs.unoriented(word)))
        for field in ("direction", "chord", "cap_from", "piece", "inherited_chords",
                      "word", "cyclic_class"):
            if row[field] != expect[field]:
                errors.append(f"outcome {j + 1}: {field} {_short(row[field])},"
                              f" rule gives {_short(expect[field])}")
                break
        support = {abs(a) for a in refs.cyclic_reduce(word)}
        if rank == 2 or support <= {1, 2}:
            if row["primitive"] != refs.rank2_primitive(word):
                errors.append(f"outcome {j + 1}: verdict disagrees with the Christoffel criterion")
            continue
        record = certified[j]
        if tuple(record["word"]) != word or record["primitive"] != row["primitive"]:
            errors.append(f"outcome {j + 1}: certified verdict does not match the report")
            continue
        problem = _verify_verdict(word, rank, record)
        if problem:
            errors.append(f"outcome {j + 1}: {problem}")
    return errors


def check_closure(items, results, run_dir):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    fig1 = {refs.format_word(refs.unoriented(refs.parse_word(c))) for c in FIG1_CLASSES}
    if any(refs.rank2_primitive(refs.parse_word(c)) for c in FIG1_CLASSES):
        return ["a fig1 class passes the Christoffel criterion"]
    errors = []
    rows_by_target = {}
    for i, (item, record) in enumerate(zip(items, results["first"])):
        label = " ".join(item["argv"][1:])
        if record is None:  # raised; counted as failed
            continue
        if record["code"] != 0:
            errors.append(f"{label}: exit code {record['code']}")
            continue
        with open(os.path.join(run_dir, f"out-{i}.txt"), encoding="utf-8") as fh:
            text = fh.read()
        read = read_json if "--machine" in item["argv"] else read_text
        head, rows, any_p, all_p, deviations = read(text)

        pair = _own_pair(item, root)
        rank = item["rank"]
        labels_d = tuple(a for w in pair["labels_d"] for a in w)
        labels_e = tuple(a for w in pair["labels_e"] for a in w)
        expected = {"scenario": item["path"] or f"fig1 (genus {rank})", "rank": rank,
                    "arcs": len(pair["chords"]),
                    "D": refs.format_word(labels_d),
                    "D reduced": refs.format_word(refs.free_reduce(labels_d)),
                    "E": refs.format_word(labels_e),
                    "E reduced": refs.format_word(refs.free_reduce(labels_e))}
        errors.extend(f"{label}: {key} {_short(head[key])}, expected {_short(value)}"
                      for key, value in expected.items() if head[key] != value)
        if deviations:
            errors.append(f"{label}: deviations reported")
        certified = (results["extra"] or {}).get(item["path"])
        problems = _check_rows(rows, refs.surgery_rows(pair), rank, certified)
        errors.extend(f"{label}: {p}" for p in problems[:3])
        for direction in ("on D along E", "on E along D"):
            flags = [r["primitive"] for r in rows if r["direction"] == direction]
            if any_p.get(direction) != any(flags) or all_p.get(direction) != all(flags):
                errors.append(f"{label}: closure flags for {direction} do not follow the rows")
        target = item["path"] or rank
        if target in rows_by_target and rows_by_target[target] != rows:
            errors.append(f"{label}: text and --machine rows differ")
        rows_by_target[target] = rows
        if item["pair"] is None and ({r["cyclic_class"] for r in rows} - fig1
                                     or any(r["primitive"] for r in rows)):
            errors.append(f"{label}: fig1 outcomes leave the paper's two non-primitive classes")
    return errors


CHECKS = {"descent": check_descent, "oracle": check_oracle, "closure": check_closure}
