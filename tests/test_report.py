"""``render_json`` against ``json.dumps``: the fixed-schema writer must give
the same bytes on every report ``run_report`` can produce."""

import json
import random
from dataclasses import replace

import pytest

from disksurgery import builtin_scenario, render_json, run_report
from helpers import random_system


def assert_same_as_json_dumps(report):
    assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def fig1(genus):
    # fig1's labels use no generator beyond x2, so the same pair is a valid
    # rank-2 system; the built-in starts at genus 3.
    if genus == 2:
        system = builtin_scenario("fig1", 3)
        return replace(system, rank=2, meta={**system.meta, "genus": 2})
    return builtin_scenario("fig1", genus)


@pytest.mark.parametrize("seed", range(24))
def test_random_pairs(seed):
    system = random_system(random.Random(seed), max_chords=8)
    assert_same_as_json_dumps(run_report(system, f"random {seed}"))


@pytest.mark.parametrize("genus", range(2, 9))
def test_fig1(genus):
    assert_same_as_json_dumps(run_report(fig1(genus), f"fig1 (genus {genus})"))


ODD = ['"', "\\", "\t", "é", "\U0001F600"]


def test_label_and_point_names_that_need_escaping():
    system = builtin_scenario("fig1", 3)
    names = {p: f"{p}{ODD[i % len(ODD)]}{''.join(ODD)}" for i, p in enumerate(system.points)}
    renamed = replace(
        system,
        points=tuple(names[p] for p in system.points),
        order_d=tuple(names[p] for p in system.order_d),
        order_e=tuple(names[p] for p in system.order_e),
        chords=tuple((names[p], names[q]) for p, q in system.chords),
    )
    report = run_report(renamed, "label " + "".join(ODD))
    assert {row["cap_from"] for row in report["outcomes"]} <= set(names.values())
    assert_same_as_json_dumps(report)


def test_deviations():
    system = builtin_scenario("fig1", 3)
    wrong = replace(system, meta={**system.meta, "expected_outcome_classes": ["x1 x2"]})
    report = run_report(wrong, "fig1 with a wrong expected set")
    assert len(report["deviations"]) == len(report["outcomes"]) == 8
    assert_same_as_json_dumps(report)


def test_no_outcomes():
    # run_report always has outcomes (disjoint disks have no surgery), but
    # an empty list must still come out as json.dumps writes it.
    report = {**run_report(builtin_scenario("fig1", 3), "fig1"), "outcomes": []}
    assert_same_as_json_dumps(report)
