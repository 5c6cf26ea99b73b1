"""The Whitehead-graph descent against the rewriting descent it replaced.

``whitehead_minimize`` reads each step off the word's Whitehead graph;
``helpers.reference_minimize`` rewrites the word with every table entry
in turn. They must agree on verdicts, minimal words and the very table
objects in the certificate, on either kernel backend.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from disksurgery import (
    Word,
    all_surgeries,
    builtin_scenario,
    enumerate_whitehead_autos,
    load_scenario,
    parse_word,
    primitivity,
    whitehead_minimize,
)
from disksurgery._kernels import pyops
from helpers import child_env, limit_memory, random_word, reference_minimize

GOLDEN = Path(__file__).parent / "golden"

def assert_same_descent(word, rank):
    got = whitehead_minimize(word, rank)
    want = reference_minimize(word, rank)
    assert got.primitive == want.primitive, (word, rank)
    assert got.minimal == want.minimal, (word, rank)
    assert len(got.certificate) == len(want.certificate), (word, rank)
    assert all(a is b for a, b in zip(got.certificate, want.certificate)), (word, rank)


@st.composite
def nielsen_images(draw):
    """A rank and an image of x1, x1^2 or [x1, x2] under random Nielsen moves."""
    rank = draw(st.integers(min_value=2, max_value=5))
    basis = [Word((i,)) for i in range(1, rank + 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=3 * rank))):
        i = draw(st.integers(min_value=0, max_value=rank - 1))
        j = draw(st.integers(min_value=0, max_value=rank - 2))
        j += j >= i
        factor = basis[j] if draw(st.booleans()) else basis[j].inverse()
        basis[i] = (basis[i] * factor if draw(st.booleans()) else factor * basis[i]).reduced()
    b1, b2 = basis[0], basis[1]
    kind = draw(st.sampled_from(["primitive", "square", "commutator"]))
    if kind == "primitive":
        return b1, rank
    if kind == "square":
        return b1 * b1, rank
    return b1 * b2 * b1.inverse() * b2.inverse(), rank


class TestMatchesReference:
    # The backend stays swapped for every example, as intended.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(nielsen_images())
    def test_nielsen_images(self, backend, case):
        word, rank = case
        if len(word.cyclic()) <= 60:
            assert_same_descent(word, rank)

    def test_random_words(self, backend, rng):
        for _ in range(100):
            rank = rng.choice([2, 3, 4])
            assert_same_descent(random_word(rng, rank, 14), rank)

    @pytest.mark.parametrize("genus", [3, 4, 5])
    def test_fig1_outcomes(self, backend, genus):
        system = builtin_scenario("fig1", genus)
        for outcome in all_surgeries(system):
            assert_same_descent(outcome.boundary_word, system.rank)

    def test_golden_pair_outcomes(self, backend):
        for system in (builtin_scenario("fig1", 3), load_scenario(GOLDEN / "mixed_rank3.json")):
            for outcome in all_surgeries(system):
                assert_same_descent(outcome.boundary_word, system.rank)


@pytest.fixture
def flows_per_step(monkeypatch):
    """Counts ``_flow_reaches`` calls in every descent step.

    Returns a list that gets one ``(flows, support rank)`` pair per
    ``_reducing_step`` call, the final one that finds no step included.
    """
    steps = []
    count = [0]
    flow_reaches, reducing_step = primitivity._flow_reaches, primitivity._reducing_step

    def counted_flow(*args):
        count[0] += 1
        return flow_reaches(*args)

    def counted_step(letters, rank):
        count[0] = 0
        result = reducing_step(letters, rank)
        steps.append((count[0], len({abs(a) for a in letters})))
        return result

    monkeypatch.setattr(primitivity, "_flow_reaches", counted_flow)
    monkeypatch.setattr(primitivity, "_reducing_step", counted_step)
    return steps


class TestFlowsPerStep:
    """The flow test of a multiplier's inverse repeats its own, so a step
    runs at most one max flow per generator of the word's support."""

    def check(self, steps):
        assert all(flows <= support for flows, support in steps), steps

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(nielsen_images())
    def test_nielsen_images(self, flows_per_step, case):
        word, rank = case
        if len(word.cyclic()) <= 60:
            whitehead_minimize(word, rank)
            self.check(flows_per_step)

    def test_random_words(self, flows_per_step, rng):
        for _ in range(100):
            rank = rng.choice([2, 3, 4])
            whitehead_minimize(random_word(rng, rank, 14), rank)
        self.check(flows_per_step)
        assert len(flows_per_step) > 100

    def test_golden_pair_outcomes(self, flows_per_step):
        for system in [builtin_scenario("fig1", g) for g in (3, 4, 5)] + \
                [load_scenario(GOLDEN / "mixed_rank3.json")]:
            for outcome in all_surgeries(system):
                whitehead_minimize(outcome.boundary_word, system.rank)
        self.check(flows_per_step)
        assert any(flows > 1 for flows, _ in flows_per_step)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_length_formula(rank, rng):
    """n + cap(A) - deg(a) is the cyclic length of the image under every
    second-kind (A, a); letters outside the support are not vertices."""
    autos = [a for a in enumerate_whitehead_autos(rank) if a.kind == "second"]
    checked = 0
    while checked < 25:
        letters = random_word(rng, rank, 16, min_len=2).cyclic().letters
        if len(letters) < 2:
            continue
        vertices, adj = primitivity._whitehead_graph(letters)
        assert sum(map(sum, adj)) == 2 * len(letters)
        for auto in autos:
            members = {v for v, x in enumerate(vertices) if x in auto.members}
            cap = sum(adj[u][v] for u in members for v in range(len(vertices)) if v not in members)
            a = vertices.index(auto.multiplier) if auto.multiplier in vertices else None
            degree = sum(adj[a]) if a is not None else 0
            image = pyops.cyclic_reduce(pyops.apply_images(letters, auto.images))
            assert len(image) == len(letters) + cap - degree, (letters, auto)
        checked += 1


class TestSupportRank:
    @pytest.mark.parametrize("support", [2, 3])
    def test_certificates_same_at_higher_ranks(self, support, rng):
        for _ in range(15):
            word = random_word(rng, support, 12)
            base = whitehead_minimize(word, support)
            for rank in range(support + 1, support + 4):
                verdict = whitehead_minimize(word, rank)
                assert verdict.minimal == base.minimal
                assert [a.describe() for a in verdict.certificate] == \
                    [a.describe() for a in base.certificate]
                assert all(a.rank == rank for a in verdict.certificate)

    def test_minimal_word_builds_no_table(self):
        enumerate_whitehead_autos.cache_clear()
        try:
            verdict = whitehead_minimize(Word((1, 2, -1, -2, 3, 3)), 9)
            assert not verdict.primitive and verdict.certificate == ()
            assert enumerate_whitehead_autos.cache_info().currsize == 0
        finally:
            enumerate_whitehead_autos.cache_clear()

    def test_steps_built_first_are_table_entries(self):
        # Benchmark tracing finds each certificate entry in the table by
        # identity, and the table may be built after the descent.
        caches = (enumerate_whitehead_autos, primitivity._second_auto)
        for cache in caches:
            cache.cache_clear()
        try:
            certificate = [auto for text in ("x1 x2 x1 x2 x2", "x3 x4^-1 x3 x1 x4 x2 x4",
                                             "x4 x3 x4 x3^-1 x2 x1^-1 x2 x4^-1")
                           for auto in whitehead_minimize(parse_word(text, 4), 4).certificate]
            assert len(certificate) == 15
            assert enumerate_whitehead_autos.cache_info().currsize == 0
            table = {id(auto) for auto in enumerate_whitehead_autos(4)}
            assert all(id(auto) in table for auto in certificate)
        finally:
            for cache in caches:
                cache.cache_clear()


# Runs the rank-12 cases and reports whether any Whitehead table was built.
RANK12_PROBE = """
from disksurgery import primitivity
from disksurgery.cli import main
codes = [main(["primitive", "--rank", "12", "x1"]),
         main(["primitive", "--rank", "12", "x1 x2 x1^-1 x2^-1"]),
         main(["primitive", "--rank", "12", "--no-oz", "x1 x2 x1^-1 x2^-1"]),
         main(["primitive", "--rank", "12", "x1 x2 x1 x2 x2"])]
print("codes", *codes)
print("tables", primitivity.enumerate_whitehead_autos.cache_info().currsize)
"""

def test_rank12_answers_without_a_table():
    # In a child under a memory limit and a timeout, so that a regression
    # to building the rank-12 table fails here instead of exhausting memory.
    out = subprocess.run(
        [sys.executable, "-c", RANK12_PROBE], capture_output=True, text=True,
        env=child_env("pure"), preexec_fn=limit_memory, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "codes 0 3 3 0" in lines
    assert "tables 0" in lines
    assert lines.count("minimal cyclic word: x1 x2 x1^-1 x2^-1 (length 4)") == 2
    assert sum(line.startswith("  step ") for line in lines) == 4


def test_rank9_closure_without_a_table(tmp_path):
    # The golden rank-3 pair read at rank 9, in a child under a memory
    # limit: building the rank-9 table there ends in a MemoryError.
    data = json.loads((GOLDEN / "mixed_rank3.json").read_text())
    data["rank"] = 9
    (tmp_path / "mixed_rank9.json").write_text(json.dumps(data))
    out = subprocess.run(
        [sys.executable, "-m", "disksurgery.cli", "closure", "mixed_rank9.json"],
        capture_output=True, text=True, cwd=tmp_path,
        env=child_env("pure"), preexec_fn=limit_memory, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    golden = (GOLDEN / "closure_mixed_rank3.txt").read_text().splitlines()
    lines = out.stdout.splitlines()
    assert lines[:2] == ["scenario: mixed_rank9.json", "rank: 9"]
    assert golden[:2] == ["scenario: mixed_rank3.json", "rank: 3"]
    assert lines[2:] == golden[2:]
