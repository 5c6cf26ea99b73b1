"""The Whitehead-graph descent against the rewriting descent it replaced.

``whitehead_minimize`` reads each step off the word's Whitehead graph;
``helpers.reference_minimize`` rewrites the word with every table entry
in turn. They must agree on verdicts, minimal words and the very table
objects in the certificate, on either kernel backend.
"""

import json
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from disksurgery import (
    Word,
    all_surgeries,
    builtin_scenario,
    is_primitive,
    load_scenario,
    parse_word,
    primitivity,
    whitehead_minimize,
)
from disksurgery._kernels import pyops
from disksurgery.cli import main
from disksurgery.primitivity import enumerate_whitehead_autos
from helpers import (
    child_env, image_table, limit_cpu_and_memory, limit_memory, random_word,
    reference_first_reducing_set, reference_minimize,
)

GOLDEN = Path(__file__).parent / "golden"

def assert_same_descent(word, rank):
    got = whitehead_minimize(word, rank)
    want = reference_minimize(word, rank)
    assert got.primitive == want.primitive, (word, rank)
    assert got.minimal == want.minimal, (word, rank)
    assert len(got.certificate) == len(want.certificate), (word, rank)
    assert all(a is b for a, b in zip(got.certificate, want.certificate)), (word, rank)
    return got


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

    def test_supports_five_and_six(self, backend, rng):
        # Each step runs the flow pre-test and then scans every mask: up to
        # 256 per multiplier at support 5 and 1,024 at support 6. The first
        # word is primitive in 10 steps. Squares are never primitive.
        words = [(parse_word("x3 x4 x1 x4 x3^-1 x1^-1 x5 x6^-1 x2^-1 x4 x5", 6), 6)]
        while len(words) < 9:
            rank = 5 + len(words) % 2
            word = random_word(rng, rank, 14, min_len=8)
            if len({abs(x) for x in word.cyclic().letters}) == rank:
                words.append((word, rank))
        words += [(word * word, rank) for word, rank in words[1:3]]
        verdicts = [assert_same_descent(word, rank) for word, rank in words]
        assert len(verdicts[0].certificate) == 10
        assert {v.primitive for v in verdicts} == {True, False}

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

    def counted_step(letters, names):
        count[0] = 0
        result = reducing_step(letters, names)
        steps.append((count[0], len({abs(a) for a in letters})))
        return result

    monkeypatch.setattr(primitivity, "_flow_reaches", counted_flow)
    monkeypatch.setattr(primitivity, "_reducing_step", counted_step)
    return steps


class TestFlowsPerStep:
    """At a support of at most four generators the mask scan decides every
    multiplier, and no max flow runs. Above that, the flow test of a
    multiplier's inverse repeats its own, so a step runs at most one max
    flow per support generator: up to a support of six the scan after the
    flow covers every mask, and the flows that fix a mask never run."""

    def check(self, steps):
        assert all(flows == 0 if support <= 4 else flows <= support
                   for flows, support in steps), steps

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
        # Every outcome here has a support of at most three generators.
        for system in [builtin_scenario("fig1", g) for g in (3, 4, 5)] + \
                [load_scenario(GOLDEN / "mixed_rank3.json")]:
            for outcome in all_surgeries(system):
                whitehead_minimize(outcome.boundary_word, system.rank)
        self.check(flows_per_step)
        assert flows_per_step and all(flows == 0 for flows, _ in flows_per_step)

    def test_supports_five_and_six(self, flows_per_step, rng):
        for _ in range(40):
            rank = rng.choice([5, 6])
            whitehead_minimize(random_word(rng, rank, 24, min_len=12), rank)
        self.check(flows_per_step)
        assert any(flows > 1 for flows, support in flows_per_step if support in (5, 6))


def wide_word(s):
    """``x2 x1^-1 x3 x1^-1 ... xs x1^-1``, primitive, with a support of s
    generators; from s = 7 on, some of its steps need the flows that fix
    a mask."""
    return " ".join(f"x{i} x1^-1" for i in range(2, s + 1))


def assert_flows_choose_first_set(letters):
    """Pins ``_smallest_reducing_set`` against the full mask scan for every
    multiplier vertex whose max flow is below its degree, and the flow
    test against the scan for the others, on the graph of ``letters``
    with their support renamed. Degrees are the graph's own, which count
    edges whether its rows are dense or sparse. Returns the multipliers
    checked by flows."""
    adj, degree = primitivity._whitehead_graph(primitivity._rename_support(letters)[0])
    checked = 0
    for a in range(len(adj)):
        scanned = reference_first_reducing_set(adj, degree, a)
        if primitivity._flow_reaches(adj, a, a ^ 1, degree[a]):
            assert scanned is None, (letters, a)
        else:
            assert primitivity._smallest_reducing_set(adj, degree, a) == scanned, (letters, a)
            checked += 1
    return checked


class TestSmallestReducingSet:
    """The mask that max flows fix is the first one the mask scan finds."""

    @settings(max_examples=80, deadline=None)
    @given(nielsen_images())
    def test_nielsen_images(self, case):
        letters = case[0].cyclic().letters
        if 2 <= len(letters) <= 60:
            assert_flows_choose_first_set(letters)

    def test_random_words(self, rng):
        checked = 0
        for support in range(2, 7):
            for _ in range(60):
                letters = random_word(rng, support, 24, min_len=2).cyclic().letters
                if len(letters) >= 2:
                    checked += assert_flows_choose_first_set(letters)
        assert checked > 300

    @pytest.mark.parametrize("s", range(3, 9))
    def test_wide_words(self, s):
        start = parse_word(wide_word(s), s).cyclic()
        trail = primitivity.replay_certificate(start, whitehead_minimize(start, s).certificate)
        assert sum(assert_flows_choose_first_set(w.letters) for w in trail if len(w) >= 2) > 0


def random_graph(rng, size, density):
    """A random Whitehead-like graph on ``size`` vertices, an even number:
    symmetric edge counts and no loops, in dense rows up to twice
    ``_SMALL_SUPPORT`` vertices and sparse rows above, as
    ``_whitehead_graph`` builds them, and its degrees."""
    sparse = size > 2 * primitivity._SMALL_SUPPORT
    adj = [primitivity._SparseRow() if sparse else [0] * size for _ in range(size)]
    for u in range(size):
        for v in range(u):
            if rng.random() < density:
                adj[u][v] = adj[v][u] = rng.randint(1, 3)
    return adj, [sum(row.values()) if sparse else sum(row) for row in adj]


class TestPlannedScan:
    """The planned scan finds the first reducing mask below
    ``2**_SCAN_BITS`` that the bit-by-bit reference scan finds, for every
    multiplier."""

    def assert_same_scan(self, adj, degree, multipliers):
        found = 0
        for a in multipliers:
            want = reference_first_reducing_set(adj, degree, a, 1 << primitivity._SCAN_BITS)
            assert primitivity._first_reducing_set(adj, degree, a) == want, (adj, a)
            found += want is not None
        return found

    @pytest.mark.parametrize("size", [4, 6, 8, 10, 12])
    def test_dense_graphs(self, size, rng):
        found = scanned = 0
        for _ in range(30):
            adj, degree = random_graph(rng, size, rng.choice([0.15, 0.3, 0.6]))
            assert all(type(row) is list for row in adj)
            found += self.assert_same_scan(adj, degree, range(size))
            scanned += size
        # Both answers occur: a reducing set, and none among the masks scanned.
        assert 0 < found < scanned

    @pytest.mark.parametrize("size", [14, 20, 40])
    def test_sparse_graphs(self, size, rng):
        found = 0
        for _ in range(6):
            adj, degree = random_graph(rng, size, 4 / size)
            found += self.assert_same_scan(adj, degree, range(size))
        assert found > 0

    def test_words_above_twelve_vertices(self, rng):
        for support in (7, 9, 13):
            for _ in range(4):
                letters = random_word(rng, support, 60, min_len=40).cyclic().letters
                renamed, names = primitivity._rename_support(letters)
                adj, degree = primitivity._whitehead_graph(renamed)
                assert len(adj) == 2 * len(names) > 2 * primitivity._SMALL_SUPPORT
                assert all(type(row) is primitivity._SparseRow for row in adj)
                assert degree == [sum(row.values()) for row in adj]
                self.assert_same_scan(adj, degree, range(len(adj)))

    def test_rows_dense_up_to_twelve_vertices(self):
        for support, kind in ((6, list), (7, primitivity._SparseRow)):
            letters = tuple(range(1, support + 1)) * 2
            adj, degree = primitivity._whitehead_graph(letters)
            assert len(adj) == 2 * support and all(type(row) is kind for row in adj)
            assert degree == [2] * (2 * support)
            # Two edges x_i -- x_(i+1)^-1 for each i, the last to x1^-1.
            size = 2 * support
            want = [[0] * size for _ in range(size)]
            for i in range(support):
                u, v = 2 * i, (2 * i + 3) % size
                want[u][v] = want[v][u] = 2
            assert [[row[v] for v in range(size)] for row in adj] == want


@pytest.mark.parametrize("generators,rank", [
    pytest.param(range(1, 6), 5, id="5"),
    pytest.param(range(1, 7), 6, id="6"),
    pytest.param(range(1, 8), 7, id="7"),
    pytest.param(range(3, 8), 9, id="x3-x7-rank9"),
])
def test_flow_disagreeing_with_sets_raises(generators, rank, monkeypatch):
    """A flow below deg(a) with no reducing set after it is an error, on
    the scan path (supports 5 and 6, the largest whose scan covers every
    mask) and on the path that fixes a mask by flows (support 7), not a
    skipped multiplier or a step that does not shorten.
    The error names the caller's letter: over ``x3..x7`` it is ``x3``,
    not the ``x1`` that the renamed support calls it."""
    word = Word(tuple(g for i in generators for g in (i, i)))
    assert whitehead_minimize(word, rank).certificate == ()
    monkeypatch.setattr(primitivity, "_flow_reaches", lambda *args: False)
    with pytest.raises(RuntimeError, match=f"no reducing set for multiplier x{generators[0]} "):
        whitehead_minimize(word, rank)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_length_formula(rank, rng):
    """n + cap(A) - deg(a) is the cyclic length of the image under every
    second-kind (A, a); letters outside the support are not vertices, and
    a support letter's vertex is the letter_key of its renamed letter."""
    autos = enumerate_whitehead_autos(rank)
    checked = 0
    while checked < 25:
        letters = random_word(rng, rank, 16, min_len=2).cyclic().letters
        if len(letters) < 2:
            continue
        renamed, names = primitivity._rename_support(letters)
        adj, degrees = primitivity._whitehead_graph(renamed)
        assert len(adj) == 2 * len(names)
        assert sum(map(sum, adj)) == sum(degrees) == 2 * len(letters)
        assert degrees == [sum(row) for row in adj]
        vertex = {x: pyops.letter_key(y) for x, y in zip(letters, renamed)}
        vertex.update({-x: v ^ 1 for x, v in list(vertex.items())})
        for auto in autos:
            members = {vertex[x] for x in auto.members if x in vertex}
            cap = sum(adj[u][v] for u in members for v in range(len(adj)) if v not in members)
            degree = sum(adj[vertex[auto.multiplier]]) if auto.multiplier in vertex else 0
            image = pyops.cyclic_reduce(pyops.apply_images(letters, image_table(auto)))
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

    def test_skipped_and_shrinking_supports(self, rng):
        # The descent renames the support onto x1..xs, and again whenever
        # it shrinks. Certificates must still be the reference's, and each
        # entry the very object of the table at the word's rank.
        words = [parse_word("x2 x5 x2 x5 x5", 6), parse_word("x2 x5^-1 x2 x5^-1 x2", 6),
                 parse_word("x3 x1 x3 x1 x1", 4)]
        words = [(word, max(map(abs, word.letters))) for word in words]
        for rank in range(2, 7):
            for _ in range(24 if rank < 5 else 6):
                support = rng.sample(range(1, rank + 1), rng.randint(1, min(rank, 3)))
                letters = [rng.choice(support) * rng.choice((1, -1)) for _ in range(12)]
                words.append((Word(tuple(letters)), rank))
                # A Nielsen image of a generator of the support, which is
                # primitive, so its descent ends on one generator.
                basis = [Word((g,)) for g in support]
                for _ in range(3 * len(support) if len(support) > 1 else 0):
                    i, j = rng.sample(range(len(support)), 2)
                    factor = basis[j] if rng.random() < 0.5 else basis[j].inverse()
                    basis[i] = (basis[i] * factor).reduced()
                words.append((basis[0], rank))
        shrank = skipped = 0
        for word, rank in words:
            assert_same_descent(word, rank)
            certificate = whitehead_minimize(word, rank).certificate
            table = {id(auto) for auto in enumerate_whitehead_autos(rank)}
            assert all(id(auto) in table for auto in certificate), (word, rank)
            trail = primitivity.replay_certificate(word, certificate)
            sizes = [len({abs(x) for x in w.letters}) for w in trail]
            shrank += any(size < sizes[0] for size in sizes[1:-1])
            skipped += bool(certificate) and max(map(abs, word.letters)) > sizes[0]
        assert shrank >= 10 and skipped >= 10, (shrank, skipped)

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
        # identity, and the table may be built after the descent. The step
        # cache holds certificate entries too, so it starts empty as well.
        caches = (enumerate_whitehead_autos, primitivity._second_auto, primitivity._step)
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


def primitive_cli(rank, word, **limits):
    return subprocess.run(
        [sys.executable, "-m", "disksurgery.cli", "primitive", "--rank", str(rank), word],
        capture_output=True, text=True, env=child_env("pure"), timeout=60, **limits,
    )


def test_rank_million_prints_what_rank5_prints():
    # Each step's image table is sized by the word's support, so at rank
    # 10**6 the answer is that of rank 5. A table sized by the rank (2 * 10**6
    # slots per step) ends in a MemoryError or runs out the timeout here.
    big = primitive_cli(10**6, "x1 x2 x1 x2 x2", preexec_fn=limit_memory)
    small = primitive_cli(5, "x1 x2 x1 x2 x2")
    assert big.returncode == 0 and small.returncode == 0, big.stderr
    lines = big.stdout.splitlines()
    assert "rank: 1000000" in lines and "verdict: primitive" in lines
    assert [line for line in lines if not line.startswith("rank: ")] == \
        [line for line in small.stdout.splitlines() if not line.startswith("rank: ")]


def test_high_indices_at_rank_million_print_the_low_ones_renamed():
    # The certificate replay renames the word and A onto their support, as
    # the descent does, so x999999 and x1000000 replay as x1 and x2. A
    # replay table up to the largest index, 2 * 10**6 slots a step, took
    # 3.3 s of CPU on a 2-core Xeon; over the support it takes about 0.2 s.
    big = primitive_cli(10**6, "x999999 x1000000 x999999 x1000000 x1000000",
                        preexec_fn=partial(limit_cpu_and_memory, 2))
    small = primitive_cli(5, "x1 x2 x1 x2 x2")
    assert big.returncode == 0 and small.returncode == 0, big.stderr
    renamed = re.sub(r"x([12])\b", lambda m: "x999999" if m[1] == "1" else "x1000000",
                     small.stdout)
    assert [line for line in big.stdout.splitlines() if not line.startswith("rank: ")] == \
        [line for line in renamed.splitlines() if not line.startswith("rank: ")]
    assert "  step 4: second(a=x999999, A={x999999, x1000000}) -> x1000000 (length 1)" \
        in big.stdout.splitlines()


# Forty reducible five-letter words over two generators picked from 1..20,000.
RANK20000_PROBE = """
import random
from disksurgery import Word, is_primitive
rng = random.Random(20000)
steps = 0
for _ in range(40):
    a, b = rng.sample(range(1, 20001), 2)
    verdict = is_primitive(Word((a, b, a, b, b)), 20000)
    assert verdict.primitive
    steps += len(verdict.certificate)
print("steps", steps)
"""

def test_many_words_at_a_high_rank_keep_no_tables():
    # A 40,000-slot table kept for each step takes this process past
    # 256 MiB; tables over the support keep it far below.
    out = subprocess.run(
        [sys.executable, "-c", RANK20000_PROBE], capture_output=True, text=True,
        env=child_env("pure"), preexec_fn=partial(limit_memory, 256 * 2**20), timeout=60,
    )
    assert out.returncode == 0, out.stderr
    name, steps = out.stdout.split()
    assert name == "steps" and int(steps) >= 100


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


def test_wide_word_certificate(backend, capsys):
    # Four of its 17 steps take the mask from the flows that fix it; the
    # golden output is that of the full mask scan.
    assert main(["primitive", "--rank", "10", wide_word(10)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "primitive_wide_rank10.txt").read_text()


def power_roots(rng):
    """Seeded cyclically reduced words at ranks 2-6, and ``wide_word(s)``
    for s = 3-12, each with its rank."""
    roots = []
    while len(roots) < 60:
        rank = 2 + len(roots) % 5
        letters = random_word(rng, rank, 12, min_len=1).cyclic().letters
        if letters:
            roots.append((Word(letters), rank))
    return roots + [(parse_word(wide_word(s), s), s) for s in range(3, 13)]


class TestProperPowers:
    """``u^m`` is descended and replayed on its root ``u``: the same
    certificate, and ``u``'s minimum raised to the ``m``-th power."""

    def test_power_descends_as_its_root(self, backend, rng):
        checked = 0
        for root, rank in power_roots(rng):
            base = whitehead_minimize(root, rank)
            for m in range(2, 6):
                word = Word(root.letters * m)
                got = whitehead_minimize(word, rank)
                assert all(a is b for a, b in zip(got.certificate, base.certificate))
                assert len(got.certificate) == len(base.certificate), (root, m)
                assert got.minimal.letters == base.minimal.letters * m, (root, m)
                assert not got.primitive
                if rank <= 4 and len(word) <= 40:
                    assert_same_descent(word, rank)
                    checked += 1
        assert checked > 100

    def test_power_descends_as_the_whole_word(self, backend, rng, monkeypatch):
        # The descent over every letter of u^m, as it ran before roots.
        cases = [(Word(root.letters * m), rank)
                 for root, rank in power_roots(rng) for m in range(2, 6)]
        got = [whitehead_minimize(word, rank) for word, rank in cases]
        monkeypatch.setattr(primitivity, "_primitive_root", lambda letters: (letters, 1))
        want = [whitehead_minimize(word, rank) for word, rank in cases]
        for (word, _), a, b in zip(cases, got, want):
            assert a.minimal == b.minimal, word
            assert len(a.certificate) == len(b.certificate), word
            assert all(x is y for x, y in zip(a.certificate, b.certificate)), word

    def test_power_never_primitive(self, rng):
        for root, rank in power_roots(rng) + [(Word((1,)), 2), (Word((-3,)), 3)]:
            for m in range(2, 6):
                for use_oz in (True, False):
                    assert not is_primitive(Word(root.letters * m), rank,
                                            use_oz=use_oz).primitive

    def test_no_step_reads_more_than_the_root(self, rng, monkeypatch):
        lengths = []
        reducing_step = primitivity._reducing_step

        def counted_step(letters, names):
            lengths.append(len(letters))
            return reducing_step(letters, names)

        monkeypatch.setattr(primitivity, "_reducing_step", counted_step)
        for root, rank in power_roots(rng):
            for m in range(2, 6):
                lengths.clear()
                whitehead_minimize(Word(root.letters * m), rank)
                assert max(lengths, default=0) <= len(root), (root, m, lengths)

    def test_replay_on_the_root(self, backend, rng, monkeypatch):
        # Each trail word equals the image of the whole previous word, but
        # the replay applies each step to a word no longer than the root.
        apply_auto_cyclic = primitivity.apply_auto_cyclic
        lengths = []

        def counted_apply(auto, cyclic):
            lengths.append(len(cyclic))
            return apply_auto_cyclic(auto, cyclic)

        for root, rank in power_roots(rng):
            certificate = whitehead_minimize(root, rank).certificate
            for m in range(2, 5):
                start = Word(root.letters * m).cyclic()
                monkeypatch.setattr(primitivity, "apply_auto_cyclic", counted_apply)
                trail = primitivity.replay_certificate(start, certificate)
                monkeypatch.setattr(primitivity, "apply_auto_cyclic", apply_auto_cyclic)
                assert max(lengths, default=0) <= len(root), (root, m)
                lengths.clear()
                want = start
                for auto, cyclic in zip(certificate, trail[1:]):
                    want = primitivity.apply_auto_cyclic(auto, want)
                    assert cyclic == want, (root, m)
                assert len(trail) == len(certificate) + 1

    def test_cube_golden(self, backend, capsys):
        # The golden stdout is that of the descent over the whole word.
        word = " ".join(["x1 x2 x1 x3^-1 x2"] * 3)
        assert main(["primitive", "--rank", "3", "--no-oz", word]) == 3
        assert capsys.readouterr().out == (GOLDEN / "primitive_power_rank3.txt").read_text()

    @pytest.mark.parametrize("text,root", [
        ("x1", None), ("x1 x1", (1,)), ("x1 x2 x1 x2 x1 x2", (1, 2)), ("x1 x2 x1 x2 x1", None),
        ("x1 x2 x2 x1 x2 x1", None), ("x1 x2 x1 x1 x2 x1", (1, 2, 1)),
        ("x2 x1^-1 x2 x1^-1 x2 x1^-1 x2 x1^-1", (2, -1)),
    ])
    def test_primitive_root(self, text, root):
        letters = parse_word(text, 2).letters
        u, m = primitivity._primitive_root(letters)
        want = letters if root is None else root
        assert (u, m) == (want, len(letters) // len(want))


@pytest.mark.parametrize("s", [15, 40])
def test_wide_support_answers_in_bounds(s):
    # A scan of every mask walks up to 4**(s - 1) of them per step here,
    # and runs out of memory at s = 15. The child gets 10 s of CPU time.
    out = subprocess.run(
        [sys.executable, "-m", "disksurgery.cli", "primitive", "--rank", str(s), wide_word(s)],
        capture_output=True, text=True, env=child_env("pure"),
        preexec_fn=limit_cpu_and_memory, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "verdict: primitive" in lines
    assert lines[-1].startswith(f"  step {2 * s - 3}: ")


def chain_word(n):
    """``x1 x2 ... xn``, primitive, with a support of n generators; each
    of its n - 1 steps is found by the scan at mask 2."""
    return " ".join(f"x{i}" for i in range(1, n + 1))


def test_chain_word_answers_in_bounds():
    # A dense (2n)**2 graph per step took 94 MiB and 54 s of CPU at n = 1,000
    # (2-core Xeon), and a MemoryError at n = 5,000; sparse rows take memory
    # linear in the word. The child gets 512 MiB and 10 s of CPU time.
    out = primitive_cli(500, chain_word(500), preexec_fn=limit_cpu_and_memory)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "verdict: primitive" in lines
    assert lines[-1].startswith("  step 499: ")


# The descent of x1 ... x2000: its verdict, its steps and the scan plans kept.
CHAIN2000_PROBE = """
from disksurgery import Word, primitivity, whitehead_minimize
verdict = whitehead_minimize(Word(tuple(range(1, 2001))), 2000)
print(verdict.primitive, len(verdict.certificate), primitivity._scan_plan.cache_info().currsize)
"""

def test_chain_word_keeps_few_scan_plans():
    # A plan per multiplier would keep about 2,000 here. The child is held
    # to MEMORY_LIMIT; it takes about 5 s of CPU on a 2-core Xeon.
    out = subprocess.run(
        [sys.executable, "-c", CHAIN2000_PROBE], capture_output=True, text=True,
        env=child_env("pure"), preexec_fn=limit_memory, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    primitive, steps, plans = out.stdout.split()
    assert primitive == "True" and steps == "1999"
    assert 0 < int(plans) <= MAX_SCAN_PLANS


# Scan plans are keyed by the number n of vertices scanned, an even number
# up to _SCAN_BITS = 10, and by the pair skipped, one of the n/2 + 1 pairs
# it can skip: 1 + 2 + ... + 6 keys.
MAX_SCAN_PLANS = 21


def test_scan_plans_bounded_over_every_size_and_multiplier(rng):
    primitivity._scan_plan.cache_clear()
    try:
        for size in range(2, 31, 2):
            adj, degree = random_graph(rng, size, 0.3)
            for a in range(size):
                primitivity._first_reducing_set(adj, degree, a)
        assert primitivity._scan_plan.cache_info().currsize == MAX_SCAN_PLANS
    finally:
        primitivity._scan_plan.cache_clear()
