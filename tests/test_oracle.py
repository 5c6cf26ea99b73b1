"""The orbit oracle against the full-table closure it replaced.

``oracle_primitives`` closes the length-one classes under the
second-kind generators built from ``(a, A)``, expands one word per
signed-permutation orbit and never expands a word at the length bound;
``helpers.reference_oracle`` expands every word from ``x1`` under the
whole table. They must return the same set on either kernel backend,
and the cap must fire at the same closure size.
"""

import itertools
import math
from collections import Counter
import subprocess
import sys
from functools import partial

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from disksurgery import (
    CyclicWord,
    WhiteheadAuto,
    apply_auto_cyclic,
    oracle_primitives,
    primitivity,
)
from disksurgery._kernels import letter_key
from disksurgery.cli import _letter_order
from disksurgery.primitivity import OracleCapExceeded, enumerate_whitehead_autos
from helpers import (
    child_env, christoffel, first_kind_auto, first_kind_generators, image_table,
    limit_cpu_and_memory, limit_memory, random_word, reference_oracle,
)

PINNED = ([(2, n) for n in range(1, 17)] + [(2, 20)] + [(3, n) for n in range(1, 7)]
          + [(4, n) for n in range(1, 4)] + [(5, 2)])


def is_relabelling(images):
    # Relabelling tables map each letter slot to one letter; every kept
    # second-kind table has an image of two letters or more.
    return all(len(image) == 1 for image in images)


@pytest.mark.parametrize("rank,max_len", PINNED)
def test_matches_reference(backend, rank, max_len):
    assert oracle_primitives(rank, max_len) == reference_oracle(rank, max_len)


def test_rank2_closure_is_the_christoffel_words(backend):
    # Up to conjugacy, the primitive elements of F(x1, x2) longer than one
    # letter are the Christoffel words of coprime (p, q), every rotation
    # of them, with each generator given one sign (Osborne-Zieschang 1981;
    # Cohen-Metzler-Zimmermann 1981): 4 phi(n) classes of length n. This
    # ground truth does not depend on how the oracle relabels.
    want = {CyclicWord((x,)) for x in (1, -1, 2, -2)}
    for n in range(2, 61):
        for p in range(1, n):
            if math.gcd(p, n - p) == 1:
                word = christoffel(p, n - p)
                want.update(CyclicWord(tuple(a if x == 1 else b for x in word))
                            for a, b in itertools.product((1, -1), (2, -2)))
    closure = oracle_primitives(2, 60)
    assert closure == want
    counts = Counter(map(len, closure))
    phi = [sum(math.gcd(k, n) == 1 for k in range(1, n + 1)) for n in range(2, 61)]
    assert [counts[n] for n in range(2, 61)] == [4 * f for f in phi]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_skipped_entries_act_as_kept_ones(rank, rng):
    """(A, a) and (L - A, a^-1) give the same cyclic word, and the
    entries with |A| = 1 or |A| = 2 * rank - 1 fix every cyclic word."""
    letters = frozenset(range(-rank, rank + 1)) - {0}
    cyclics = [random_word(rng, rank, 14).cyclic() for _ in range(20)]
    for auto in enumerate_whitehead_autos(rank):
        partner = WhiteheadAuto(rank, -auto.multiplier, letters - auto.members)
        fixes = len(auto.members) in (1, 2 * rank - 1)
        for cyclic in cyclics:
            image = apply_auto_cyclic(auto, cyclic)
            assert image == apply_auto_cyclic(partner, cyclic), (auto, cyclic)
            if fixes:
                assert image == cyclic, (auto, cyclic)


@pytest.mark.parametrize("rank,max_len", [(2, 6), (3, 4), (3, 1)])
def test_cap_fires_exactly_above_closure_size(rank, max_len, monkeypatch):
    size = len(reference_oracle(rank, max_len))
    monkeypatch.setattr(primitivity, "ORACLE_NODE_CAP", size)
    assert len(oracle_primitives(rank, max_len)) == size
    monkeypatch.setattr(primitivity, "ORACLE_NODE_CAP", size - 1)
    with pytest.raises(OracleCapExceeded):
        oracle_primitives(rank, max_len)


def orbit_representatives(words, rank):
    """One word per orbit of the signed permutations on ``words``, a set
    closed under them, found with the helper's generators."""
    tables = [auto.images for auto in first_kind_generators(rank)]
    left, representatives = set(words), []
    while left:
        stack = [left.pop()]
        representatives.append(stack[0])
        while stack:
            cyclic = stack.pop()
            for images in tables:
                image = CyclicWord(primitivity.apply_images_canonical(cyclic.letters, images))
                if image in left:
                    left.remove(image)
                    stack.append(image)
    return representatives


def count_relabellings(monkeypatch):
    """Patch ``primitivity._relabel`` to record each orbit it is asked
    for: its word, the letter tables consumed, which stop short of all of
    them when the cap fires partway through the orbit, and the words
    given to ``least_rotation`` while it is relabelled."""
    orbits = []
    relabel, rotate = primitivity._relabel, primitivity.least_rotation

    def counted(letters, groups):
        used, rotated = [], []
        orbits.append((letters, used, rotated))

        def recorded(tables):
            for table in tables:
                used.append(table)
                yield table

        return relabel(letters, ((used.append(first) or first, inverse,
                                  recorded(rest) if rest else rest)
                                 for first, inverse, rest in groups))

    def rotation(letters):
        orbits[-1][2].append(letters)
        return rotate(letters)

    monkeypatch.setattr(primitivity, "_relabel", counted)
    monkeypatch.setattr(primitivity, "least_rotation", rotation)
    return orbits


def mixed_generators(letters):
    return tuple(sorted({abs(x) for x in letters if -x in letters}))


def induced_orders(letters):
    """The orders that the injective signed maps induce on the letters of
    a word whose support is x1..x_s: one per permutation of the
    generators and choice of signs on those that occur with both."""
    return math.factorial(max(map(abs, letters))) << len(mixed_generators(letters))


@pytest.mark.parametrize("rank,max_len", [(2, 12), (3, 4), (3, 1), (5, 3), (8, 2)])
def test_work_is_expanded_words_times_generators(rank, max_len, monkeypatch):
    # One word per signed-permutation orbit is expanded, under the
    # n * (4**(n - 1) - 2) generators of rank n = min(s + 1, rank) for a
    # support of s generators. A return to expanding every word, to the
    # generators of the whole rank, or to expanding words at the bound
    # fails here, not only in timings.
    calls = []
    kernel = primitivity.apply_images_canonical

    def counted(letters, images, *rest):
        calls.append(images)
        return kernel(letters, images, *rest)

    monkeypatch.setattr(primitivity, "apply_images_canonical", counted)
    orbits = count_relabellings(monkeypatch)
    closure = oracle_primitives(rank, max_len)
    monkeypatch.undo()
    representatives = orbit_representatives(closure, rank)
    supports = [(len(cyclic), len({abs(x) for x in cyclic.letters})) for cyclic in representatives]
    ranks = [min(s + 1, rank) for length, s in supports if length < max_len]
    # The kernel only expands; no relabelling goes through it.
    assert not any(map(is_relabelling, calls))
    assert len(calls) == sum(n * (4 ** (n - 1) - 2) for n in ranks)
    # Each orbit but the seeds' is added once, by one relabelling per
    # injective signed map of its support; the seeds, every word of
    # length one, are added without any.
    assert len(orbits) == len(supports) - 1
    assert sum(len(used) for _, used, _ in orbits) == \
        sum(math.perm(rank, s) << s for length, s in supports if length > 1)
    # One least rotation per order the maps induce on the orbit's word,
    # of the word's image under the first table of its group.
    for letters, used, rotated in orbits:
        assert len(rotated) == induced_orders(letters)
        assert set(rotated) <= {tuple(table[x] for x in letters) for table in used}
    if (rank, max_len) == (8, 2):
        [(letters, used, rotated)] = orbits
        assert (letters, len(used), len(rotated)) == ((1, 2), 224, 2)


def letter_images(table):
    """The image table, in letter_key order, of a letter table over x1..x_s."""
    return tuple((table[x],) for i in range(1, len(table) // 2 + 1) for x in (i, -i))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_relabellings_are_the_signed_maps_of_a_support(rank):
    # Each letter table, read as an image table, is the first 2 * size
    # slots of a signed permutation's table, every signed permutation
    # gives one, and none repeats. Slot -i holds the inverse of slot i.
    whole = {first_kind_auto(rank, perm, signs).images
             for perm in itertools.permutations(range(1, rank + 1))
             for signs in itertools.product((1, -1), repeat=rank)}
    for size in range(1, rank + 1):
        tables = list(primitivity._relabellings(rank, size))
        assert len(tables) == math.perm(rank, size) << size
        assert {len(table) for table in tables} == {2 * size + 1}
        assert all(table[-i] == -table[i] for table in tables for i in range(1, size + 1))
        assert {letter_images(table) for table in tables} == {images[:2 * size] for images in whole}


def induced_order(table, letters):
    return sorted(set(letters), key=lambda x: letter_key(table[x]))


@pytest.mark.parametrize("rank,size", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (5, 2)])
def test_groups_are_the_induced_orders(rank, size):
    # For every set of generators that occur with both signs, the groups
    # hold every table once, one group per induced order: the tables of a
    # group induce one order on the letters, and two groups two orders.
    tables = list(primitivity._relabellings(rank, size))
    for count in range(size + 1):
        for mixed in itertools.combinations(range(1, size + 1), count):
            letters = [*range(1, size + 1), *(-i for i in mixed)]
            groups = primitivity._relabelling_groups(tables, size, mixed)
            assert len(groups) == math.factorial(size) << count
            assert sorted(t for first, _, rest in groups for t in (first, *rest)) == sorted(tables)
            orders = []
            for first, inverse, rest in groups:
                # The first table is a signed permutation of x1..x_size.
                assert sorted(map(abs, first[1:size + 1])) == list(range(1, size + 1))
                slots = range(-size, size + 1)
                assert [inverse[first[x]] for x in slots] == list(slots)
                order = induced_order(first, letters)
                assert all(induced_order(table, letters) == order for table in rest)
                orders.append(order)
            assert len(set(map(tuple, orders))) == len(groups)


def test_cap_fires_inside_an_orbit(monkeypatch):
    # The first new orbit at rank 8 is that of x1 x2: 112 words from 224
    # maps. With 16 seeds and a cap of 100, the check must fire partway
    # through it, not after it. A cap below the 224 tables also makes
    # them one at a time, each its own group with its own least rotation.
    orbits = count_relabellings(monkeypatch)
    monkeypatch.setattr(primitivity, "ORACLE_NODE_CAP", 100)
    with pytest.raises(OracleCapExceeded, match="exceeded 100 canonical words"):
        oracle_primitives(8, 2)
    [(letters, used, rotated)] = orbits
    assert letters == (1, 2)
    assert {len(table) for table in used} == {5}
    assert 85 <= len(used) < math.perm(8, 2) << 2
    assert rotated == [tuple(table[x] for x in letters) for table in used]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 5).flatmap(lambda rank: st.tuples(
    st.just(rank), st.lists(st.integers(-rank, rank).filter(bool), min_size=2, max_size=30))),
    st.randoms(use_true_random=False))
def test_relabel_is_the_kernel_on_single_letter_tables(backend, case, rand):
    # On a cyclically reduced word over x1..x_s, each letter table of each
    # group gives the kernel's canonical image under the equivalent
    # single-letter table, though only a group's first table is rotated.
    # The words have mixed signs, letters without their inverses, and
    # generators missing from the support.
    rank, letters = case
    letters = primitivity.cyclic_reduce(letters)
    assume(len(letters) > 1)
    size = max(map(abs, letters))
    tables = list(primitivity._relabellings(rank, size))
    groups = primitivity._relabelling_groups(tables, size, mixed_generators(letters))
    groups = [(first, inverse, rand.sample(rest, min(len(rest), 3)))
              for first, inverse, rest in rand.sample(groups, min(len(groups), 4))]
    got = list(primitivity._relabel(letters, groups))
    assert got == [primitivity.apply_images_canonical(letters, letter_images(table))
                   for first, _, rest in groups for table in (first, *rest)]


def test_letter_budget_raises_past_its_constant(monkeypatch):
    # Rank 2 at length 12 keeps 184 words of 1,500 letters. A budget just
    # below that raises once the last orbit is added, one just at it does
    # not.
    assert sum(map(len, oracle_primitives(2, 12))) == 1500
    monkeypatch.setattr(primitivity, "ORACLE_LETTER_BUDGET", 1500)
    assert len(oracle_primitives(2, 12)) == 184
    monkeypatch.setattr(primitivity, "ORACLE_LETTER_BUDGET", 1499)
    with pytest.raises(OracleCapExceeded, match=r"exceeded ORACLE_LETTER_BUDGET = 1499 kept"
                       r" letters \(rank 2, max_len 12\)") as raised:
        oracle_primitives(2, 12)
    assert raised.value.cap == 1499


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_generator_tables_are_the_kept_entries(rank):
    tables = list(primitivity._second_kind_images(rank))
    assert len(tables) == rank * (4 ** (rank - 1) - 2)
    kept = [image_table(auto) for auto in enumerate_whitehead_autos(rank)
            if auto.multiplier > 0 and 1 < len(auto.members) < 2 * rank - 1]
    assert sorted(tables) == sorted(kept)


MAX_LEN = {2: 12, 3: 5, 4: 3}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(
    lambda rank: st.tuples(st.just(rank), st.integers(1, MAX_LEN[rank]))))
def test_closed_under_first_kind_and_inversion(case):
    rank, max_len = case
    closure = oracle_primitives(rank, max_len)
    assert all(cyclic.inverse() in closure for cyclic in closure)
    for auto in first_kind_generators(rank):
        assert all(CyclicWord(primitivity.apply_images_canonical(cyclic.letters, auto.images))
                   in closure for cyclic in closure), auto


@pytest.mark.parametrize("value", [1.0, 2.5, True, "3"], ids=str)
def test_max_len_must_be_an_int(value, monkeypatch):
    # Checked before any work, so max_len 1.0 cannot pass for 1 by making
    # no kernel call.
    monkeypatch.setattr(primitivity, "apply_images_canonical", None)
    with pytest.raises(TypeError, match="max_len must be an int"):
        oracle_primitives(2, value)


RANK7_PROBE = """
from disksurgery import primitivity
from disksurgery.cli import main
code = main(["oracle", "--rank", "7", "--max-len", "2"])
print("code", code)
print("tables", primitivity.enumerate_whitehead_autos.cache_info().currsize)
"""

def test_rank7_closure_without_a_table():
    # In a child under a memory limit and a timeout, so that a regression
    # to building the rank-7 table fails here instead of exhausting memory.
    out = subprocess.run(
        [sys.executable, "-c", RANK7_PROBE], capture_output=True, text=True,
        env=child_env("pure"), preexec_fn=limit_memory, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-2:] == ["code 0", "tables 0"]
    words = lines[:-2]
    assert len(words) == 98
    assert {len(w.split()) for w in words} == {1, 2}


BOUND_PROBE = """
import sys
from disksurgery import primitivity
from disksurgery.cli import main
primitivity.{} = {}
sys.exit(main(["oracle", "--rank", "{}", "--max-len", "{}"]))
"""


def run_bound_probe(bound, value, rank, max_len):
    return subprocess.run(
        [sys.executable, "-c", BOUND_PROBE.format(bound, value, rank, max_len)],
        capture_output=True, text=True, env=child_env("pure"),
        preexec_fn=partial(limit_cpu_and_memory, 10), timeout=60,
    )


def test_letter_budget_exits_5_under_a_memory_limit():
    # Rank 2 at length 400 is 194,712 words, below the node cap, but 51.9
    # million letters: without the budget it ends in a MemoryError under
    # 512 MiB. A budget lowered to 10**5 letters keeps the child quick;
    # CI runs the command at the real budget under the same limit.
    out = run_bound_probe("ORACLE_LETTER_BUDGET", 10**5, 2, 400)
    assert out.returncode == 5, out.stderr
    assert out.stdout == ""
    assert out.stderr == ("error: oracle closure exceeded ORACLE_LETTER_BUDGET = 100000 kept"
                          " letters (rank 2, max_len 400)\n")


def test_rank8_cap_exits_5():
    # A node cap of 100 is passed at rank 8, where the closure has 128
    # words; CI runs the real cap at rank 1000 under the same limit.
    out = run_bound_probe("ORACLE_NODE_CAP", 100, 8, 2)
    assert out.returncode == 5, out.stderr
    assert out.stdout == ""
    assert out.stderr == "error: oracle closure exceeded 100 canonical words (rank 8, max_len 2)\n"


@pytest.mark.parametrize("rank,width", [(2, 1), (3, 1), (128, 1), (129, 2), (40000, 3)])
def test_cli_order_is_the_letter_key_order(rank, width, rng):
    # The oracle command sorts by byte keys; they order words as their
    # tuples of letter keys do, at one byte a letter up to rank 128.
    words = [CyclicWord(random_word(rng, rank, 12, 1).letters) for _ in range(300)]
    words += [CyclicWord((rank,)), CyclicWord((-rank,)), CyclicWord((1,)), CyclicWord((-1, -rank))]
    key = _letter_order(rank)
    assert sorted(words, key=key) == sorted(words, key=lambda w: tuple(map(letter_key, w)))
    assert len(key(CyclicWord((1, rank)))) == 2 * width


def run_oracle(rank, max_len):
    return subprocess.run(
        [sys.executable, "-m", "disksurgery.cli", "oracle", "--rank", str(rank),
         "--max-len", str(max_len)],
        capture_output=True, text=True, env=child_env("pure"),
        preexec_fn=partial(limit_cpu_and_memory, 5), timeout=60,
    )


def test_rank8_closure_in_bounds():
    # Expanding every word of the 112-word orbit of x1 x2 under its 131,056
    # generators took 4-6 s of CPU; one word per orbit under the generators
    # of its support takes about 0.2 s with start-up.
    out = run_oracle(8, 2)
    assert out.returncode == 0, out.stderr
    words = out.stdout.splitlines()
    assert len(words) == 128
    assert {len(w.split()) for w in words} == {1, 2}


@pytest.mark.parametrize("rank", range(2, 13))
def test_length_two_closure_size(rank):
    # The 2r classes x_i^+-1 and the 2r(r - 1) classes x_i^+-1 x_j^+-1
    # with i != j.
    assert len(oracle_primitives(rank, 2)) == 2 * rank * rank


@pytest.mark.parametrize("rank", [12, 33])
def test_high_rank_closure_in_bounds(rank):
    # Applying the rank * (4**(rank - 1) - 2) generators of the whole rank
    # took over two minutes of CPU at rank 12, and from rank 33 on failed
    # building them; words of one letter need the 4 generators of rank 2.
    out = run_oracle(rank, 2)
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 2 * rank * rank


def test_largest_rank_exits_5():
    # The 2 * rank seeds alone exceed the cap, which is checked before any
    # is built.
    out = run_oracle(2**31 - 1, 2)
    assert out.returncode == 5, out.stderr
    assert out.stdout == ""
    assert out.stderr == ("error: oracle closure exceeded 1000000 canonical words"
                          " (rank 2147483647, max_len 2)\n")


@pytest.mark.parametrize("rank,max_len", [(2, 7), (3, 3)])
def test_kernel_is_given_the_bound(rank, max_len, monkeypatch):
    # Images longer than max_len come back as None, never rotated.
    want = reference_oracle(rank, max_len)
    bounds, dropped = set(), []
    kernel = primitivity.apply_images_canonical

    def spy(*args):
        bounds.add(args[2:])
        image = kernel(*args)
        dropped.append(image is None)
        return image

    monkeypatch.setattr(primitivity, "apply_images_canonical", spy)
    assert oracle_primitives(rank, max_len) == want
    assert bounds == {(max_len,)}
    assert any(dropped)
