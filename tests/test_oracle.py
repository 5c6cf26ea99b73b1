"""The orbit oracle against the full-table closure it replaced.

``oracle_primitives`` closes the length-one classes under the
second-kind generators built from ``(a, A)`` and never expands a word
at the length bound; ``helpers.reference_oracle`` expands every word
from ``x1`` under the whole table. They must return the same set on
either kernel backend, and the cap must fire at the same closure size.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from disksurgery import (
    WhiteheadAuto,
    apply_auto_cyclic,
    oracle_primitives,
    primitivity,
)
from disksurgery.primitivity import OracleCapExceeded, enumerate_whitehead_autos
from helpers import (
    child_env, first_kind_generators, limit_memory, random_word, reference_oracle,
)

PINNED = ([(2, n) for n in range(1, 17)] + [(3, n) for n in range(1, 7)]
          + [(4, n) for n in range(1, 4)])

# Generators applied per word shorter than max_len: the second-kind
# (A, a) with a positive and 1 < |A| < 2 * rank - 1.
GENERATORS = {2: 4, 3: 42}


@pytest.mark.parametrize("rank,max_len", PINNED)
def test_matches_reference(backend, rank, max_len):
    assert oracle_primitives(rank, max_len) == reference_oracle(rank, max_len)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_skipped_entries_act_as_kept_ones(rank, rng):
    """(A, a) and (L - A, a^-1) give the same cyclic word, and the
    entries with |A| = 1 or |A| = 2 * rank - 1 fix every cyclic word."""
    letters = frozenset(range(-rank, rank + 1)) - {0}
    cyclics = [random_word(rng, rank, 14).cyclic() for _ in range(20)]
    for auto in enumerate_whitehead_autos(rank):
        partner = WhiteheadAuto.second(rank, -auto.multiplier, letters - auto.members)
        fixes = len(auto.members) in (1, 2 * rank - 1)
        for cyclic in cyclics:
            image = apply_auto_cyclic(auto, cyclic)
            assert image == apply_auto_cyclic(partner, cyclic), (auto, cyclic)
            if fixes:
                assert image == cyclic, (auto, cyclic)


@pytest.mark.parametrize("rank,max_len", [(2, 6), (3, 4), (3, 1)])
def test_cap_fires_exactly_above_closure_size(rank, max_len):
    size = len(reference_oracle(rank, max_len))
    assert len(oracle_primitives(rank, max_len, node_cap=size)) == size
    with pytest.raises(OracleCapExceeded):
        oracle_primitives(rank, max_len, node_cap=size - 1)


@pytest.mark.parametrize("rank,max_len", [(2, 12), (3, 4), (3, 1)])
def test_work_is_expanded_words_times_generators(rank, max_len, monkeypatch):
    # A return to the whole table, or to expanding words at the bound,
    # fails here, not only in timings.
    calls = []
    kernel = primitivity.apply_images_canonical

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(primitivity, "apply_images_canonical", counted)
    closure = oracle_primitives(rank, max_len)
    expanded = sum(len(cyclic) < max_len for cyclic in closure)
    assert len(calls) == expanded * GENERATORS[rank]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_generator_tables_are_the_kept_entries(rank):
    tables = list(primitivity._second_kind_images(rank))
    assert len(tables) == rank * (4 ** (rank - 1) - 2)
    kept = [auto.images for auto in enumerate_whitehead_autos(rank)
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
        assert all(apply_auto_cyclic(auto, cyclic) in closure for cyclic in closure), auto


BAD_SIZES = [("max_len", value) for value in (1.0, 2.5, True, "3")] + \
    [("node_cap", value) for value in (1.0, 2.5, True, "9")]


@pytest.mark.parametrize("name, value", BAD_SIZES, ids=[
    str(value) if name == "max_len" else f"{name}={value}" for name, value in BAD_SIZES])
def test_max_len_must_be_an_int(name, value, monkeypatch):
    # Checked before any work, so max_len 1.0 cannot pass for 1 by making
    # no kernel call, and a bad cap never reaches a comparison.
    monkeypatch.setattr(primitivity, "apply_images_canonical", None)
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        oracle_primitives(2, **{"max_len": 2, name: value})


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


@pytest.mark.parametrize("node_cap", [0, -3])
def test_nonpositive_cap_rejected(node_cap):
    with pytest.raises(ValueError, match="node_cap must be >= 1"):
        oracle_primitives(2, 4, node_cap=node_cap)


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_nonpositive_cap_env_rejected(raw, monkeypatch):
    monkeypatch.setenv("DISKSURGERY_ORACLE_CAP", raw)
    with pytest.raises(ValueError, match="DISKSURGERY_ORACLE_CAP must be >= 1"):
        oracle_primitives(2, 4)


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
