"""The orbit oracle against the full-table closure it replaced.

``oracle_primitives`` applies only the table entries that can move a
cyclic word; ``helpers.reference_oracle`` applies all of them. They must
return the same set on either kernel backend, and the cap must fire at
the same closure size.
"""

import pytest

from disksurgery import (
    WhiteheadAuto,
    apply_auto_cyclic,
    enumerate_whitehead_autos,
    oracle_primitives,
    primitivity,
)
from disksurgery.primitivity import OracleCapExceeded
from helpers import random_word, reference_oracle

PINNED = ([(2, n) for n in range(1, 13)] + [(3, n) for n in range(1, 6)]
          + [(4, n) for n in range(1, 4)])

# Generators applied per word: the first-kind ones and the second-kind
# (A, a) with a positive and 1 < |A| < 2 * rank - 1.
GENERATORS = {2: 7, 3: 47}


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
        if auto.kind != "second":
            continue
        partner = WhiteheadAuto.second(rank, -auto.multiplier, letters - auto.members)
        fixes = len(auto.members) in (1, 2 * rank - 1)
        for cyclic in cyclics:
            image = apply_auto_cyclic(auto, cyclic)
            assert image == apply_auto_cyclic(partner, cyclic), (auto, cyclic)
            if fixes:
                assert image == cyclic, (auto, cyclic)


@pytest.mark.parametrize("rank,max_len", [(2, 6), (3, 4)])
def test_cap_fires_exactly_above_closure_size(rank, max_len):
    size = len(reference_oracle(rank, max_len))
    assert len(oracle_primitives(rank, max_len, node_cap=size)) == size
    with pytest.raises(OracleCapExceeded):
        oracle_primitives(rank, max_len, node_cap=size - 1)


@pytest.mark.parametrize("rank,max_len", [(2, 12), (3, 4)])
def test_work_is_closure_times_generators(rank, max_len, monkeypatch):
    # A return to applying the whole table fails here, not only in timings.
    calls = []
    kernel = primitivity.apply_images_canonical

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(primitivity, "apply_images_canonical", counted)
    closure = oracle_primitives(rank, max_len)
    assert len(calls) == len(closure) * GENERATORS[rank]


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
