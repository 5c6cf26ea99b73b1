"""Seeded inputs for the three workloads.

Inputs are pure functions of the seed, built by this module's own code
(no ``disksurgery`` import), so the program only ever sees generated
data. The make-up of each round is fixed; the seed chooses the words,
pairs and call order within it. README.md states the make-up.
"""

from __future__ import annotations

import random

from refs import cyclic_reduce, free_reduce, inverse, random_pair

# descent: (ambient rank, words per round, length range). Each stratum
# cycles through images of x1, x1^2 and [x1, x2]; words 3 and 4 of every
# six (an image of x1 and one of x1^2) have support one smaller than the
# rank. ([x1, x2] is never longer than 4 letters over two generators, so
# it keeps full support.) The 128 rank-3 words of 44-52 letters hold the
# median operation, with the 48 short ones below it. Narrow length
# windows keep each stratum's cost, and so the round's, alike across
# seeds.
DESCENT_STRATA = ((3, 48, (20, 24)), (3, 128, (44, 52)), (4, 24, (36, 44)),
                  (5, 18, (20, 28)), (6, 6, (12, 16)))
DESCENT_KINDS = ("primitive", "square", "commutator")
# Proper powers u^m: (ambient rank, count, |u| range, total length range).
DESCENT_POWERS = ((3, 4, (8, 16), (1000, 1500)),)

# oracle: every round makes these calls, in a seeded order.
ORACLE_CALLS = ((2, 32), (2, 34), (2, 36), (3, 4), (3, 5))

# closure: (rank, chord-count range, pairs per round). Ten rank-2 pairs of
# 100 chords hold the median operation (the cost grows as the square of
# the chord count, so a range here would spread it from seed to seed);
# the larger rank-2 pairs and the rank-3 pairs, where outcomes go through
# the descent, add the tail. A rank-3 pair's descent cost varies with the
# seed, so there are four small ones rather than one large one.
# Each pair runs as text and as --machine; labels are 0 to CLOSURE_LABEL
# letters long. fig1 runs at every genus in FIG1_GENERA, in both modes.
CLOSURE_PAIRS = ((2, (100, 100), 10), (2, (200, 200), 1), (2, (300, 300), 1),
                 (3, (50, 50), 4))
CLOSURE_LABEL = 2
FIG1_GENERA = (3, 4, 5, 6, 7, 8)


def _nielsen_basis(rng, s, steps):
    """Images of x1..x_s under a random product of Nielsen moves
    x_i -> x_i x_j^e or x_i -> x_j^e x_i; the result is again a basis."""
    basis = [(i,) for i in range(1, s + 1)]
    for _ in range(steps):
        i, j = rng.sample(range(s), 2)
        e = basis[j] if rng.random() < 0.5 else inverse(basis[j])
        if rng.random() < 0.5:
            basis[i] = free_reduce(basis[i] + e)
        else:
            basis[i] = free_reduce(e + basis[i])
    return basis


def _relabel(letters, mapping):
    return tuple(mapping[a] if a > 0 else -mapping[-a] for a in letters)


def _image_word(rng, kind, s, lo, hi):
    """A cyclically reduced image of x1, x1^2 or [x1, x2] under a random
    automorphism of F_s, of length in [lo, hi], using all s generators."""
    while True:
        basis = _nielsen_basis(rng, s, rng.randint(2 * s, 6 * s))
        b1, b2 = basis[0], basis[1]
        if kind == "primitive":
            word = cyclic_reduce(b1)
        elif kind == "square":
            word = cyclic_reduce(b1 + b1)
        else:
            word = cyclic_reduce(b1 + b2 + inverse(b1) + inverse(b2))
        if lo <= len(word) <= hi and len({abs(a) for a in word}) == s:
            return word


def descent_inputs(seed):
    """One round's words: dicts of letters, rank, primitive (the truth) and label."""
    rng = random.Random(f"descent:{seed}")
    items = []
    for rank, count, (lo, hi) in DESCENT_STRATA:
        for n in range(count):
            kind = DESCENT_KINDS[n % len(DESCENT_KINDS)]
            support = rank - 1 if n % 6 in (3, 4) else rank
            word = _image_word(rng, kind, support, lo, hi)
            targets = rng.sample(range(1, rank + 1), support)
            mapping = {i + 1: t * rng.choice((1, -1)) for i, t in enumerate(targets)}
            items.append({
                "letters": _relabel(word, mapping), "rank": rank,
                "primitive": kind == "primitive",
                "label": f"r{rank}-{kind}-s{support}",
            })
    for rank, count, (ulo, uhi), (lo, hi) in DESCENT_POWERS:
        for _ in range(count):
            u = _image_word(rng, rng.choice(("primitive", "square")), rank, ulo, uhi)
            m = rng.randint(lo // len(u) + 1, hi // len(u))
            items.append({
                "letters": u * m, "rank": rank, "primitive": False,
                "label": f"r{rank}-power-m{m}",
            })
    rng.shuffle(items)
    return items


def oracle_inputs(seed):
    rng = random.Random(f"oracle:{seed}")
    calls = list(ORACLE_CALLS)
    rng.shuffle(calls)
    return calls


def closure_inputs(seed):
    """Random valid pairs (as plain dicts) in a seeded order."""
    rng = random.Random(f"closure:{seed}")
    pairs = [random_pair(rng, rng.randint(lo, hi), rank, CLOSURE_LABEL)
             for rank, (lo, hi), count in CLOSURE_PAIRS for _ in range(count)]
    rng.shuffle(pairs)
    return pairs
