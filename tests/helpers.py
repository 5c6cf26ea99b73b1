"""Shared test data, the randomized disk-pair generator, and the
reference surgery, Whitehead automorphisms, descent and orbit oracle."""

import os
import random
import resource
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import disksurgery
from disksurgery import (
    CyclicWord, DiskPairSystem, Word, concat, outermost_choices, parse_word, primitivity,
)
from disksurgery.primitivity import PrimitivityVerdict, WhiteheadAuto
from disksurgery.surgery import SurgeryOutcome

# The directory holding the `disksurgery` package under test (`src/` in a
# checkout), so child interpreters import this copy and no other.
SOURCE_ROOT = Path(disksurgery.__file__).resolve().parent.parent

# Boundary word of disk E in the built-in genus-3 pair: two parallel
# copies traversed oppositely, then the band letter. Reduces to x2.
DISK_E_FACTORS = (
    "x1 x2^-1 x1 x2^-1 x1 x2 x1^-1 x2 x2 x1^-1",
    "x1 x2^-1 x2^-1 x1 x2^-1 x1^-1 x2 x1^-1 x2 x1^-1",
    "x2",
)
DISK_E_WORD = " ".join(DISK_E_FACTORS)

# The two classes every fig1 surgery lands on (short and long outcome).
OUTCOME_SHORT = "x1 x2^-1 x1 x2 x1^-1 x2"
OUTCOME_LONG = "x1 x2^-1 x1 x2^-1 x1 x2 x1^-1 x2 x2 x1^-1 x2"


def word(text, rank=3):
    return parse_word(text, rank)


def random_word(rng: random.Random, rank: int, max_len: int, min_len: int = 0) -> Word:
    n = rng.randint(min_len, max_len)
    letters = []
    for _ in range(n):
        index = rng.randint(1, rank)
        letters.append(index if rng.random() < 0.5 else -index)
    return Word(tuple(letters))


def christoffel(p, q):
    """Lower Christoffel word of slope q/p, as letters: p letters x1 and q
    letters x2, the k-th an x2 when floor(kq / (p + q)) steps up.

    For coprime (p, q) it is primitive and its own least rotation; the
    runs of its more frequent letter come in two lengths. Otherwise it is
    the gcd-th power of the coprime word.
    """
    n = p + q
    return tuple(2 if k * q // n > (k - 1) * q // n else 1 for k in range(1, n + 1))


_CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def random_noncrossing_matching(rng: random.Random, k: int):
    """Uniform non-crossing perfect matching on slots 0..2k-1."""

    def rec(lo, hi):
        pairs_here = (hi - lo) // 2
        if pairs_here == 0:
            return []
        weights = [_CATALAN[j] * _CATALAN[pairs_here - 1 - j] for j in range(pairs_here)]
        pick = rng.randrange(sum(weights))
        j = 0
        while pick >= weights[j]:
            pick -= weights[j]
            j += 1
        mate = lo + 2 * j + 1
        return [(lo, mate)] + rec(lo + 1, mate) + rec(mate + 1, hi)

    return rec(0, 2 * k)


def random_system(rng: random.Random, min_chords: int = 1, max_chords: int = 6) -> DiskPairSystem:
    """Random valid system: independent non-crossing arrangements on the
    two circles, a random chord bijection between them, random labels of
    length <= 4 per segment."""
    k = rng.randint(min_chords, max_chords)
    rank = rng.choice([2, 3])
    matching_d = random_noncrossing_matching(rng, k)
    matching_e = random_noncrossing_matching(rng, k)
    rng.shuffle(matching_e)

    order_d = [None] * (2 * k)
    order_e = [None] * (2 * k)
    chords = []
    for i, (d_pair, e_pair) in enumerate(zip(matching_d, matching_e)):
        first, second = f"q{2 * i + 1}", f"q{2 * i + 2}"
        order_d[d_pair[0]] = first
        order_d[d_pair[1]] = second
        if rng.random() < 0.5:
            e_pair = (e_pair[1], e_pair[0])
        order_e[e_pair[0]] = first
        order_e[e_pair[1]] = second
        chords.append((first, second))

    def labels(count):
        return tuple(random_word(rng, rank, 4) for _ in range(count))

    return DiskPairSystem(
        rank=rank,
        points=tuple(order_d),
        order_d=tuple(order_d),
        order_e=tuple(order_e),
        chords=tuple(chords),
        labels_d=labels(2 * k),
        labels_e=labels(2 * k),
    )


def disjoint_system(label_d="x1", label_e="x2", rank=2) -> DiskPairSystem:
    return DiskPairSystem(
        rank=rank, points=(), order_d=(), order_e=(), chords=(),
        labels_d=(parse_word(label_d, rank),), labels_e=(parse_word(label_e, rank),),
    )


def single_chord_system(labels_d, labels_e, rank=2) -> DiskPairSystem:
    return DiskPairSystem(
        rank=rank, points=("a", "b"), order_d=("a", "b"), order_e=("a", "b"),
        chords=(("a", "b"),),
        labels_d=tuple(parse_word(t, rank) for t in labels_d),
        labels_e=tuple(parse_word(t, rank) for t in labels_e),
    )


# Address-space limit for child interpreters that must not build a
# Whitehead table at a high rank.
MEMORY_LIMIT = 512 * 2**20


def limit_memory(limit=MEMORY_LIMIT):
    """``preexec_fn`` for a child held to ``limit`` bytes, ``MEMORY_LIMIT``
    by default; ``functools.partial`` gives it another limit."""
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def limit_cpu_and_memory(cpu_seconds=10):
    """``preexec_fn`` for a child held to ``MEMORY_LIMIT`` and to
    ``cpu_seconds`` of CPU time; ``functools.partial`` gives it another
    time."""
    limit_memory()
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds + 1))


def child_env(kernel):
    """Environment for a child interpreter that forces `kernel`.

    Keeps the parent's environment and puts SOURCE_ROOT first on
    PYTHONPATH, so the suite runs the same from a plain checkout
    (``PYTHONPATH=src``) as from an installed package.
    """
    env = dict(os.environ)
    env["DISKSURGERY_KERNEL"] = kernel
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE_ROOT), inherited]))
    return env


def reference_surger(system, choice):
    """Both outcomes of one outermost choice, built by joining the target's
    labels rotated to start at the choice's start point, then the cap label.

    ``surgery.surger`` and ``surgery.all_surgeries`` must give the same
    outcomes.
    """
    along, target = choice.along, choice.target
    cap_word = system.labels_of(along)[system.order_of(along).index(choice.start)]
    order_t = system.order_of(target)
    labels_t = system.labels_of(target)
    n = len(order_t)
    i = order_t.index(choice.start)
    span = (order_t.index(choice.end) - i) % n
    rotated = labels_t[i:] + labels_t[:i]
    return (
        SurgeryOutcome(choice=choice, piece="C1",
                       boundary_word=concat(*rotated[:span], cap_word.inverse()),
                       inherited_chords=(span - 1) // 2),
        SurgeryOutcome(choice=choice, piece="C2",
                       boundary_word=concat(*rotated[span:], cap_word),
                       inherited_chords=(n - span - 1) // 2),
    )


def reference_surgeries(system):
    """Every outcome in ``all_surgeries`` order, by ``reference_surger``."""
    return tuple(outcome for along in ("E", "D")
                 for choice in outermost_choices(system, along)
                 for outcome in reference_surger(system, choice))


def reference_crossing_pairs(order, chords):
    """Every pair of crossing chords of a perfect matching of ``order``'s
    points, by comparing the positions of each pair of chords. O(k²).

    Each pair is ``(chords[i], chords[j])`` with ``i < j``; the pair that
    ``surgery._first_crossing`` names must be among them.
    """
    position = {p: i for i, p in enumerate(order)}
    placed = [tuple(sorted((position[p], position[q]))) for p, q in chords]
    crossing = []
    for i in range(len(placed)):
        for j in range(i + 1, len(placed)):
            a, b = placed[i]
            c, d = placed[j]
            if (a < c < b) != (a < d < b):
                crossing.append((chords[i], chords[j]))
    return crossing


def first_kind_auto(rank, perm, signs):
    """The first-kind Whitehead automorphism ``x_i -> x_{perm[i-1]} ** signs[i-1]``,
    a signed permutation of the generators. The package builds only the
    second kind; this carries its ``rank`` and its image table as
    ``images``, which :func:`image_table` returns, so ``apply_auto`` and
    the kernels take it as they take a second-kind entry."""
    images = []
    for i in range(rank):
        target = perm[i] * signs[i]
        images += [(target,), (-target,)]
    return SimpleNamespace(rank=rank, perm=tuple(perm), signs=tuple(signs), images=tuple(images))


def first_kind_generators(rank):
    """The adjacent transpositions, then the single-generator sign flips,
    which generate the signed permutations."""
    identity = list(range(1, rank + 1))
    generators = []
    for i in range(1, rank):
        perm = identity[:]
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        generators.append(first_kind_auto(rank, perm, [1] * rank))
    for i in range(rank):
        signs = [1] * rank
        signs[i] = -1
        generators.append(first_kind_auto(rank, identity, signs))
    return generators


@lru_cache(maxsize=None)
def _second_kind_table(auto):
    return primitivity._second_images(auto.rank, auto.multiplier, auto.members)


def image_table(auto):
    """The image table of ``auto`` over all ``2 * rank`` letter slots, in
    ``letter_key`` order. A first-kind stand-in carries its own; a
    second-kind entry's is built here, once, from its ``(a, A)``, as the
    package builds tables only where it applies them."""
    return _second_kind_table(auto) if isinstance(auto, WhiteheadAuto) else auto.images


def apply_auto(auto, word):
    """``auto`` applied to ``word`` letter by letter, freely reduced, as a
    checked ``Word``. The kernel is looked up in ``primitivity`` at call
    time, as in the references below."""
    return Word(primitivity.apply_images(word.letters, image_table(auto)))


def inverse_auto(auto):
    """The inverse of the second-kind ``(A, a)``, which is ``(A - {a} + {a^-1}, a^-1)``."""
    a = auto.multiplier
    return WhiteheadAuto(auto.rank, -a, (auto.members - {a}) | {-a})


def reference_minimize(word, rank):
    """The first-improvement descent by rewriting: each step applies the
    table's entries in order until one shortens the cyclic word.

    ``primitivity.whitehead_minimize`` must choose the same automorphisms.
    The kernels are looked up in ``primitivity`` at call time, so a test
    that swaps the backend there swaps it here too.
    """
    current = word if isinstance(word, CyclicWord) else CyclicWord(word.letters)
    autos = primitivity.enumerate_whitehead_autos(rank)
    certificate = []
    while len(current) > 1:
        n = len(current)
        for auto in autos:
            image = primitivity.cyclic_reduce(
                primitivity.apply_images(current.letters, image_table(auto)))
            if len(image) < n:
                certificate.append(auto)
                current = CyclicWord(image)
                break
        else:
            break
    return PrimitivityVerdict(
        primitive=len(current) == 1, certificate=tuple(certificate), minimal=current)


def reference_first_reducing_set(adj, degree, a, stop=None):
    """First letter set, in table mask order, that shortens the word with
    multiplier vertex ``a``, among the masks below ``stop`` (all masks by
    default), by walking the masks with their bit arithmetic.

    Returns the member vertices other than ``a`` and ``cap(A) - deg(a)``,
    or ``None``. Bit ``k`` of a mask stands for the ``k``-th vertex other
    than ``a`` and ``a^-1``; the edges inside ``A`` come from three
    smaller masks by inclusion-exclusion over the two lowest bits.
    ``primitivity._first_reducing_set`` must give the same answer below
    ``2**_SCAN_BITS``, and ``_smallest_reducing_set`` the same answer over
    all masks. Rows may be lists or dicts that read 0 for a missing vertex.
    """
    others = [v for v in range(len(adj)) if v >> 1 != a >> 1]
    masks = 1 << len(others)
    inside = [0]  # edges with both ends in A = {a} + members of the mask
    weight = [0]  # sum of the members' degrees, a excluded
    for mask in range(1, masks if stop is None else min(stop, masks)):
        low = mask & -mask
        rest = mask ^ low
        v = others[low.bit_length() - 1]
        if rest:
            second = rest & -rest
            u = others[second.bit_length() - 1]
            edges = inside[rest] + inside[mask ^ second] - inside[rest ^ second] + adj[u][v]
        else:
            edges = adj[a][v]
        total = weight[rest] + degree[v]
        inside.append(edges)
        weight.append(total)
        if total < 2 * edges:
            return [v for k, v in enumerate(others) if mask >> k & 1], total - 2 * edges
    return None


def reference_oracle(rank, max_len):
    """The orbit closure of ``x1`` under every entry of the second-kind
    table and the first-kind generators, words longer than ``max_len``
    discarded, each image made a ``CyclicWord``.

    ``primitivity.oracle_primitives`` must return the same set. The
    kernel is looked up in ``primitivity`` at call time, as above.
    """
    autos = [*primitivity.enumerate_whitehead_autos(rank), *first_kind_generators(rank)]
    start = CyclicWord((1,))
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for cyclic in frontier:
            for auto in autos:
                image = CyclicWord(
                    primitivity.apply_images_canonical(cyclic.letters, image_table(auto)))
                if len(image) <= max_len and image not in seen:
                    seen.add(image)
                    next_frontier.append(image)
        frontier = next_frontier
    return frozenset(seen)
