"""Reference computations owned by the benchmark.

Nothing here imports ``disksurgery``: every answer the benchmark checks is
recomputed by this module from the mathematics, never compared with a
stored copy of the program's output. Letters follow the program's
convention (``+i`` is ``x_i``, ``-i`` its inverse; order x1 < x1^-1 < x2 <
...), so results can be compared directly.

``self_test()`` checks each reference against brute force at tiny sizes;
the benchmark runs it before it trusts any of them.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

# ---------------------------------------------------------------- words


def key(letter):
    return 2 * (abs(letter) - 1) + (1 if letter < 0 else 0)


def free_reduce(letters):
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def cyclic_reduce(letters):
    w = free_reduce(letters)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def inverse(letters):
    return tuple(-a for a in reversed(letters))


def least_rotation(letters):
    """Booth's O(n) least rotation under the letter order."""
    w = tuple(letters)
    n = len(w)
    if n <= 1:
        return w
    s = [key(a) for a in w] * 2
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:  # here i == -1
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return w[k:] + w[:k]


def canonical(letters):
    """Canonical cyclic form: cyclically reduced, least rotation."""
    return least_rotation(cyclic_reduce(letters))


def unoriented(letters):
    forward = canonical(letters)
    backward = canonical(inverse(forward))
    return min(forward, backward, key=lambda w: [key(a) for a in w])


def format_word(letters):
    if not letters:
        return "1"
    return " ".join(f"x{a}" if a > 0 else f"x{-a}^-1" for a in letters)


def parse_word(text):
    if text.strip() == "1":
        return ()
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append(-int(tok[1:-3]))
        else:
            out.append(int(tok[1:]))
    return tuple(out)


def abelianize(letters, rank):
    sums = [0] * rank
    for a in letters:
        sums[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(sums)


# ------------------------------------------------- rank-2 primitivity


def christoffel(p, q):
    """Lower Christoffel word with p letters x1 and q letters x2."""
    n = p + q
    return tuple(2 if (i * q) // n > ((i - 1) * q) // n else 1 for i in range(1, n + 1))


def rank2_primitive(letters):
    """Cyclic word over x1, x2 is primitive iff each generator has one sign,
    the exponent sums are coprime, and the sign-flipped word is a rotation
    of the Christoffel word of those sums."""
    w = cyclic_reduce(letters)
    if not w:
        return False
    seen = set(w)
    if (1 in seen and -1 in seen) or (2 in seen and -2 in seen):
        return False
    p = sum(1 for a in w if abs(a) == 1)
    q = len(w) - p
    if gcd(p, q) != 1:
        return False
    return least_rotation(tuple(abs(a) for a in w)) == least_rotation(christoffel(p, q))


# ------------------------------------------------ Whitehead automorphisms


def letter_table(generator_images):
    """Images of every letter, from the images of x1, x2, ..."""
    table = {}
    for i, img in enumerate(generator_images, start=1):
        table[i] = tuple(img)
        table[-i] = inverse(img)
    return table


def second_kind_images(rank, a, members):
    """Letter images under the second-kind automorphism (a, A)."""
    images = []
    for i in range(1, rank + 1):
        if i == abs(a):
            images.append((i,))
            continue
        pos, neg = i in members, -i in members
        img = (i,)
        if neg:
            img = (-a,) + img
        if pos:
            img = img + (a,)
        images.append(img)
    return letter_table(images)


def first_kind_images(rank, perm, signs):
    return letter_table([(perm[i] * signs[i],) for i in range(rank)])


def substitute(letters, images):
    """Apply letter images (from ``letter_table``), then freely reduce."""
    out = []
    for a in letters:
        for b in images[a]:
            if out and out[-1] == -b:
                out.pop()
            else:
                out.append(b)
    return tuple(out)


def second_kind_descriptions(rank):
    """Every second-kind (a, A), a in A and a^-1 not in A, as plain fields."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for a in letters:
        others = [x for x in letters if abs(x) != abs(a)]
        for chosen in itertools.product((False, True), repeat=len(others)):
            members = [a] + [x for x, c in zip(others, chosen) if c]
            yield {"kind": "second", "rank": rank, "multiplier": a, "members": members}


def second_kind_autos(rank):
    """Letter images of every second-kind automorphism."""
    return [images_from_description(d) for d in second_kind_descriptions(rank)]


def images_from_description(desc):
    """Generator images of an automorphism described by plain fields."""
    rank = desc["rank"]
    if desc["kind"] == "second":
        return second_kind_images(rank, desc["multiplier"], set(desc["members"]))
    return first_kind_images(rank, desc["perm"], desc["signs"])


def whitehead_minimal(letters, autos):
    """True when no automorphism in ``autos`` (all of the second kind, from
    ``second_kind_autos``) shortens the cyclic word."""
    w = cyclic_reduce(letters)
    n = len(w)
    for images in autos:
        if len(cyclic_reduce(substitute(w, images))) < n:
            return False
    return True


def replay(letters, descriptions, minimal):
    """Replay a certificate by this module's own substitution.

    Returns an error string, or None when every step shortens the cyclic
    word strictly and the trail ends at ``minimal``'s class.
    """
    current = canonical(letters)
    for step, desc in enumerate(descriptions, start=1):
        image = canonical(substitute(current, images_from_description(desc)))
        if len(image) >= len(current):
            return f"step {step} does not shorten ({len(current)} -> {len(image)})"
        current = image
    if current != canonical(minimal):
        return "trail does not end at the reported minimum"
    return None


def descend(letters, autos):
    """Greedy descent with own automorphisms; the orbit-minimal length."""
    current = cyclic_reduce(letters)
    improved = True
    while improved and len(current) > 1:
        improved = False
        for images in autos:
            image = cyclic_reduce(substitute(current, images))
            if len(image) < len(current):
                current = image
                improved = True
                break
    return current


def cyclic_classes(rank, max_len):
    """Every nonempty canonical cyclic word up to ``max_len``."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out = set()
    layer = [()]
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in alphabet if not w or w[-1] != -a]
        for w in layer:
            c = canonical(w)
            if c:
                out.add(c)
    return out


def signed_permutations(rank):
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            yield first_kind_images(rank, perm, signs)


# ----------------------------------------------------------- surgery


def surgery_rows(system):
    """Outcome rows from the surgery model, recomputed.

    ``system`` holds ``order_d``, ``order_e``, ``chords`` (pairs) and
    ``labels_d``/``labels_e`` as letter tuples. For target T cut along the
    other disk X: a chord whose endpoints are consecutive on X's circle
    (from ``start`` to ``end``) caps with X's segment from ``start``. The
    chord splits T's circle into the path from ``start`` to ``end`` (piece
    C1, closed by the inverted cap) and the path from ``end`` to ``start``
    (piece C2, closed by the cap). Rows come in report order: on D along E
    first, then on E along D, choices along X's order, C1 before C2.
    """
    chords = {tuple(sorted(c)) for c in system["chords"]}
    rows = []
    for target, along in (("D", "E"), ("E", "D")):
        order_x = system["order_" + along.lower()]
        labels_x = system["labels_" + along.lower()]
        order_t = system["order_" + target.lower()]
        labels_t = system["labels_" + target.lower()]
        n = len(order_t)
        pos_t = {p: i for i, p in enumerate(order_t)}
        for i, start in enumerate(order_x):
            end = order_x[(i + 1) % len(order_x)]
            chord = tuple(sorted((start, end)))
            if chord not in chords:
                continue
            cap = labels_x[i]
            s, e = pos_t[start], pos_t[end]
            pieces = (
                ("C1", s, e, inverse(cap)),
                ("C2", e, s, cap),
            )
            for piece, lo, hi, closing in pieces:
                span = (hi - lo) % n
                path = [(lo + step) % n for step in range(span)]
                word = tuple(a for j in path for a in labels_t[j]) + tuple(closing)
                inside = {order_t[(lo + step) % n] for step in range(1, span)}
                left = sum(1 for c in chords
                           if c != chord and c[0] in inside and c[1] in inside)
                rows.append({
                    "direction": f"on {target} along {along}",
                    "chord": list(chord),
                    "cap_from": start,
                    "piece": piece,
                    "word": word,
                    "inherited_chords": left,
                })
    return rows


def crossing(order, chords):
    """Brute-force test: do any two chords cross in this cyclic order?"""
    pos = {p: i for i, p in enumerate(order)}
    spans = [tuple(sorted((pos[p], pos[q]))) for p, q in chords]
    for (a, b), (c, d) in itertools.combinations(spans, 2):
        if (a < c < b) != (a < d < b):
            return True
    return False


# --------------------------------------------------------- self-test


def _orbit_within(start, bound, autos):
    """Brute force: every class reachable from ``start`` by Whitehead moves
    of the second kind without exceeding ``bound`` letters. First-kind
    moves keep length and commute past second-kind ones, so the full orbit
    is this set closed under signed permutations."""
    seen = {canonical(start)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for images in autos:
                c = canonical(substitute(w, images))
                if len(c) <= bound and c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def self_test():
    """Check each reference against brute force at tiny sizes; raise on error."""
    if not __debug__:
        raise RuntimeError("the self-test uses assert; run without -O")
    rng = random.Random(20181)
    alphabet3 = [1, -1, 2, -2, 3, -3]

    for _ in range(300):
        w = tuple(rng.choice([1, -1, 2]) for _ in range(rng.randint(0, 12)))
        rotations = [w[i:] + w[:i] for i in range(len(w))] or [()]
        assert least_rotation(w) == min(rotations, key=lambda r: [key(a) for a in r]), w

    for _ in range(300):
        w = [rng.choice(alphabet3) for _ in range(rng.randint(0, 10))]
        slow = list(w)
        changed = True
        while changed:
            changed = False
            for i in range(len(slow) - 1):
                if slow[i] == -slow[i + 1]:
                    del slow[i:i + 2]
                    changed = True
                    break
        assert free_reduce(w) == tuple(slow), w

    autos2 = second_kind_autos(2)
    autos3 = second_kind_autos(3)
    assert len(autos3) == 6 * 16
    for desc in second_kind_descriptions(3):
        a, members = desc["multiplier"], set(desc["members"])
        back = second_kind_images(3, -a, (members - {a}) | {-a})
        for i in range(1, 4):
            assert substitute(substitute((i,), images_from_description(desc)), back) == (i,)

    # Rank-2 criterion against the brute-force orbit of x1 (length <= 9).
    orbit = {canonical(substitute(w, p)) for w in _orbit_within((1,), 9, autos2)
             for p in signed_permutations(2)}
    for c in cyclic_classes(2, 9):
        assert rank2_primitive(c) == (c in orbit), c

    # Minimality check against brute-force orbit minima (rank 2 up to
    # length 6, rank 3 up to length 3).
    for rank, autos, bound in ((2, autos2, 6), (3, autos3, 3)):
        for c in cyclic_classes(rank, bound):
            minimum = min(len(w) for w in _orbit_within(c, len(c), autos))
            assert whitehead_minimal(c, autos) == (minimum == len(c)), c

    # Certificate replay: a forward chain replays; a padded one is refused.
    w = (1, 2, 1, -3, 2)
    chain, cur = [], canonical(w)
    for desc in second_kind_descriptions(3):
        image = canonical(substitute(cur, images_from_description(desc)))
        if len(image) < len(cur):
            chain.append(desc)
            cur = image
    assert replay(w, chain, cur) is None
    identity = {"kind": "first", "rank": 3, "perm": [1, 2, 3], "signs": [1, 1, 1]}
    assert replay(w, chain + [identity], cur) is not None

    # Surgery rule: a hand-worked single-chord pair, then invariants.
    rows = surgery_rows({
        "order_d": ["a", "b"], "order_e": ["a", "b"], "chords": [("a", "b")],
        "labels_d": [(1,), (2,)], "labels_e": [(-1, 2), (3,)],
    })
    assert [r["word"] for r in rows] == [
        (1, -2, 1), (2, -1, 2), (2, -3), (1, 3),
        (-1, 2, -1), (3, 1), (3, -2), (-1, 2, 2),
    ]
    assert [r["inherited_chords"] for r in rows] == [0] * 8
    for _ in range(40):
        system = random_pair(rng, rng.randint(1, 5), 3, 3)
        assert not crossing(system["order_d"], system["chords"])
        assert not crossing(system["order_e"], system["chords"])
        k = len(system["chords"])
        rows = surgery_rows(system)
        for first, second in zip(rows[::2], rows[1::2]):
            target = first["direction"][3]
            whole = tuple(a for lab in system["labels_" + target.lower()] for a in lab)
            assert first["inherited_chords"] + second["inherited_chords"] == k - 1
            total = [x + y for x, y in zip(abelianize(first["word"], 3),
                                            abelianize(second["word"], 3))]
            assert tuple(total) == abelianize(whole, 3)


# ------------------------------------------------------ random pairs


def random_noncrossing(rng, k):
    """Random non-crossing perfect matching of slots 0..2k-1 (iterative)."""
    pairs = []
    stack = [(0, 2 * k)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        mate = lo + 1 + 2 * rng.randrange((hi - lo) // 2)
        pairs.append((lo, mate))
        stack.append((lo + 1, mate))
        stack.append((mate + 1, hi))
    return pairs


def random_pair(rng, k, rank, max_label):
    """A valid disk pair: independent non-crossing arrangements of k chords
    on the two circles, joined by a random bijection; short random labels."""
    matching_d = random_noncrossing(rng, k)
    matching_e = random_noncrossing(rng, k)
    rng.shuffle(matching_e)
    order_d = [None] * (2 * k)
    order_e = [None] * (2 * k)
    chords = []
    for i, (dp, ep) in enumerate(zip(matching_d, matching_e)):
        p, q = f"q{2 * i + 1}", f"q{2 * i + 2}"
        order_d[dp[0]], order_d[dp[1]] = p, q
        if rng.random() < 0.5:
            ep = (ep[1], ep[0])
        order_e[ep[0]], order_e[ep[1]] = p, q
        chords.append((p, q))
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]

    def label():
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_label)))

    return {
        "rank": rank, "order_d": order_d, "order_e": order_e, "chords": chords,
        "labels_d": [label() for _ in range(2 * k)],
        "labels_e": [label() for _ in range(2 * k)],
    }
