"""Primitivity testing in free groups via Whitehead length descent.

An element of a free group is primitive when it belongs to some free
basis, i.e. when its conjugacy class lies in the automorphism orbit of a
single generator. By Whitehead's peak reduction theorem, a cyclic word
that is not of minimal length in its orbit admits a length-reducing
Whitehead automorphism, so greedy descent over the (finite) set of
Whitehead automorphisms terminates at the orbit minimum; the input is
primitive exactly when that minimum has cyclic length one.

Each descent step is read off the word's Whitehead graph (Whitehead
1936; Gersten, *On Whitehead's algorithm*, 1984): one vertex per support
letter and one edge between ``w[i]`` and ``w[i+1]^-1`` per cyclic
position. The second-kind automorphism ``(A, a)`` takes a cyclic word of
length ``n`` to one of length ``n + cap(A) - deg(a)``, where ``cap(A)``
counts the edges leaving ``A``; first-kind automorphisms keep the length.
Multipliers are tried in table order, and one is skipped when a max flow
from ``a`` to ``a^-1`` reaches ``deg(a)``, as then no ``A`` reduces. For
the first one left, the letter sets are scanned in table order up to the
first with ``cap(A) < deg(a)``. That is the first table entry that
shortens the word, so certificates are those of trying every entry in
turn, but the step is built from its ``(a, A)`` alone.

Two independent routes are provided and cross-checked by the test suite:

* :func:`is_primitive` — the descent, plus a rank-2 fast path
  (:func:`oz_rank2_nonprimitive`): a cyclically reduced word over
  ``x1, x2`` containing some generator with both signs is never
  primitive.
* :func:`oracle_primitives` — breadth-first closure of the ``2*rank``
  length-one classes, restricted to a length bound, under the
  second-kind ``(A, a)`` with ``a`` positive and ``1 < |A| < 2*rank - 1``
  (4 generators at rank 2, 42 at rank 3), built from ``(a, A)`` without
  the table. Words at the bound are kept but never expanded. Whitehead's
  theorem makes the closure complete within the bound: every primitive
  word longer than one letter is shortened by a second-kind generator
  whose inverse acts on cyclic words as a kept one, so membership is
  ground truth for short words. The full argument, and why first-kind
  generators are not needed, is in the function's docstring.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice, product

from ._kernels import (apply_images, apply_images_canonical, cyclic_reduce, least_rotation,
                       letter_key)
from .words import CyclicWord, Word, check_rank, format_letter

__all__ = [
    "WhiteheadAuto",
    "OracleCapExceeded",
    "enumerate_whitehead_autos",
    "apply_auto",
    "apply_auto_cyclic",
    "whitehead_minimize",
    "is_primitive",
    "oz_rank2_nonprimitive",
    "oracle_primitives",
    "replay_certificate",
]

DEFAULT_ORACLE_CAP = 10**6
_ORACLE_CAP_ENV = "DISKSURGERY_ORACLE_CAP"


class OracleCapExceeded(RuntimeError):
    """The oracle's breadth-first closure hit its node cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


def _letters_in_order(rank: int) -> list[int]:
    out = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return out


def _check_ints(name, values):
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{name} entries must be ints, got {x!r}")


def _image_pair(x, a, state):
    """Images of a generator ``x`` and of ``x^-1`` under the second-kind
    ``(A, a)``; ``state`` is 0, 1, 2 or 3 as neither, only ``x``, only
    ``x^-1`` or both lie in ``A``. ``x = a^{+-1}`` takes state 0."""
    if state == 0:
        return (x,), (-x,)
    if state == 1:
        return (x, a), (-a, -x)
    if state == 2:
        return (-a, x), (-x, a)
    return (-a, x, a), (-a, -x, a)


class WhiteheadAuto:
    """A Whitehead generator of Aut(F_rank).

    First kind: a signed permutation of the generators,
    ``x_i -> x_{perm[i-1]} ** signs[i-1]``.

    Second kind: a multiplier letter ``a`` and a letter set ``members``
    with ``a`` in the set and ``a^-1`` outside it. A letter ``x`` (other
    than ``a``, ``a^-1``) maps to ``x a`` if only ``x`` is a member, to
    ``a^-1 x`` if only ``x^-1`` is, to ``a^-1 x a`` if both are, and is
    fixed if neither is; ``a`` is fixed.

    ``images`` is the image table both kernel backends read: one tuple of
    letters per letter slot, the image of ``x`` at ``letter_key(x)``.
    """

    __slots__ = ("kind", "rank", "multiplier", "members", "perm", "signs", "images")

    def __init__(self, kind, rank, multiplier=None, members=None, perm=None, signs=None):
        check_rank(rank)
        self.kind = kind
        self.rank = rank
        self.multiplier = multiplier
        self.members = members
        self.perm = perm
        self.signs = signs
        # The kernels read `images`: a float or a bool would pass the checks below.
        if kind == "second":
            if not isinstance(members, frozenset):
                raise ValueError("second kind needs a frozenset of letters")
            _check_ints("multiplier", (multiplier,))
            _check_ints("members", members)
            if multiplier not in members or -multiplier in members:
                raise ValueError("need multiplier in members and its inverse outside")
            for a in members:
                if abs(a) > rank or a == 0:
                    raise ValueError(f"letter {a} out of range for rank {rank}")
            self.images = self._second_images()
        elif kind == "first":
            _check_ints("perm", perm)
            _check_ints("signs", signs)
            if sorted(perm) != list(range(1, rank + 1)):
                raise ValueError("perm must be a bijection of 1..rank")
            if len(signs) != rank or any(s not in (1, -1) for s in signs):
                raise ValueError("signs must be +1/-1 per generator")
            self.images = self._first_images()
        else:
            raise ValueError(f"unknown kind {kind!r}")

    def _second_images(self):
        a, members = self.multiplier, self.members
        images = []
        for x in range(1, self.rank + 1):
            state = 0 if x == abs(a) else (x in members) + 2 * (-x in members)
            images += _image_pair(x, a, state)
        return tuple(images)

    def _first_images(self):
        images = []
        for x in _letters_in_order(self.rank):
            i = abs(x) - 1
            target = self.perm[i] * self.signs[i]
            images.append((target,) if x > 0 else (-target,))
        return tuple(images)

    @classmethod
    def second(cls, rank, multiplier, members):
        return cls("second", rank, multiplier=multiplier, members=frozenset(members))

    @classmethod
    def first(cls, rank, perm, signs):
        return cls("first", rank, perm=tuple(perm), signs=tuple(signs))

    def _ident(self):
        return (self.kind, self.rank, self.multiplier, self.members, self.perm, self.signs)

    def __eq__(self, other):
        return isinstance(other, WhiteheadAuto) and self._ident() == other._ident()

    def __hash__(self):
        return hash(self._ident())

    def inverse(self) -> "WhiteheadAuto":
        """The inverse automorphism; for the second kind it is again enumerated."""
        if self.kind == "second":
            a = self.multiplier
            return WhiteheadAuto.second(
                self.rank, -a, (self.members - {a}) | {-a}
            )
        inv_perm = [0] * self.rank
        inv_signs = [1] * self.rank
        for i in range(self.rank):
            j = self.perm[i] - 1
            inv_perm[j] = i + 1
            inv_signs[j] = self.signs[i]
        return WhiteheadAuto.first(self.rank, inv_perm, inv_signs)

    def describe(self) -> str:
        if self.kind == "second":
            shown = sorted(self.members, key=letter_key)
            inner = ", ".join(format_letter(a) for a in shown)
            return f"second(a={format_letter(self.multiplier)}, A={{{inner}}})"
        moves = ", ".join(
            f"x{i + 1}->{format_letter(self.perm[i] * self.signs[i])}"
            for i in range(self.rank)
        )
        return f"first({moves})"

    def __repr__(self):
        return f"WhiteheadAuto[{self.describe()}]"


@lru_cache(maxsize=None)
def _second_auto(rank, multiplier, members):
    """The second-kind ``(members, multiplier)``, built once per argument
    triple, so that a descent step is the very table entry for its
    ``(a, A)`` whichever is built first."""
    return WhiteheadAuto.second(rank, multiplier, members)


@lru_cache(maxsize=None)
def enumerate_whitehead_autos(rank: int) -> tuple[WhiteheadAuto, ...]:
    """Deterministic enumeration of Whitehead automorphisms.

    All ``2*rank * 2**(2*rank - 2)`` second-kind automorphisms (every
    valid multiplier/letter-set pair, including the identity-like ones
    with a singleton set) followed by a first-kind generating set:
    adjacent transpositions and single-generator sign flips.
    """
    check_rank(rank)
    autos = []
    letters = _letters_in_order(rank)
    for a in letters:
        others = [x for x in letters if abs(x) != abs(a)]
        # Bit j of a mask stands for others[j]; each set adds its lowest bit's letter.
        sets = [frozenset([a])]
        for mask in range(1, 1 << len(others)):
            low = mask & -mask
            sets.append(sets[mask ^ low] | {others[low.bit_length() - 1]})
        autos += (_second_auto(rank, a, members) for members in sets)
    identity_perm = tuple(range(1, rank + 1))
    plus = (1,) * rank
    for i in range(1, rank):
        perm = list(identity_perm)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        autos.append(WhiteheadAuto.first(rank, perm, plus))
    for i in range(1, rank + 1):
        signs = [1] * rank
        signs[i - 1] = -1
        autos.append(WhiteheadAuto.first(rank, identity_perm, signs))
    return tuple(autos)


def _check_support(letters, rank: int):
    if letters and (max(letters) > rank or min(letters) < -rank):
        for a in letters:
            if abs(a) > rank:
                raise ValueError(f"generator index {abs(a)} exceeds rank {rank}")


def apply_auto(auto: WhiteheadAuto, word: Word) -> Word:
    """Apply the automorphism letterwise and freely reduce."""
    _check_support(word.letters, auto.rank)
    return Word(apply_images(word.letters, auto.images))


def apply_auto_cyclic(auto: WhiteheadAuto, cyclic: CyclicWord) -> CyclicWord:
    """Induced action on conjugacy classes (canonical cyclic output)."""
    _check_support(cyclic.letters, auto.rank)
    return CyclicWord(apply_images_canonical(cyclic.letters, auto.images))


@dataclass(frozen=True, slots=True)
class PrimitivityVerdict:
    """Outcome of a primitivity test.

    ``certificate`` replays from the input's cyclic reduction to
    ``minimal`` with strictly decreasing cyclic length at every step; it
    is empty when the fast path fired (``minimal`` is then just the
    cyclic reduction, not necessarily the orbit minimum). So an empty
    certificate means ``minimal`` is the input's own canonical cyclic
    form, which closure reports rely on.
    """

    primitive: bool
    certificate: tuple[WhiteheadAuto, ...]
    minimal: CyclicWord
    oz_fired: bool = False


def _whitehead_graph(letters):
    """Whitehead graph of a cyclically reduced word of length at least 2.

    Vertices are the word's support letters in table order (``x_i``,
    ``x_i^-1`` for each generator index ``i`` the word uses, ascending),
    so the inverse of vertex ``v`` is ``v ^ 1``. Each cyclic position
    ``i`` adds one edge between ``w[i]`` and ``w[i+1]^-1``; there are no
    loops, as the word is cyclically reduced. Returns the vertex letters
    and the symmetric edge-count matrix.
    """
    vertices = []
    for g in sorted({abs(a) for a in letters}):
        vertices += (g, -g)
    index = {a: v for v, a in enumerate(vertices)}
    adj = [[0] * len(vertices) for _ in vertices]
    prev = index[letters[-1]]
    for a in letters:
        u = index[-a]
        adj[prev][u] += 1
        adj[u][prev] += 1
        prev = index[a]
    return vertices, adj


def _flow_reaches(adj, source, sink, limit):
    """Whether a maximum ``source``-``sink`` flow in ``adj`` reaches ``limit``.

    Augmenting paths found breadth-first, stopping once ``limit`` units
    flow; each edge carries its count in either direction.
    """
    size = len(adj)
    residual = [row[:] for row in adj]
    flow = 0
    while flow < limit:
        parent = [-1] * size
        parent[source] = source
        queue = [source]
        for u in queue:
            row = residual[u]
            for v in range(size):
                if row[v] and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
            if parent[sink] >= 0:
                break
        if parent[sink] < 0:
            return False
        push, v = limit - flow, sink
        while v != source:
            push = min(push, residual[parent[v]][v])
            v = parent[v]
        v = sink
        while v != source:
            residual[parent[v]][v] -= push
            residual[v][parent[v]] += push
            v = parent[v]
        flow += push
    return True


def _first_reducing_set(adj, degree, a):
    """First letter set, in table mask order, that shortens the word with
    multiplier vertex ``a``.

    Returns the member vertices other than ``a`` and ``cap(A) - deg(a)``,
    which is negative. Bit ``k`` of a mask stands for the ``k``-th vertex
    other than ``a`` and ``a^-1``. Masks run upwards, and the edges inside
    ``A`` come from three smaller masks by inclusion-exclusion over the
    two lowest bits, so each mask costs O(1). Returns ``None`` when no
    mask reduces.
    """
    others = [v for v in range(len(adj)) if v >> 1 != a >> 1]
    inside = [0]  # edges with both ends in A = {a} + members of the mask
    weight = [0]  # sum of the members' degrees, a excluded
    for mask in range(1, 1 << len(others)):
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
        # cap(A) - deg(a) = (deg(a) + total - 2 * edges) - deg(a)
        if total < 2 * edges:
            return [v for k, v in enumerate(others) if mask >> k & 1], total - 2 * edges
    return None


def _reducing_step(letters, rank):
    """The first length-reducing automorphism in table order, or ``None``.

    Returns ``(auto, predicted cyclic length of the image)``. Letters
    outside the support would be isolated vertices: as multipliers they
    have degree 0, and as members they leave ``cap(A)`` unchanged while
    coming later in table order, so the first reducer never involves one.

    Only positive multipliers are tried, one max flow each. The graph is
    undirected and ``deg(x) = deg(x^-1)``, as both count the occurrences
    of ``x`` and ``x^-1``, so the flow test for ``x^-1`` repeats the one
    for ``x`` just before it in table order: either ``x`` is skipped and
    so is ``x^-1``, or ``x`` has a reducer and ``x^-1`` is never reached.
    The first reducer therefore always has a positive multiplier.
    """
    vertices, adj = _whitehead_graph(letters)
    degree = [sum(row) for row in adj]
    # Odd vertices are the inverses x^-1; their flow test repeats x's.
    for a in range(0, len(vertices), 2):
        # Every support letter has positive degree. A max flow of deg(a)
        # from a to a^-1 means every cut, so every cap(A), is at least deg(a).
        if _flow_reaches(adj, a, a ^ 1, degree[a]):
            continue
        multiplier = vertices[a]
        found = _first_reducing_set(adj, degree, a)
        if found is None:
            raise RuntimeError(f"no reducing set for multiplier {format_letter(multiplier)}"
                               " though the min cut is below its degree")
        members, change = found
        members = frozenset([multiplier, *(vertices[v] for v in members)])
        return _second_auto(rank, multiplier, members), len(letters) + change
    return None


def whitehead_minimize(word: Word | CyclicWord, rank: int, *,
                       _checked: bool = False) -> PrimitivityVerdict:
    """Greedy first-improvement descent to an orbit-minimal cyclic word.

    Repeatedly applies the first enumerated automorphism that strictly
    shortens the cyclic word until none does. Peak reduction makes any
    local minimum global, so the verdict is ``primitive`` exactly when
    the minimum has length one.

    Each step reads its automorphism off the word's Whitehead graph, as
    :func:`_reducing_step` describes, instead of trying table entries. It
    is the entry that rewriting the word with every one in turn would find
    first, built on its own, and the only one applied; ``RuntimeError`` is
    raised if the image's length is not the predicted one. No Whitehead
    table is built.

    ``_checked`` is for :func:`is_primitive`, which has checked the rank
    and the word's support already.
    """
    if not _checked:
        check_rank(rank)
        _check_support(word.letters, rank)
    current = word if isinstance(word, CyclicWord) else CyclicWord(word.letters)
    certificate = []
    while len(current) > 1:
        step = _reducing_step(current.letters, rank)
        if step is None:
            break
        auto, predicted = step
        image = cyclic_reduce(apply_images(current.letters, auto.images))
        if len(image) != predicted:
            raise RuntimeError(f"{auto.describe()} gave length {len(image)}, "
                               f"predicted {predicted}")
        certificate.append(auto)
        current = CyclicWord._from_canonical(least_rotation(image))
    return PrimitivityVerdict(
        primitive=len(current) == 1,
        certificate=tuple(certificate),
        minimal=current,
    )


def oz_rank2_nonprimitive(word: CyclicWord | Word) -> bool:
    """Rank-2 sign test: True certifies NON-primitivity, False is silent.

    A cyclically reduced word over ``x1, x2`` that contains some
    generator together with its inverse cannot lie in any free basis of
    the rank-2 free group. Only applicable in rank-2 context.
    """
    cyclic = word if isinstance(word, CyclicWord) else CyclicWord(word.letters)
    seen = set(cyclic.letters)
    if any(abs(a) > 2 for a in seen):
        raise ValueError("rank-2 test applied to a word with higher generators")
    return (1 in seen and -1 in seen) or (2 in seen and -2 in seen)


def is_primitive(word: Word | CyclicWord, rank: int, *, use_oz: bool = True) -> PrimitivityVerdict:
    """Decide whether ``word`` is primitive in the rank-``rank`` free group.

    Invariant under conjugation and inversion. When the word's support
    lies in ``x1, x2`` the rank-2 sign test runs first (primitivity is
    stable under extending the ambient basis, so the restriction is
    sound); ``use_oz=False`` forces the descent, with identical verdicts.
    """
    check_rank(rank)
    _check_support(word.letters, rank)
    cyclic = word if isinstance(word, CyclicWord) else word.cyclic()
    letters = cyclic.letters
    if use_oz and letters and max(letters) <= 2 and min(letters) >= -2:
        if oz_rank2_nonprimitive(cyclic):
            return PrimitivityVerdict(
                primitive=False, certificate=(), minimal=cyclic, oz_fired=True
            )
    return whitehead_minimize(cyclic, rank, _checked=True)


def _resolve_cap(node_cap: int | None) -> int:
    source = "node_cap"
    if node_cap is None:
        raw = os.environ.get(_ORACLE_CAP_ENV)
        if raw is None:
            return DEFAULT_ORACLE_CAP
        try:
            node_cap = int(raw)
        except ValueError:
            raise ValueError(f"{_ORACLE_CAP_ENV}={raw!r} is not an integer") from None
        source = _ORACLE_CAP_ENV
    elif not isinstance(node_cap, int) or isinstance(node_cap, bool):
        raise TypeError(f"node_cap must be an int, got {node_cap!r}")
    if node_cap < 1:
        raise ValueError(f"{source} must be >= 1, got {node_cap}")
    return node_cap


def _second_kind_images(rank: int):
    """Image tables of the second-kind ``(A, a)`` with ``a`` positive and
    ``1 < |A| < 2*rank - 1``, built from ``(a, A)`` one at a time.

    For a positive ``a``, each other generator ``x`` contributes its
    :func:`_image_pair` in one of four states. The tables are
    the products of these choices, less the first (``A = {a}``) and the
    last (``|A| = 2*rank - 1``). There are ``rank * (4**(rank - 1) - 2)``.
    """
    for a in range(1, rank + 1):
        choices = [[_image_pair(x, a, state) for state in range(1 if x == a else 4)]
                   for x in range(1, rank + 1)]
        for pairs in islice(product(*choices), 1, 4 ** (rank - 1) - 1):
            yield tuple(chain.from_iterable(pairs))


def oracle_primitives(rank: int, max_len: int, *, node_cap: int | None = None) -> frozenset[CyclicWord]:
    """All primitive cyclic words of length at most ``max_len``.

    Breadth-first closure of the ``2*rank`` length-one classes
    ``x_i^{+-1}`` under the second-kind ``(A, a)`` with ``a`` positive and
    ``1 < |A| < 2*rank - 1``, keeping the images of length at most
    ``max_len`` and never applying a generator to a word of length
    ``max_len``. That is ``rank * (4**(rank - 1) - 2)`` generators: 4 at
    rank 2 and 42 at rank 3. Their image tables come from
    :func:`_second_kind_images`, one table alive at a time, once per
    breadth-first level; the Whitehead table is never built.

    The closure is every primitive word within the bound:

    * *Skipped second-kind entries.* Writing ``L`` for the set of all
      letters, ``(A, a)`` is conjugation by ``a`` composed with
      ``(L - A, a^-1)``, so the two agree on cyclic words. ``({a}, a)``
      is the identity and ``(L - {a^-1}, a)`` is conjugation by ``a``.
      So every second-kind entry that moves a cyclic word acts on cyclic
      words as a kept generator.
    * *First-kind generators.* Conjugating a kept ``(A, a)`` by a signed
      permutation ``s`` gives ``(sA, sa)``, which is a kept generator or,
      when ``sa`` is negative, acts as the kept ``(L - sA, (sa)^-1)``.
      The closure is the least set that holds the seeds and the images
      within the bound of its words shorter than ``max_len``. As ``s``
      keeps lengths and the seeds, it maps that set to one with the same
      property, so the closure is closed under ``s``.
    * *Words at the bound.* A primitive ``w`` with ``|w| > 1`` is not of
      minimal length in its orbit, so Whitehead's theorem gives a
      second-kind ``(A, a)`` that shortens it, with ``1 < |A| < 2*rank - 1``
      as the others fix cyclic words. Its inverse
      ``(A - {a} + {a^-1}, a^-1)`` has a set of the same size and is a
      kept generator up to the identity above. So ``w`` is the end of a
      strictly lengthening chain from a seed, and every word before ``w``
      in it is shorter than ``w``, hence than ``max_len``: no generator
      needs to be applied to a word at the bound.

    Each image is canonicalized once, by the kernel, which is given
    ``max_len``: an image whose cyclic reduction is longer is never
    rotated or made a tuple, and comes back as ``None``. Each kept word
    becomes a :class:`CyclicWord` only at the end.

    Intended as an independent ground truth for :func:`is_primitive` at
    small sizes (practical up to rank 3, length 8). Raises
    :class:`OracleCapExceeded` if more than ``node_cap`` canonical words
    are retained (default ``DEFAULT_ORACLE_CAP``, overridable via the
    ``DISKSURGERY_ORACLE_CAP`` environment variable), which happens
    exactly when the closure has more than ``node_cap`` words; the seeds
    count. ``max_len`` and ``node_cap`` must be ints (``TypeError``
    otherwise, bools included) of at least 1 (``ValueError`` otherwise).
    """
    check_rank(rank)
    if not isinstance(max_len, int) or isinstance(max_len, bool):
        raise TypeError(f"max_len must be an int, got {max_len!r}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    cap = _resolve_cap(node_cap)
    message = f"oracle closure exceeded {cap} canonical words (rank {rank}, max_len {max_len})"
    # Checked before the seeds are built, so a large rank cannot exhaust memory here.
    if 2 * rank > cap:
        raise OracleCapExceeded(message, cap)
    canonical = apply_images_canonical
    seen = {(x,) for x in _letters_in_order(rank)}
    frontier = list(seen) if max_len > 1 else []
    while frontier:
        level = []
        for images in _second_kind_images(rank):
            for letters in frontier:
                image = canonical(letters, images, max_len)
                if image is not None and image not in seen:
                    seen.add(image)
                    if len(seen) > cap:
                        raise OracleCapExceeded(message, cap)
                    level.append(image)
        frontier = [letters for letters in level if len(letters) < max_len]
    return frozenset(CyclicWord._from_canonical(letters) for letters in seen)


def replay_certificate(word: Word | CyclicWord, certificate) -> tuple[CyclicWord, ...]:
    """Trail of cyclic words visited by a certificate, start included."""
    current = CyclicWord(tuple(word.letters))
    trail = [current]
    for auto in certificate:
        current = apply_auto_cyclic(auto, current)
        trail.append(current)
    return tuple(trail)
