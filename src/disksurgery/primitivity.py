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
Multipliers are tried in table order. For each, the first table entry
that shortens the word is its letter set with ``cap(A) < deg(a)`` and the
least mask, so certificates are those of trying every entry in turn, but
the step is built from its ``(a, A)`` alone. That mask is found in time
polynomial in the word, never by walking the ``4**(s - 1)`` masks of a
support of ``s`` generators: a scan of the masks, max flows, or both,
as ``s`` compares with two support sizes, ``_SCAN_ONLY_SUPPORT`` (4)
and ``_SMALL_SUPPORT`` (6). :func:`_reducing_step` gives the rule, after
Gersten and Roig, Ventura and Weil (*On the complexity of the Whitehead
minimization problem*, 2007). The graph does not change under rotation,
so the words between steps are kept cyclically reduced but unrotated,
and only the last one is put in canonical form.

A proper power ``u^m`` is descended on its root ``u``
(:func:`_primitive_root`, found once). Its cyclic letter pairs are ``m``
copies of ``u``'s, so its Whitehead graph is ``u``'s with every edge
count times ``m``. Every test of the step rule (a mask's gain, a max
flow against ``deg(a)``, the fixings of :func:`_smallest_reducing_set`,
the predicted length) is homogeneous of degree one in the edge counts,
so multiplying them by ``m`` never changes the chosen ``(a, A)``. An
automorphism maps ``u^m`` to ``phi(u)^m``, whose cyclic reduction is
``phi(u)``'s to the ``m``-th power, and the least rotation of ``v^m`` is
that of ``v`` to the ``m``-th power. So the certificate is ``u``'s, the
minimum is ``u``'s raised to the ``m``-th power, and no step reads more
than ``|u|`` letters. The certificate replay does the same.

Both routes below work on a word's support renamed onto ``x1..x_s``
(:func:`_rename_support`), so the descent runs at the rank ``s`` of the
word, not of the ambient group: each step builds an image table of
``2s`` slots, and nothing is sized by the rank. The renaming is
increasing in the generator index and keeps signs, so it keeps table
order and hence the first reducer; each step's ``(a, A)`` is mapped back
to the caller's letters for its certificate entry, which is the very
entry of :func:`enumerate_whitehead_autos` at the caller's rank, so
certificates do not change with the renaming.

:class:`WhiteheadAuto` is the second kind only, and it is its
``(rank, a, A)`` alone: a table is built where one is applied. The
first kind, the signed permutations of the generators, keeps every
cyclic length, so no descent step is one; the oracle applies them only
as relabellings.

Two independent routes are provided and cross-checked by the test suite:

* :func:`is_primitive` — the descent, plus a rank-2 fast path
  (:func:`oz_rank2_nonprimitive`): a cyclically reduced word over
  ``x1, x2`` containing some generator with both signs is never
  primitive.
* :func:`oracle_primitives` — breadth-first closure of the orbit of
  ``x1``, restricted to a length bound, under the second-kind ``(A, a)``
  with ``a`` positive, built from ``(a, A)`` without the table. The
  closure is kept as whole orbits of the signed permutations: each new
  orbit is added whole, by relabelling its word letter by letter, with
  one least rotation per order the relabellings induce on its letters
  and no free reduction (a signed permutation keeps a word cyclically
  reduced), and one word per orbit is expanded through the kernel,
  renamed onto ``x1..x_s`` for a support of ``s`` generators. It is
  expanded only under the generators of rank ``n = min(s + 1, rank)``,
  those with ``1 < |A| < 2*n - 1``: 4 for one support generator and 42
  for two, whatever the rank. Words at the bound are kept but never
  expanded.
  Whitehead's theorem makes the closure complete within the bound:
  every primitive word longer than one letter is shortened by a
  second-kind generator whose inverse acts on cyclic words as a kept
  one, so membership is ground truth for short words. The full
  argument, and why one word per orbit and the generators of its
  support suffice, is in the function's docstring, with the sizes it
  reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice, permutations, product
from operator import itemgetter

from ._kernels import apply_images, apply_images_canonical, least_rotation, letter_key
# Unused here since each step strips its image's ends itself; layerbench/tracer.py
# and the tests' reference descent reach the kernel through this module.
from ._kernels import cyclic_reduce  # noqa: F401
from .words import CyclicWord, Word, check_rank, check_support, format_letter

__all__ = [
    "WhiteheadAuto",
    "OracleCapExceeded",
    "apply_auto_cyclic",
    "whitehead_minimize",
    "is_primitive",
    "oz_rank2_nonprimitive",
    "oracle_primitives",
    "replay_certificate",
]

# Canonical words the oracle's closure may keep.
ORACLE_NODE_CAP = 10**6
# Letters the oracle's closure may keep, summed over its words. The node
# cap bounds the words, not their length: rank 2 at length 400 is 194,712
# words but 51.9 million letters, about 8 bytes each.
ORACLE_LETTER_BUDGET = 2**25


class OracleCapExceeded(RuntimeError):
    """The oracle's breadth-first closure hit its node cap, or its letter
    budget ``ORACLE_LETTER_BUDGET``; ``cap`` is the bound it hit."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


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
    """A second-kind Whitehead automorphism ``(A, a)`` of Aut(F_rank).

    A multiplier letter ``a`` and a frozenset of letters ``members`` with
    ``a`` in the set and ``a^-1`` outside it. A letter ``x`` (other than
    ``a``, ``a^-1``) maps to ``x a`` if only ``x`` is a member, to
    ``a^-1 x`` if only ``x^-1`` is, to ``a^-1 x a`` if both are, and is
    fixed if neither is; ``a`` is fixed.

    It is its ``(rank, multiplier, members)`` alone. An image table
    (:func:`_second_images`) is built where one is applied, over the
    renamed support of the word and ``A``: in the descent and in
    :func:`apply_auto_cyclic`. None is sized by the rank.
    """

    __slots__ = ("rank", "multiplier", "members")
    # Constants kept only because layerbench/worker.py records them with every certificate step.
    kind = "second"
    perm = signs = None

    def __init__(self, rank, multiplier, members):
        check_rank(rank)
        # Image tables go to the kernels: a float or a bool would pass the checks below.
        if not isinstance(members, frozenset):
            raise ValueError("second kind needs a frozenset of letters")
        _check_ints("multiplier", (multiplier,))
        _check_ints("members", members)
        if multiplier not in members or -multiplier in members:
            raise ValueError("need multiplier in members and its inverse outside")
        for a in members:
            if abs(a) > rank or a == 0:
                raise ValueError(f"letter {a} out of range for rank {rank}")
        self.rank = rank
        self.multiplier = multiplier
        self.members = members

    def _ident(self):
        return (self.rank, self.multiplier, self.members)

    def __eq__(self, other):
        return isinstance(other, WhiteheadAuto) and self._ident() == other._ident()

    def __hash__(self):
        return hash(self._ident())

    def describe(self) -> str:
        shown = sorted(self.members, key=letter_key)
        inner = ", ".join(format_letter(a) for a in shown)
        return f"second(a={format_letter(self.multiplier)}, A={{{inner}}})"

    def __repr__(self):
        return f"WhiteheadAuto[{self.describe()}]"


def _second_images(size, multiplier, members):
    """Image table of the second-kind ``(members, multiplier)`` over
    ``x1..x_size``, which must hold the multiplier: ``2 * size`` slots,
    the image of ``x`` at ``letter_key(x)``. ``members`` is a set."""
    images = []
    for x in range(1, size + 1):
        state = 0 if x == abs(multiplier) else (x in members) + 2 * (-x in members)
        images += _image_pair(x, multiplier, state)
    return tuple(images)


@lru_cache(maxsize=None)
def _second_auto(rank, multiplier, members):
    """The second-kind ``(members, multiplier)``, built once per argument
    triple, so that a descent step is the very table entry for its
    ``(a, A)`` whichever is built first."""
    return WhiteheadAuto(rank, multiplier, members)


@lru_cache(maxsize=None)
def enumerate_whitehead_autos(rank: int) -> tuple[WhiteheadAuto, ...]:
    """Deterministic enumeration of the ``2*rank * 4**(rank - 1)``
    second-kind automorphisms: every valid multiplier/letter-set pair,
    including the identity-like ones with a singleton set.

    No program path builds this table; the descent builds each step from
    its ``(a, A)`` through the same cache, so a certificate step is the
    very entry listed here.
    """
    check_rank(rank)
    autos = []
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    for a in letters:
        others = [x for x in letters if abs(x) != abs(a)]
        # Bit j of a mask stands for others[j]; each set adds its lowest bit's letter.
        sets = [frozenset([a])]
        for mask in range(1, 1 << len(others)):
            low = mask & -mask
            sets.append(sets[mask ^ low] | {others[low.bit_length() - 1]})
        autos += (_second_auto(rank, a, members) for members in sets)
    return tuple(autos)


def apply_auto_cyclic(auto: WhiteheadAuto, cyclic: CyclicWord) -> CyclicWord:
    """Induced action on conjugacy classes (canonical cyclic output).

    The word and ``A`` are renamed together onto ``x1..x_s`` for the ``s``
    generators they use (:func:`_rename_support`), and the image is mapped
    back, so the table has ``2s`` slots whatever the rank or the indices.
    The renaming keeps ``letter_key`` order, so the mapped-back image is
    still the least rotation.
    """
    letters = cyclic.letters
    check_support(letters, auto.rank)
    renamed, names = _rename_support((*letters, auto.multiplier, *auto.members))
    n = len(letters)
    images = _second_images(len(names), renamed[n], set(renamed[n + 1:]))
    image = apply_images_canonical(renamed[:n], images)
    return CyclicWord._from_canonical(tuple(_named(image, names)))


def _rename_support(letters):
    """``letters`` renamed onto ``x1..x_s`` for a support of ``s``
    generators, in order and with their signs, and the support's
    generators in ascending order: ``x_i`` stands for ``names[i - 1]``.

    The renaming is increasing in the generator index and keeps signs, so
    it keeps :func:`letter_key` order and commutes with free reduction
    and rotation.
    """
    names = tuple(sorted(set(map(abs, letters))))
    if not names or names[-1] == len(names):  # already x1..x_s
        return letters, names
    index = {sign * g: sign * i for i, g in enumerate(names, 1) for sign in (1, -1)}
    return tuple(map(index.__getitem__, letters)), names


def _named(letters, names):
    """Renamed ``letters`` under the generators they stand for."""
    return [names[x - 1] if x > 0 else -names[-x - 1] for x in letters]


def _primitive_root(letters):
    """``(u, m)`` with ``letters == u * m`` and ``u`` no proper power.

    Only the divisors ``d`` of the length are tried, in ascending order;
    ``letters[d]`` is compared with the first letter before the whole
    shift is. The least period that divides the length is the root's
    length, as any two such periods give their gcd as one.
    """
    n = len(letters)
    divisors = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors += [n // d for d in reversed(divisors) if d * d != n]
    for d in divisors[:-1]:
        if letters[d] == letters[0] and letters[d:] == letters[:-d]:
            return letters[:d], n // d
    return letters, 1


# The two support sizes, in generators, that pick how a descent step is
# found (see _reducing_step): up to _SCAN_ONLY_SUPPORT the mask scan alone
# decides a multiplier, and up to _SMALL_SUPPORT the Whitehead graph has
# dense rows, the scan covers every mask and _step keeps the step.
_SCAN_ONLY_SUPPORT = 4
_SMALL_SUPPORT = 6


@lru_cache(maxsize=512)
def _step(rank, names, multiplier, members):
    """The image table of the renamed step ``(members, multiplier)`` over
    the ``s = len(names)`` generators of its support, and the step's
    certificate entry: the table entry at ``rank`` for it mapped back.

    Steps recur across words, so the last 512 over supports of at most
    ``_SMALL_SUPPORT`` (6) generators are kept: at most 512 tables of 12
    slots, whatever the rank or the word. A step over a wider support is
    built by ``_step.__wrapped__`` and not kept, as its table has ``2s``
    slots.
    """
    return (_second_images(len(names), multiplier, members),
            _second_auto(rank, names[multiplier - 1], frozenset(_named(members, names))))


@dataclass(frozen=True, slots=True)
class PrimitivityVerdict:
    """Outcome of a primitivity test.

    ``certificate`` replays from the input's cyclic reduction to
    ``minimal`` with strictly decreasing cyclic length at every step; it
    is empty when the fast path fired (``minimal`` is then just the
    cyclic reduction, not necessarily the orbit minimum). So an empty
    certificate means ``minimal`` is the input's own canonical cyclic
    form.
    """

    primitive: bool
    certificate: tuple[WhiteheadAuto, ...]
    minimal: CyclicWord
    oz_fired: bool = False


class _SparseRow(dict):
    """A row of the Whitehead graph of a support wider than
    ``_SMALL_SUPPORT`` generators: each neighbour's edge count, and 0 for
    any other vertex."""

    __slots__ = ()

    def __missing__(self, vertex):
        return 0


def _whitehead_graph(letters):
    """Whitehead graph of a cyclically reduced word of length at least 2
    over ``x1..x_s``, its support renamed as :func:`_rename_support` does,
    and the degree of each vertex.

    Vertex ``letter_key(x)`` is the letter ``x``, so the inverse of vertex
    ``v`` is ``v ^ 1``. Each cyclic position ``i`` adds one edge between
    ``w[i]`` and ``w[i+1]^-1``; there are no loops, as the word is
    cyclically reduced. The rows hold the symmetric edge counts: lists of
    ``2s`` counts up to a support of ``_SMALL_SUPPORT`` (6), and above that
    :class:`_SparseRow` dicts of the neighbours alone, so the graph takes
    memory linear in the word. A vertex's degree counts the occurrences of
    its letter and of the inverse, read off the same pass.
    """
    keys = [a + a - 2 if a > 0 else -a - a - 1 for a in letters]  # letter_key, inlined
    size = (max(keys) | 1) + 1
    if size <= 2 * _SMALL_SUPPORT:
        adj = [[0] * size for _ in range(size)]
    else:
        adj = [_SparseRow() for _ in range(size)]
    count = [0] * size
    prev = keys[-1]
    for v in keys:
        adj[prev][v ^ 1] += 1
        adj[v ^ 1][prev] += 1
        count[v] += 1
        prev = v
    return adj, [count[v] + count[v ^ 1] for v in range(size)]


def _augment(adj, residual, sources, sinks, flow, limit, log=None):
    """Augments a flow of ``flow`` units in the Whitehead graph ``adj``
    from the vertices ``sources`` to the set ``sinks``, until it carries
    ``limit`` units or no augmenting path is left, and returns the units
    it then carries.

    Each edge carries its count in either direction. ``residual`` holds
    the residual rows that the flow has changed, each copied from ``adj``
    when first changed, so no flow copies the graph, and a flow grows
    from where it stopped when the sources or sinks grow. Augmenting
    paths are found breadth-first from every source at once, over a
    row's neighbours alone when it is sparse. Each push along an edge is
    appended to ``log`` as ``(u, v, units)``, when given, so that it can
    be undone.
    """
    dense = type(adj[0]) is list
    items = enumerate if dense else dict.items
    copy = list if dense else _SparseRow
    while flow < limit:
        parent = dict.fromkeys(sources)
        queue = list(sources)
        end = None
        for u in queue:
            for v, units in items(residual.get(u, adj[u])):
                if units and v not in parent:
                    parent[v] = u
                    if v in sinks:
                        end = v
                        break
                    queue.append(v)
            if end is not None:
                break
        if end is None:
            return flow
        path = []
        v = end
        while (u := parent[v]) is not None:
            path.append((u, v))
            v = u
        push = min(limit - flow, *[residual.get(u, adj[u])[v] for u, v in path])
        for u, v in path:
            for x in (u, v):
                if x not in residual:
                    residual[x] = copy(adj[x])
            residual[u][v] -= push
            residual[v][u] += push
        if log is not None:
            log += [(u, v, push) for u, v in path]
        flow += push
    return flow


def _flow_reaches(adj, source, sink, limit):
    """Whether a maximum ``source``-``sink`` flow in ``adj`` reaches ``limit``."""
    return _augment(adj, {}, [source], {sink}, 0, limit) >= limit


# A scan reads the masks of at most this many vertices other than a
# multiplier and its inverse: all 2s - 2 of them up to _SMALL_SUPPORT.
_SCAN_BITS = 2 * _SMALL_SUPPORT - 2
# Every mask value a scan reads, made once, so that plans share them.
_MASK_VALUES = tuple(range(1 << _SCAN_BITS))


@lru_cache(maxsize=None)
def _scan_plan(skip, n):
    """The mask scan over ``n`` candidate member vertices: the vertices
    below ``n + 2`` other than ``skip`` and ``skip + 1``, and a tuple per
    mask from 1 up to ``2**n - 1``.

    A mask with lowest member ``v`` and second-lowest ``u`` gives the
    three smaller masks that inclusion-exclusion reads, the mask without
    ``v``, without ``u`` and without both, then ``u`` and ``v``. A mask of
    one member ``v`` gives ``(0, 0, 0, -1, v)``. The bit arithmetic
    depends only on ``n`` and on which two vertices are skipped, never on
    the word, so it is done once here. ``n`` is ``2s - 2`` for a support
    of ``s`` generators, at most ``_SCAN_BITS`` (10, from
    ``_SMALL_SUPPORT``), and ``skip`` at most ``n``, as a multiplier past
    the first ``n`` vertices skips none of them: there are at most 21
    plans, whatever the rank.
    """
    others = [*range(skip), *range(skip + 2, n + 2)]
    plan = []
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        if rest:
            second = rest & -rest
            plan.append((_MASK_VALUES[rest], _MASK_VALUES[mask ^ second],
                         _MASK_VALUES[rest ^ second], others[second.bit_length() - 1],
                         others[low.bit_length() - 1]))
        else:
            plan.append((0, 0, 0, -1, others[low.bit_length() - 1]))
    return others, plan


def _first_reducing_set(adj, degree, a):
    """First letter set, in table mask order, that shortens the word with
    multiplier vertex ``a``, among the masks of the first ``n`` vertices
    other than ``a`` and ``a^-1``: all ``2s - 2`` of them up to a support
    of ``_SMALL_SUPPORT`` (6) generators, and ``_SCAN_BITS`` (10) above
    it, so at most 1,024 masks.

    Returns the member vertices other than ``a`` and ``cap(A) - deg(a)``,
    which is negative, or ``None`` when no mask scanned reduces. Bit ``k``
    of a mask stands for the ``k``-th vertex other than ``a`` and
    ``a^-1``.

    With ``A = {a}`` and the mask's members, the set reduces when its
    gain, twice the edges inside ``A`` less the members' degrees, is
    positive, and then ``cap(A) - deg(a)`` is minus the gain. The gain of
    a mask of two or more members is, by inclusion-exclusion over its two
    lowest members ``v`` and ``u``, that of the mask without ``v``, plus
    that without ``u``, less that without both, plus twice the edges
    between ``u`` and ``v``; that of one member ``v`` is twice the edges
    between ``a`` and ``v`` less ``deg(v)``. The masks run upwards and
    each reads only smaller ones, so each costs O(1). Their members and
    smaller masks come from a plan (:func:`_scan_plan`) built once per
    ``n`` and skipped pair, so the scan does no bit arithmetic.
    """
    n = min(len(adj) - 2, _SCAN_BITS)
    others, plan = _scan_plan(min(a & ~1, n), n)
    row = adj[a]
    gain = [0]
    append = gain.append
    for rest, without_second, without_both, u, v in plan:
        if rest:
            g = gain[rest] + gain[without_second] - gain[without_both] + 2 * adj[u][v]
        else:
            g = 2 * row[v] - degree[v]
        if g > 0:
            mask = len(gain)
            return [v for k, v in enumerate(others) if mask >> k & 1], -g
        append(g)
    return None


def _smallest_reducing_set(adj, degree, a):
    """The reducing set of multiplier vertex ``a`` with the least mask,
    found by max flows; ``a`` must have one, that is, its max flow to
    ``a^-1`` is below ``deg(a)``. Returns what :func:`_first_reducing_set`
    does.

    A vertex forced into ``A`` joins ``a``'s side of the flow and one
    forced out joins ``a^-1``'s side, which is the flow with the vertex
    tied to that side by an edge of capacity ``deg(a)``: every cut
    through such a tie has capacity at least ``deg(a)``, so a reducing
    set that obeys the ties exists exactly when the max flow stays below
    ``deg(a)``. The mask's bits are fixed from the highest down: a vertex
    is left out when some reducing set still exists without it, and put
    in otherwise. That takes one flow per vertex other than ``a`` and
    ``a^-1``.

    Fixing a vertex only adds capacity and keeps the flow's value, so
    each flow continues from the last one (Gallo, Grigoriadis and Tarjan,
    *A fast parametric maximum flow algorithm*, 1989) instead of starting
    from zero. A vertex that cannot be left out has the pushes of its
    trial undone before it joins ``a``'s side. ``cap(A)`` is then summed
    over the rows of ``A`` alone. Returns ``None`` if the set so fixed
    does not reduce, which the flows rule out.
    """
    limit = degree[a]
    residual = {}
    sources, sinks = [a], {a ^ 1}
    flow = 0
    for v in reversed(range(len(adj))):
        if v >> 1 == a >> 1:
            continue
        sinks.add(v)
        log = []
        reached = _augment(adj, residual, sources, sinks, flow, limit, log)
        if reached < limit:
            flow = reached
            continue
        sinks.remove(v)
        for u, w, push in log:
            residual[u][w] += push
            residual[w][u] -= push
        sources.append(v)
    members = sorted(sources[1:])
    inside = {a, *members}
    items = enumerate if type(adj[0]) is list else dict.items
    cap = sum(units for u in inside for v, units in items(adj[u]) if v not in inside)
    return (members, cap - limit) if cap < limit else None


def _reducing_step(letters, names):
    """The first length-reducing automorphism in table order, or ``None``.

    ``letters`` is a renamed word whose support is all of ``x1..x_s``,
    and ``names`` the generators they stand for, which the error below
    names. Returns the multiplier, which is positive, and the letter set,
    both renamed, and the predicted cyclic length of the image. Letters
    outside the support would be isolated vertices: as multipliers they
    have degree 0, and as members they leave ``cap(A)`` unchanged while
    coming later in table order, so the first reducer never involves one,
    and the renaming, which keeps table order, keeps it.

    Only positive multipliers are tried. The graph is undirected and
    ``deg(x) = deg(x^-1)``, as both count the occurrences of ``x`` and
    ``x^-1``, and ``A`` reduces for ``x`` exactly when its complement
    reduces for ``x^-1``: either ``x`` has no reducer and neither has
    ``x^-1``, or ``x`` has one and ``x^-1`` is never reached. The first
    reducer therefore always has a positive multiplier.

    For each multiplier, in table order, the reducer with the least mask
    is the first table entry that shortens the word. A support of ``s``
    generators gives each multiplier ``4**(s - 1)`` masks, and ``s``
    picks how that reducer is found:

    * up to ``_SCAN_ONLY_SUPPORT`` (4) generators, 64 masks, the mask
      scan finds it or shows there is none, at less cost than a max flow;
    * above that, a max flow from ``a`` to ``a^-1`` that reaches
      ``deg(a)`` skips the multiplier, as then every cut, so every
      ``cap(A)``, is at least ``deg(a)``. Otherwise the masks are
      scanned: every one up to ``_SMALL_SUPPORT`` (6) generators, 1,024
      masks, and the first 1,024 above it, past which
      :func:`_smallest_reducing_set` fixes the mask by ``2s - 2`` max
      flows, each continuing the last. The scan comes first because low
      masks often reduce: on ``x1 x2 ... x400`` it finds each step at
      mask 2, where the flows would take 798.

    The scan (:func:`_first_reducing_set`) follows a plan of its masks,
    built once per number of scanned vertices and skipped pair, so a mask
    costs four lookups and no bit arithmetic. The graph has dense rows up
    to ``_SMALL_SUPPORT`` generators, where every mask is scanned, and
    sparse rows above, where the flows walk only a vertex's neighbours
    and copy only the rows they change: a step takes memory linear in the
    word, and ``x1 x2 ... x5000`` answers in 512 MiB.

    The scan goes in mask order and the flows give the least reducing
    mask, so the two support sizes change what a step costs, never which
    step it is. ``RuntimeError`` is raised if a flow below ``deg(a)`` is
    followed by no reducing set, as the two must agree. A step runs at
    most one flow per support generator to rule multipliers out, and scans
    at most 1,024 masks per multiplier.
    """
    adj, degree = _whitehead_graph(letters)
    support = len(adj) >> 1
    flows = support > _SCAN_ONLY_SUPPORT
    # Odd vertices are the inverses x^-1; their answer repeats x's.
    for a in range(0, len(adj), 2):
        if flows and _flow_reaches(adj, a, a ^ 1, degree[a]):
            continue
        found = _first_reducing_set(adj, degree, a)
        if found is None and support > _SMALL_SUPPORT:
            found = _smallest_reducing_set(adj, degree, a)
        if found is None:
            if flows:
                raise RuntimeError(f"no reducing set for multiplier {format_letter(names[a >> 1])}"
                                   " though the min cut is below its degree")
            continue
        members, change = found
        # Vertex v is the letter whose letter_key is v; a is even, so positive.
        members = frozenset([-(v >> 1) - 1 if v & 1 else (v >> 1) + 1 for v in (a, *members)])
        return (a >> 1) + 1, members, len(letters) + change
    return None


def whitehead_minimize(word: Word | CyclicWord, rank: int, *,
                       _checked: bool = False) -> PrimitivityVerdict:
    """Greedy first-improvement descent to an orbit-minimal cyclic word.

    Repeatedly applies the first enumerated automorphism that strictly
    shortens the cyclic word until none does. Peak reduction makes any
    local minimum global, so the verdict is ``primitive`` exactly when
    the minimum has length one.

    Each step reads its automorphism off the word's Whitehead graph, as
    :func:`_reducing_step` describes, instead of trying table entries: a
    planned scan of the low masks and max flows, as the support's size
    picks. It is the entry that rewriting the word with every one in turn
    would find first, built on its own, and the only one applied;
    ``RuntimeError`` is raised if the image's length is not the predicted
    one. No Whitehead table is built.

    The steps run on the word's support renamed onto ``x1..x_s``
    (:func:`_rename_support`, which the oracle shares), so each applies
    a ``2s``-slot image table and nothing is sized by the rank. The
    renaming keeps ``letter_key`` order, so it keeps the multiplier
    order, the mask order and hence the first reducer: each certificate
    entry is the table entry at ``rank`` for the step's ``(a, A)`` mapped
    back (:func:`_step`), and certificates do not change. The support
    never grows along the descent; when the multiplier leaves it, the
    word is renamed again, so the graph has no isolated vertices.

    The Whitehead graph does not change under rotation, so each image is
    kept as its cyclic reduction, in no particular rotation, and only the
    last is mapped back and rotated into canonical form, once, when a
    step was applied; the renaming keeps order and signs, so mapping back
    and rotating commute. The substitution kernel already reduces the
    image freely, so its cyclic reduction only strips the letters at its
    two ends that cancel: one reduction per step.

    A proper power ``u^m`` of the canonical word is descended on its root
    ``u``, found once by trying the divisors of the length, and the last
    word's least rotation is raised to the ``m``-th power. The Whitehead
    graph of ``u^m`` is ``m`` times ``u``'s, and each test of the step
    rule is homogeneous of degree one in its edge counts, so the steps
    are ``u``'s; an automorphism maps ``u^m`` to ``phi(u)^m``, and the
    least rotation of a power is the power of the least rotation. The
    certificate, minimum and verdict are those of descending ``u^m``,
    which is never primitive, and each step reads ``|u|`` letters.

    ``_checked`` is for :func:`is_primitive`, which has checked the rank
    and the word's support already.
    """
    if not _checked:
        check_rank(rank)
        check_support(word.letters, rank)
    current = word if isinstance(word, CyclicWord) else word.cyclic()
    root, power = _primitive_root(current.letters)
    letters, names = _rename_support(root)
    certificate = []
    while len(letters) > 1:
        step = _reducing_step(letters, names)
        if step is None:
            break
        a, members, predicted = step
        build = _step if len(names) <= _SMALL_SUPPORT else _step.__wrapped__
        images, auto = build(rank, names, a, members)
        image = apply_images(letters, images)
        first, last = 0, len(image) - 1
        while first < last and image[first] == -image[last]:
            first += 1
            last -= 1
        letters = image[first:last + 1]
        if len(letters) != predicted:
            raise RuntimeError(f"{auto.describe()} gave length {len(letters)}, "
                               f"predicted {predicted}")
        certificate.append(auto)
        # Only the multiplier can leave the support: the image of each other
        # letter holds it once, and only powers of the multiplier cancel.
        if a not in letters and -a not in letters:
            letters, kept = _rename_support(letters)
            names = tuple(_named(kept, names))
    if certificate:
        current = CyclicWord._from_canonical(least_rotation(_named(letters, names)) * power)
    return PrimitivityVerdict(
        primitive=len(current) == 1,
        certificate=tuple(certificate),
        minimal=current,
    )


def _mixed_signs(letters) -> bool:
    """Whether ``x1`` or ``x2`` occurs in ``letters`` with its inverse; each
    membership scan stops at its first hit."""
    return (1 in letters and -1 in letters) or (2 in letters and -2 in letters)


def oz_rank2_nonprimitive(word: CyclicWord | Word) -> bool:
    """Rank-2 sign test: True certifies NON-primitivity, False is silent.

    A cyclically reduced word over ``x1, x2`` that contains some
    generator together with its inverse cannot lie in any free basis of
    the rank-2 free group. Only applicable in rank-2 context.

    One ``max``/``min`` of the cyclic letters checks the support; the
    test itself is ``(1 in letters and -1 in letters) or (2 in letters
    and -2 in letters)``, which stops at the first pair it finds.
    """
    cyclic = word if isinstance(word, CyclicWord) else word.cyclic()
    letters = cyclic.letters
    if letters and (max(letters) > 2 or min(letters) < -2):
        raise ValueError("rank-2 test applied to a word with higher generators")
    return _mixed_signs(letters)


def is_primitive(word: Word | CyclicWord, rank: int, *, use_oz: bool = True) -> PrimitivityVerdict:
    """Decide whether ``word`` is primitive in the rank-``rank`` free group.

    Invariant under conjugation and inversion. When the word's support
    lies in ``x1, x2`` the rank-2 sign test runs first (primitivity is
    stable under extending the ambient basis, so the restriction is
    sound); ``use_oz=False`` forces the descent, with identical verdicts.

    One ``max``/``min`` of the cyclic letters serves both the support
    check and the gate of the sign test, which is the one-pass test of
    :func:`oz_rank2_nonprimitive`. A :class:`Word` has its own letters
    checked first, since letters past the rank may cancel in reduction.
    """
    check_rank(rank)
    if isinstance(word, CyclicWord):
        cyclic = word
    else:
        check_support(word.letters, rank)
        cyclic = word.cyclic()
    letters = cyclic.letters
    if letters:
        top, bottom = max(letters), min(letters)
        if top > rank or bottom < -rank:
            check_support(letters, rank)
        if use_oz and top <= 2 and bottom >= -2 and _mixed_signs(letters):
            return PrimitivityVerdict(
                primitive=False, certificate=(), minimal=cyclic, oz_fired=True
            )
    return whitehead_minimize(cyclic, rank, _checked=True)


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


def _relabellings(rank: int, size: int):
    """Letter tables of the injective signed maps ``x1..x_size -> x1..x_rank``,
    one at a time: ``2**size * rank! / (rank - size)!`` tables of
    ``2*size + 1`` letters. Slot ``i`` holds the image of ``x_i`` and slot
    ``-i``, read from the end, that of ``x_i^-1``, so a letter indexes its
    own image; slot 0 is unused.

    Each map is a signed permutation of ``x1..x_size`` followed by the
    increasing map onto a set of ``size`` targets. Table ``k * P + p``,
    with ``P = 2**size * size!``, takes the ``k``-th set of targets and
    the ``p``-th signed permutation: ``p >> size`` numbers its
    permutation and bit ``size - i`` of ``p`` is set when ``x_i`` goes to
    an inverse letter.
    """
    picks = [itemgetter(0, *letters, *[-x for x in reversed(letters)])
             for order in permutations(range(1, size + 1))
             for letters in product(*((i, -i) for i in order))]
    for targets in combinations(range(1, rank + 1), size):
        extended = (0, *targets, *[-x for x in reversed(targets)])
        for pick in picks:
            yield pick(extended)


def _relabelling_groups(tables, size, mixed):
    """``tables``, all of :func:`_relabellings` for ``size``, in groups
    ``(first, inverse, rest)`` that each induce one order on the letters
    of a word over ``x1..x_size`` in which the generators ``mixed``, and
    no others, occur with both signs.

    The increasing map onto the targets keeps :func:`letter_key` order,
    so a table induces the order of its signed permutation. That order
    compares the letters of two generators by their images' indices, and
    ``x_i`` with ``x_i^-1`` by the sign of ``x_i``'s image, which matters
    only for ``i`` in ``mixed``. So a group is one permutation and one
    choice of signs on ``mixed``: ``size! * 2**len(mixed)`` groups, each
    gathered from every ``P``-th table by slices, without looking at a
    table. A group's ``first`` table is that of its first signed
    permutation onto ``x1..x_size`` itself, and ``inverse`` is the table
    of the inverse permutation.
    """
    count = math.factorial(size) << size
    mask = sum(1 << (size - i) for i in mixed)
    groups = {}
    for p in range(count):
        groups.setdefault((p >> size, p & mask), []).extend(tables[p::count])
    result = []
    for first, *rest in groups.values():
        inverse = list(first)
        for x in range(-size, size + 1):
            inverse[first[x]] = x
        result.append((first, inverse, rest))
    return result


def _relabel(letters, groups):
    """The canonical cyclic words of the cyclically reduced ``letters``,
    of length at least 2, under each letter table of ``groups``
    (:func:`_relabelling_groups`), one at a time: a group's ``first``,
    then its ``rest``.

    A signed map is injective, so ``a != -b`` gives ``s(a) != -s(b)``: the
    image of a cyclically reduced word is cyclically reduced and as long,
    and each needs only its least rotation, no free reduction. Where that
    rotation starts depends only on the order the map induces on the
    letters. So it is found once a group, as the least rotation of
    ``first``'s image, which ``inverse`` maps back to a rotation ``r`` of
    ``letters``; every other table ``t`` of the group gives ``t(r)`` by a
    lookup alone. The lookups are built once a word or rotation; on one
    letter they would return a bare letter, not a tuple, hence the length.
    """
    look = itemgetter(*letters)
    for first, inverse, rest in groups:
        word = least_rotation(look(first))
        yield word
        if rest:
            yield from map(itemgetter(*itemgetter(*word)(inverse)), rest)


def oracle_primitives(rank: int, max_len: int) -> frozenset[CyclicWord]:
    """All primitive cyclic words of length at most ``max_len``.

    Breadth-first closure of the ``2*rank`` length-one classes
    ``x_i^{+-1}`` under the second-kind ``(A, a)`` with ``a`` positive and
    ``1 < |A| < 2*rank - 1`` and under the signed permutations of the
    generators, keeping the words of length at most ``max_len``. The
    Whitehead table is never built.

    The closure is kept as whole orbits of the signed permutations, and
    only one word per orbit is expanded:

    * *Relabelling.* When a second-kind image ``v`` within the bound is
      new, its whole orbit is added, and one word of it joins the next
      level if ``v`` is shorter than ``max_len``. ``v``'s support of
      ``s`` generators is renamed onto ``x1..x_s``, in order and with its
      signs, by the renaming the descent uses (:func:`_rename_support`),
      and each injective signed map ``x1..x_s -> x1..x_rank`` is applied
      as a letter table (:func:`_relabellings`) by :func:`_relabel`: a
      lookup per letter, built once per orbit. A signed map sends a
      cyclically reduced word to a cyclically reduced word of the same
      length, so nothing is reduced, stripped or checked against
      ``max_len``. There are ``2**s * rank! / (rank - s)!`` maps: 8 at
      rank 2 and ``s = 2``, 48 at rank 3 and ``s = 3``. Where an image's
      least rotation starts depends only on the order its map induces on
      the word's letters, which is set by the order of the targets and
      by the signs of the generators that occur with both signs
      (:func:`_relabelling_groups`). So one least rotation per induced
      order, mapped back to a rotation of the word, serves every map
      that induces it: 2 for ``x1 x2`` at any rank, where there are 8
      maps at rank 2 and 224 at rank 8. The tables of a support size,
      and their groups for each set of letters present, are kept for the
      call while there are at most ``ORACLE_NODE_CAP`` tables; otherwise
      they are made one at a time, each its own group. The seeds, the
      orbit of ``x1``, are the ``2*rank`` words of length one.
    * *Expansion.* The renamed word is the one expanded, under the
      ``n * (4**(n - 1) - 2)`` second-kind generators of rank
      ``n = min(s + 1, rank)``: 4 for ``s = 1``, 42 for ``s = 2`` and 248
      for ``s = 3``, whatever the rank. Their image tables come from
      :func:`_second_kind_images`, one table alive at a time, once per
      breadth-first level and support size.

    The closure is every primitive word within the bound:

    * *Skipped second-kind entries.* Writing ``L`` for the set of all
      letters, ``(A, a)`` is conjugation by ``a`` composed with
      ``(L - A, a^-1)``, so the two agree on cyclic words. ``({a}, a)``
      is the identity and ``(L - {a^-1}, a)`` is conjugation by ``a``.
      So every second-kind entry that moves a cyclic word acts on cyclic
      words as a kept generator.
    * *One word per orbit.* Conjugating a kept ``(A, a)`` by a signed
      permutation ``s`` gives ``(sA, sa)``, which is a kept generator or,
      when ``sa`` is negative, acts on cyclic words as the kept
      ``(L - sA, (sa)^-1)``. So for every kept ``g`` there is a kept
      ``g'`` with ``g(s u) = s(g' u)`` on cyclic words, and ``s`` keeps
      lengths: the images within the bound of ``s u`` are relabellings of
      those of ``u``. Expanding ``u`` and adding each new image's orbit
      therefore reaches every image of every word in ``u``'s orbit, and
      the result is the least set that holds the seeds, is closed under
      signed permutations and holds the images within the bound of its
      words shorter than ``max_len``. That set is also the closure under
      the second kind alone, since ``s`` maps that closure to one with the
      same property. Inversion is left out of the group; it is sound
      too, but costs more than it saves.
    * *Generators of the support.* Let ``u`` be an expanded word, whose
      support is exactly ``x1..x_s``, and ``L_n`` the letters of
      ``x1..x_n``. A kept ``(A, a)`` with ``a`` in the support acts on
      ``u`` exactly as ``(A & L_n, a)``, as the letters outside ``L_n``
      do not occur in ``u``. One with ``a`` outside the support, so
      ``s < rank`` and ``n = s + 1``, is conjugated, by the transposition
      ``a <-> x_(s+1)`` that fixes ``u``, into one with multiplier
      ``x_(s+1)``: its image of ``u`` is a relabelling of an image under
      a generator of rank ``n``, which the orbit step adds. The two
      restrictions that :func:`_second_kind_images` skips,
      ``|A & L_n|`` equal to 1 or ``2*n - 1``, act on ``u`` as the
      identity or as a conjugation, as above. So the generators of rank
      ``n`` give the images of ``u`` that those of the rank do, up to
      relabelling.
    * *Words at the bound.* A primitive ``w`` with ``|w| > 1`` is not of
      minimal length in its orbit, so Whitehead's theorem gives a
      second-kind ``(A, a)`` that shortens it, with ``1 < |A| < 2*rank - 1``
      as the others fix cyclic words. Its inverse
      ``(A - {a} + {a^-1}, a^-1)`` has a set of the same size and is a
      kept generator up to the identity above. So ``w`` is the end of a
      strictly lengthening chain from a seed, and every word before ``w``
      in it is shorter than ``w``, hence than ``max_len``: no generator
      needs to be applied to a word at the bound.

    Each second-kind image is canonicalized once, by the kernel, which
    is given ``max_len``: an image whose cyclic reduction is longer is
    never rotated or made a tuple, and comes back as ``None``. Each kept
    word becomes a :class:`CyclicWord` only at the end.

    Intended as an independent ground truth for :func:`is_primitive` at
    small sizes. The work is one kernel call per expanded word and
    generator of its support's rank, plus, per new orbit, a lookup per
    letter for each injective signed map of its support and one least
    rotation per order those maps induce on its letters. A signed
    permutation that fixes a cyclic word is determined by the rotation
    it induces, so an orbit has at least one word per ``max_len``
    relabellings, and for a given ``max_len`` the node cap bounds the
    work at every rank. On the pure kernels (one core of a 2-core Xeon,
    Python 3.11, best of three in process) rank 3 at length 8, 32,338
    words, takes about 0.13 s, rank 4 at length 7, 125,504 words, about
    0.4 s, rank 2 at length 60 about 0.05 s, rank 10 at length 3 about
    0.005 s and rank 40 at length 3, 167,520 words, about 0.8 s.

    Two bounds end the closure with :class:`OracleCapExceeded`:

    * the node cap, as soon as more than ``ORACLE_NODE_CAP`` canonical
      words (``10**6``) are retained, which happens exactly when the
      closure has more than that many words; the seeds count, and the
      check runs after each word of an orbit;
    * the letter budget, as soon as the retained words hold more than
      ``ORACLE_LETTER_BUDGET`` letters (``2**25``, about 33.6 million),
      checked after each orbit, all of whose words have its image's
      length. Kept words cost about 8 bytes a letter, so this holds the
      closure to about 300 MiB. At rank 2, length 345 (144,928 words,
      33.4 million letters) is the longest closure within it.

    ``max_len`` must be an int (``TypeError`` otherwise, bools
    included) of at least 1 (``ValueError`` otherwise).
    """
    check_rank(rank)
    if not isinstance(max_len, int) or isinstance(max_len, bool):
        raise TypeError(f"max_len must be an int, got {max_len!r}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    cap = ORACLE_NODE_CAP
    message = f"oracle closure exceeded {cap} canonical words (rank {rank}, max_len {max_len})"
    # Checked before the seeds are built, so a large rank cannot exhaust memory here.
    if 2 * rank > cap:
        raise OracleCapExceeded(message, cap)
    canonical = apply_images_canonical
    tables, groups = {}, {}

    def relabellings(letters, size):
        # The groups for the letters present, shared by all sets of them
        # with the same generators of both signs. The tables are kept only
        # while there are no more of them than the cap allows words, so they
        # take no more memory than the closure may; otherwise each is made,
        # and is a group, one at a time.
        present = frozenset(letters)
        if present not in groups:
            if math.perm(rank, size) << size > cap:
                return ((table, None, ()) for table in _relabellings(rank, size))
            if size not in tables:
                tables[size] = list(_relabellings(rank, size))
            key = size, tuple(i for i in range(1, size + 1) if i in present and -i in present)
            if key not in groups:
                groups[key] = _relabelling_groups(tables[size], *key)
            groups[present] = groups[key]
        return groups[present]

    # The seeds: the orbit of x1, every word of length one.
    seen = {(sign * i,) for i in range(1, rank + 1) for sign in (1, -1)}
    kept = len(seen)  # letters, summed over the words
    level = {2: [(1,)]} if max_len > 1 else {}

    def add_orbit(image):
        nonlocal kept
        # The renamed form is also the word the next level expands, under
        # the generators of rank min(s + 1, rank) for a support of s.
        renamed, names = _rename_support(image)
        before = len(seen)
        for word in _relabel(renamed, relabellings(renamed, len(names))):
            seen.add(word)
            if len(seen) > cap:
                raise OracleCapExceeded(message, cap)
        # Every word of an orbit is as long as its image.
        kept += (len(seen) - before) * len(renamed)
        if kept > ORACLE_LETTER_BUDGET:
            raise OracleCapExceeded(
                f"oracle closure exceeded ORACLE_LETTER_BUDGET = {ORACLE_LETTER_BUDGET} kept"
                f" letters (rank {rank}, max_len {max_len})", ORACLE_LETTER_BUDGET)
        if len(renamed) < max_len:
            level.setdefault(min(len(names) + 1, rank), []).append(renamed)

    while level:
        frontier, level = level, {}
        for n, words in frontier.items():
            for images in _second_kind_images(n):
                for letters in words:
                    image = canonical(letters, images, max_len)
                    if image is not None and image not in seen:
                        add_orbit(image)
    return frozenset(map(CyclicWord._from_canonical, seen))


def _replay(current, certificate):
    """The cyclic word after each certificate step from ``current``, one at a time.

    A proper power ``u^m`` is replayed on its root ``u``, and each word of
    the trail is the ``m``-th power of ``u``'s: an automorphism maps
    ``u^m`` to ``phi(u)^m``, whose cyclic reduction is that of ``phi(u)``
    to the ``m``-th power, and the least rotation of ``v^m`` is the least
    rotation of ``v`` to the ``m``-th power. So a step builds an image of
    ``|u|`` letters, not ``m`` times as many.
    """
    root, power = _primitive_root(current.letters)
    if power > 1:
        current = CyclicWord._from_canonical(root)
    for auto in certificate:
        current = apply_auto_cyclic(auto, current)
        yield current if power == 1 else CyclicWord._from_canonical(current.letters * power)


def replay_certificate(word: Word | CyclicWord, certificate) -> tuple[CyclicWord, ...]:
    """Trail of cyclic words visited by a certificate, start included."""
    start = word if isinstance(word, CyclicWord) else word.cyclic()
    return (start, *_replay(start, certificate))
