"""Pure-Python word kernels.

The reference implementation, and the fallback when the compiled core is
unavailable; the two backends give the same results and exception types
(the test suite cross-checks them). The kernel set:

* :func:`free_reduce`, :func:`cyclic_reduce` and :func:`canonical_cyclic`;
* :func:`least_rotation`, the rotation alone, for words already
  cyclically reduced;
* :func:`apply_images`, substitution by an image table (one image per
  letter slot, in :func:`letter_key` order, as ``primitivity`` builds for
  a Whitehead automorphism where it applies one),
  and :func:`apply_images_canonical`, the same followed by the canonical
  cyclic form, or ``None`` when the cyclic reduction is longer than an
  optional ``max_len``.

Letters are nonzero ints: ``+i`` is the generator ``x_i``, ``-i`` its
inverse. The canonical letter order is x1 < x1^-1 < x2 < x2^-1 < ...,
realized by :func:`letter_key`.

The least rotation has two paths. :func:`_least_start` is a two-pointer
scan, one Python step per letter, and takes every word. Words of at
least ``_BYTE_MIN`` (48) letters try :func:`_byte_start` first: the
letters become one key byte each, in C, and the rotation must begin at
a start of a longest run of the least key, found by byte searches. It
returns ``None``, and the scan runs, for a letter outside -128..127 or
when more than ``_RUN_CANDIDATES`` (8) such starts remain. Both give the
first start of a least rotation, and the rotation is sliced from the
input, so its letters are the input's own objects on either path.
"""

from struct import error as _StructError, pack as _pack

BACKEND = "pure"


def letter_key(letter):
    """Position of a letter in the canonical total order."""
    if letter > 0:
        return 2 * (letter - 1)
    return 2 * (-letter - 1) + 1


def free_reduce(letters, /):
    """Freely reduced form of a letter sequence, as a tuple."""
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def cyclic_reduce(letters, /):
    """Cyclically reduced form: freely reduce, then strip cancelling ends."""
    w = free_reduce(letters)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def _least_start(w):
    """Start of the least rotation of the list ``w``.

    Two-pointer scan, linear time even on periodic words: candidates
    ``i`` and ``j`` are compared ``k`` letters deep, and the loser moves
    past the ``k + 1`` starts that cannot beat the winner.
    """
    n = len(w)
    # letter_key of each letter, inlined, twice over.
    keys = [a + a - 2 if a > 0 else -a - a - 1 for a in w]
    keys += keys
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = keys[i + k], keys[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


# The byte path below takes words of at least this many letters. On
# closure's outcome words it beats the scan from about 16 letters on
# (2.2x at 48-55 letters, 3x at 96-127, 6x from 256; 2.0x at 48 on
# random rank-2 words). On the oracle's rank-2 words, whose runs come in
# two lengths and often tie, it is slower below 24 letters and about even
# up to 36, their longest; 48 keeps them all on the scan.
_BYTE_MIN = 48
# The most starts of longest runs that the byte path compares; past it
# the scan runs, so no word costs more than this many n-byte compares.
_RUN_CANDIDATES = 8

# One byte per letter, in letter_key order: the letter a, packed as the
# unsigned byte a % 256, becomes letter_key(a) + 1, so 0 (below x1 in the
# scan) is byte 0, x_i is 2i - 1 and x_i^-1 is 2i. Letter -128, the one
# key that does not fit, becomes 255, which no other letter uses.
_KEYS = bytes([0, *range(1, 255, 2), 255, *range(254, 0, -2)])
_KEY_BYTES = [bytes((key,)) for key in range(256)]


def _byte_start(w):
    """Start of the least rotation of the nonempty ``w`` by byte searches,
    or ``None``.

    Every least rotation begins at a longest cyclic run c^m of the least
    key c, since c^m beats every c^j with j < m. The keys are one byte a
    letter, packed and translated in C; c is the first key present, m is
    found by galloping and bisecting ``c^k in s + s``, the run starts by
    ``find``, and the least of at most ``_RUN_CANDIDATES`` of them by
    comparing byte slices. Ties go to the first start, as in the scan.
    Returns ``None`` for a letter that is not an int from -128 to 127,
    and when more starts remain; the scan takes those words.
    """
    n = len(w)
    try:
        s = _pack(f"{n}b", *w).translate(_KEYS)
    except _StructError:
        return None
    for c in _KEY_BYTES:
        if c in s:
            break
    ss = s + s
    m, step = 1, 1
    while m + step <= n and c * (m + step) in ss:
        m += step
        step += step
    while step > 1:
        step >>= 1
        if m + step <= n and c * (m + step) in ss:
            m += step
    run = c * m
    # Only runs that start before n, so end by n + m - 1.
    starts = []
    i = ss.find(run, 0, n + m - 1)
    while i >= 0:
        if len(starts) == _RUN_CANDIDATES:
            return None
        starts.append(i)
        i = ss.find(run, i + m, n + m - 1)
    if len(starts) == 1:
        return starts[0]
    keys = [ss[i:i + n] for i in starts]
    return starts[keys.index(min(keys))]


def least_rotation(letters, /):
    """Lexicographically least rotation under the canonical letter order."""
    w = tuple(letters)
    best = _byte_start(w) if len(w) >= _BYTE_MIN else None
    if best is None:
        best = _least_start(w)
    return w[best:] + w[:best]


def canonical_cyclic(letters, /):
    """Canonical representative of the conjugacy class of a letter sequence."""
    return least_rotation(cyclic_reduce(letters))


_BOTTOM = object()  # under every reduction stack: equal to no letter


def _substitute(letters, images):
    """Substitute each letter by its image and freely reduce, onto a stack.

    Returns the list ``[_BOTTOM, *reduced]``. The image of ``a`` is
    ``images[letter_key(a)]``.
    """
    if 0 in letters:
        raise ValueError("letter 0 has no image")
    out = [_BOTTOM]
    push, pop = out.append, out.pop
    try:
        for a in letters:
            # letter_key(a), inlined; past the last slot is an IndexError.
            for b in images[a + a - 2 if a > 0 else -a - a - 1]:
                if out[-1] == -b:
                    pop()
                else:
                    push(b)
    except IndexError:
        raise ValueError("a letter has no image in the table") from None
    return out


def apply_images(letters, images, /):
    """Substitute each letter by its image and freely reduce.

    ``images`` holds one image per letter slot, a sequence of letters,
    in :func:`letter_key` order: the image of ``l`` is
    ``images[letter_key(l)]``. A letter the table does not cover (``0``,
    or one whose ``letter_key`` is past the end of ``images``) raises
    ``ValueError``, and a table or image that is not a sequence
    ``TypeError``, as in the compiled backend.
    """
    return tuple(_substitute(letters, images)[1:])


def apply_images_canonical(letters, images, max_len=None, /):
    """Image of a conjugacy class: substitute, then canonical cyclic form.

    Returns ``None`` instead when the cyclic reduction is longer than
    ``max_len``, without rotating it; ``max_len`` is ``None`` (no bound)
    or an int from 0 up.
    """
    if max_len is not None:
        if not isinstance(max_len, int):
            raise TypeError(f"max_len must be an int or None, got {max_len!r}")
        if max_len < 0:
            raise ValueError(f"max_len must be >= 0, got {max_len}")
    out = _substitute(letters, images)
    lo, hi = 1, len(out)
    while hi - lo >= 2 and out[lo] == -out[hi - 1]:
        lo += 1
        hi -= 1
    if max_len is not None and hi - lo > max_len:
        return None
    w = out[lo:hi]
    best = _byte_start(w) if hi - lo >= _BYTE_MIN else None
    if best is None:
        best = _least_start(w)
    return tuple(w[best:] + w[:best])
