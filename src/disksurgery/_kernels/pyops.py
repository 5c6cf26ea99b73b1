"""Pure-Python word kernels.

The reference implementation, and the fallback when the compiled core is
unavailable; the two backends give the same results and exception types
(the test suite cross-checks them).

Letters are nonzero ints: ``+i`` is the generator ``x_i``, ``-i`` its
inverse. The canonical letter order is x1 < x1^-1 < x2 < x2^-1 < ...,
realized by :func:`letter_key`.
"""

BACKEND = "pure"


def letter_key(letter):
    """Position of a letter in the canonical total order."""
    if letter > 0:
        return 2 * (letter - 1)
    return 2 * (-letter - 1) + 1


def free_reduce(letters):
    """Freely reduced form of a letter sequence, as a tuple."""
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def cyclic_reduce(letters):
    """Cyclically reduced form: freely reduce, then strip cancelling ends."""
    w = free_reduce(letters)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def least_rotation(letters):
    """Lexicographically least rotation under the canonical letter order.

    Two-pointer scan, linear time even on periodic words: candidates
    ``i`` and ``j`` are compared ``k`` letters deep, and the loser moves
    past the ``k + 1`` starts that cannot beat the winner.
    """
    w = tuple(letters)
    n = len(w)
    if n <= 1:
        return w
    keys = [letter_key(a) for a in w]
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
    best = min(i, j)
    return w[best:] + w[:best]


def canonical_cyclic(letters):
    """Canonical representative of the conjugacy class of a letter sequence."""
    return least_rotation(cyclic_reduce(letters))


def apply_images(letters, flat, offsets):
    """Substitute each letter by its image and freely reduce.

    The image of a letter ``l`` is ``flat[offsets[k]:offsets[k+1]]`` with
    ``k = letter_key(l)``; ``flat``/``offsets`` are flat int sequences so
    both backends share one automorphism encoding. A letter the table does
    not cover (``0``, or one whose ``letter_key(l) + 1`` is past the end of
    ``offsets``) raises ``ValueError``, as in the compiled backend.
    """
    if 0 in letters:
        raise ValueError("letter 0 has no image")
    out = []
    try:
        for a in letters:
            k = letter_key(a)
            for j in range(offsets[k], offsets[k + 1]):
                b = flat[j]
                if out and out[-1] == -b:
                    out.pop()
                else:
                    out.append(b)
    except IndexError:
        raise ValueError("a letter has no image in the table") from None
    return tuple(out)


def apply_images_canonical(letters, flat, offsets):
    """Image of a conjugacy class: substitute, then canonical cyclic form."""
    return least_rotation(cyclic_reduce(apply_images(letters, flat, offsets)))
