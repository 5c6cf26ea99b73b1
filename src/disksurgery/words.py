"""Words in a finite-rank free group.

A letter is a nonzero int: ``+i`` stands for the generator ``x_i`` and
``-i`` for ``x_i^-1``. A :class:`Word` is an arbitrary finite letter
sequence; construction never reduces, so a word read off a curve keeps
its cancelling pairs until :meth:`Word.reduced` is called. A
:class:`CyclicWord` is the canonical representative of a conjugacy
class: cyclically reduced and stored in the least rotation under the
letter order x1 < x1^-1 < x2 < x2^-1 < ...

The rank of the ambient free group is a context parameter passed to
parsing and validation, not stored on words, so the same value can be
read in any free group whose rank covers its generator indices.

Which constructors check: ``Word(...)`` and ``CyclicWord(...)`` check
every letter (a nonzero int within ``MAX_RANK``; a bool is stored as its
int), and :func:`parse_word` checks each token against the rank. Results
built from checked letters trust them: :func:`parse_word`'s result,
:func:`concat`, ``*``, :meth:`Word.inverse`, :meth:`Word.reduced`,
:meth:`Word.cyclic`, :meth:`CyclicWord.inverse`,
:func:`unoriented_cyclic_class`, and in ``primitivity``
``apply_auto_cyclic`` and the certificate replay, whose image tables
are built from an automorphism whose letters were checked. They wrap results with the private
``Word._from_valid`` and ``CyclicWord._from_canonical``.

Text syntax (CLI and scenario files): whitespace-separated tokens
``x<k>`` and ``x<k>^-1``, where ``k`` is written in ASCII digits; the
empty word is the single token ``1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from ._kernels import canonical_cyclic, free_reduce, least_rotation, letter_key

__all__ = [
    "Word",
    "CyclicWord",
    "WordSyntaxError",
    "parse_word",
    "format_word",
    "concat",
    "abelianize",
    "unoriented_cyclic_class",
]


class WordSyntaxError(ValueError):
    """Malformed word text or out-of-range generator index."""


# Largest accepted rank, so that every letter fits a C long on every
# platform and both kernel backends see the same inputs.
MAX_RANK = 2**31 - 1


def check_rank(rank: int) -> int:
    if not isinstance(rank, int) or not 2 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be an integer from 2 to {MAX_RANK}, got {rank!r}")
    return rank


def check_support(letters, rank: int):
    """Raise ``ValueError`` naming the first of ``letters`` whose generator
    index exceeds ``rank``; a ``max``/``min`` pre-scan passes the rest."""
    if letters and (max(letters) > rank or min(letters) < -rank):
        for a in letters:
            if abs(a) > rank:
                raise ValueError(f"generator index {abs(a)} exceeds rank {rank}")


def format_letter(letter: int) -> str:
    return f"x{letter}" if letter > 0 else f"x{-letter}^-1"


def _validated(letters: Iterable[int]) -> tuple[int, ...]:
    out = tuple(letters)
    for a in out:
        if not isinstance(a, int) or a == 0:
            raise ValueError(f"letters are nonzero ints, got {a!r}")
    if out and (max(out) > MAX_RANK or min(out) < -MAX_RANK):
        raise ValueError(
            f"generator index {max(map(abs, out))} exceeds the largest rank {MAX_RANK}"
        )
    return tuple(map(int, out)) if bool in map(type, out) else out


class _Letters:
    """The sequence protocol and the text forms of :class:`Word` and
    :class:`CyclicWord`, read from their ``letters``."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_word(self)!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Word(_Letters):
    """A finite, possibly unreduced sequence of letters.

    >>> str(Word((1, -2)))
    'x1 x2^-1'
    >>> str(Word((1, -1)).reduced())
    '1'
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _validated(self.letters))

    @classmethod
    def _from_valid(cls, letters: tuple[int, ...]) -> "Word":
        """Wrap a tuple of letters that were already checked.

        Skips validation, so the caller vouches that ``letters`` is a
        tuple of nonzero ints within ``MAX_RANK``.
        """
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    def __mul__(self, other: "Word") -> "Word":
        """Juxtaposition, not reduced."""
        return Word._from_valid(self.letters + other.letters)

    def reduced(self) -> "Word":
        """The unique freely reduced word equal to this one."""
        return Word._from_valid(free_reduce(self.letters))

    def inverse(self) -> "Word":
        """Reverse the sequence and flip every sign."""
        return Word._from_valid(tuple(-a for a in reversed(self.letters)))

    def cyclic(self) -> "CyclicWord":
        """Canonical cyclic form of this word's conjugacy class."""
        return CyclicWord._from_canonical(canonical_cyclic(self.letters))


@dataclass(frozen=True, slots=True, repr=False)
class CyclicWord(_Letters):
    """Canonical cyclic form: cyclically reduced, least rotation.

    Construction canonicalizes, so any representative of the conjugacy
    class yields the same value:

    >>> CyclicWord((1, 2, -1)) == CyclicWord((2,))
    True
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", canonical_cyclic(_validated(self.letters)))

    @classmethod
    def _from_canonical(cls, letters: tuple[int, ...]) -> "CyclicWord":
        """Wrap a tuple that a kernel already put in canonical form.

        Skips validation, reduction and rotation, so the caller vouches
        that ``letters`` is exactly what construction would store.
        """
        cyclic = object.__new__(cls)
        _set_letters(cyclic, letters)
        return cyclic

    def __hash__(self) -> int:
        # CPython hashes -1 and -2 alike, so a tuple's hash cannot tell x1^-1
        # from x2^-1: every word over those two letters of one length would
        # share one hash. Their count of x1^-1 tells them apart.
        return hash(self.letters) + self.letters.count(-1)

    def inverse(self) -> "CyclicWord":
        """Canonical form of the inverse class.

        The inverse of a cyclically reduced word is cyclically reduced,
        so only its rotation changes.
        """
        return CyclicWord._from_canonical(least_rotation([-a for a in reversed(self.letters)]))


# The slot's own setter: the frozen class's __setattr__ refuses, and going
# through object.__setattr__ looks the slot up again on every wrap.
_set_letters = CyclicWord.letters.__set__

_TOKEN = re.compile(r"^x([0-9]+)(\^-1)?$")
# An index of more digits than MAX_RANK exceeds every rank; ``int`` refuses
# strings of more than 4,300 digits, so such an index is never converted.
_INDEX_DIGITS = len(str(MAX_RANK))


def _index(digits: str) -> int:
    """The generator index a token's ``digits`` name, or ``MAX_RANK + 1``
    when it has more digits than ``MAX_RANK``."""
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= _INDEX_DIGITS else MAX_RANK + 1


def parse_word(text: str, rank: int) -> Word:
    """Parse word text at the given rank.

    Errors carry the 1-based token position:

    >>> parse_word("x3 x1", 2)
    Traceback (most recent call last):
        ...
    disksurgery.words.WordSyntaxError: token 1: generator index 3 exceeds rank 2
    """
    check_rank(rank)
    tokens = text.split()
    if not tokens:
        raise WordSyntaxError("empty input: the empty word is written '1'")
    if tokens == ["1"]:
        return Word._from_valid(())
    letters = []
    for pos, tok in enumerate(tokens, start=1):
        m = _TOKEN.match(tok)
        if m is None:
            raise WordSyntaxError(
                f"token {pos}: {tok!r} is not of the form 'x<k>' or 'x<k>^-1'"
            )
        index = _index(m.group(1))
        if index == 0:
            raise WordSyntaxError(f"token {pos}: generator index must be at least 1")
        if index > rank:
            raise WordSyntaxError(
                f"token {pos}: generator index {m.group(1).lstrip('0')} exceeds rank {rank}"
            )
        letters.append(index if m.group(2) is None else -index)
    return Word._from_valid(tuple(letters))


class _Tokens(dict):
    """Letter -> ``format_letter`` text, kept for the first letters seen.

    Reports format every letter of every outcome, from a few generators.
    Letters are kept until the table holds ``_TOKENS_BOUND`` of them;
    later ones are formatted on each use. A bool letter shares the key of
    the int it equals, so it is formatted as that int.
    """

    __slots__ = ()

    def __missing__(self, letter):
        if isinstance(letter, bool):
            letter = int(letter)
        text = format_letter(letter)
        if type(letter) is int and len(self) < _TOKENS_BOUND:
            self[letter] = text
        return text


_TOKENS_BOUND = 1024
_TOKENS = _Tokens()


def format_word(word: Word | CyclicWord | Iterable[int]) -> str:
    letters = tuple(word.letters if hasattr(word, "letters") else word)
    if not letters:
        return "1"
    return " ".join(map(_TOKENS.__getitem__, letters))


def concat(*words: Word) -> Word:
    """Juxtapose words left to right without reducing."""
    return Word._from_valid(tuple(chain.from_iterable(w.letters for w in words)))


def abelianize(word: Word | CyclicWord, rank: int) -> tuple[int, ...]:
    """Exponent-sum vector of length ``rank``; a conjugacy invariant."""
    check_rank(rank)
    check_support(word.letters, rank)
    sums = [0] * rank
    for a in word.letters:
        sums[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(sums)


def unoriented_cyclic_class(word: Word | CyclicWord) -> CyclicWord:
    """Canonical form of a word's conjugacy class, up to inversion.

    This is the identity notion for surgered disk boundaries: a boundary
    curve has no preferred orientation, so words differing by rotation
    and/or inversion name the same outcome. A :class:`CyclicWord` is used
    as it is. Of the class and its inverse, the one with the smaller
    letter at the first position where they differ is returned, the class
    itself when they are equal.
    """
    forward = word if isinstance(word, CyclicWord) else word.cyclic()
    backward = forward.inverse()
    for a, b in zip(forward.letters, backward.letters):
        if a != b:
            return forward if letter_key(a) < letter_key(b) else backward
    return forward
