"""Words over a fixed free basis, reduction, and canonical conjugacy classes.

A letter is a nonzero integer: ``i`` is the i-th generator, ``-i`` its
inverse.  Text form uses lowercase a..z for generators and the matching
uppercase letter for the inverse, so parseable rank is capped at 26.
The total letter order used everywhere for canonical forms and stable
output is a < A < b < B < ... (generator before its inverse, then by
index); see :func:`letter_key`.

All values are immutable and all operations are pure functions, so they
are safe to share between threads.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_PARSE_RANK = len(string.ascii_lowercase)


class WordSyntaxError(ValueError):
    """Input text is not a well-formed word."""


class RankError(ValueError):
    """A rank below 2, a letter index beyond the rank, or two ranks that disagree."""


class TrivialWordError(ValueError):
    """The identity has no cyclically reduced representative."""


def letter_key(letter: int) -> int:
    """Sort key realizing the total order a < A < b < B < ..."""
    return 2 * abs(letter) + (0 if letter > 0 else 1)


def _letter_keys(letters: tuple[int, ...]) -> list[int]:
    """``letter_key`` of each letter, with one call per distinct letter."""
    key_of = {v: letter_key(v) for v in set(letters)}
    return list(map(key_of.__getitem__, letters))


class _LetterChars(dict):
    """Letter -> its character; a letter with no character form raises
    ``RankError``."""

    def __missing__(self, letter: int) -> str:
        raise RankError(f"letter index {abs(letter)} has no character form (max {MAX_PARSE_RANK})")


# The one letter table, read both ways: writers look each letter up here,
# and ``parse_letters`` reads text through its inverse.  Read only.
LETTER_CHARS = _LetterChars(
    {v: c if v > 0 else c.upper() for i, c in enumerate(string.ascii_lowercase, 1) for v in (i, -i)}
)
_CHAR_LETTERS = {c: v for v, c in LETTER_CHARS.items()}


def parse_letters(text: str) -> tuple[int, ...]:
    """The letters ``text`` spells, one per character: the one reader of
    letters from text."""
    try:
        return tuple(map(_CHAR_LETTERS.__getitem__, text))
    except KeyError as exc:
        raise WordSyntaxError(f"invalid letter {exc.args[0]!r}") from None


def _valid_rank(rank: int) -> int:
    """``rank``, which must be at least 2: the one rank rule.  Every word,
    graph and map lives over a free basis of rank n >= 2."""
    if rank < 2:
        raise RankError(f"rank must be at least 2, got {rank}")
    return rank


def _same_rank(rank: int, other: int) -> int:
    """``rank``, which ``other`` must equal; ``class_rank`` checks many values."""
    if other != rank:
        raise RankError(f"mixed ranks {rank} and {other}")
    return rank


def _check_letters(letters: Iterable[int], rank: int) -> None:
    _valid_rank(rank)
    for v in letters:
        if type(v) is not int or v == 0 or abs(v) > rank:  # True and 1.0 are not letters
            reason = f"has type {type(v).__name__}, not int" if type(v) is not int else f"out of range for rank {rank}"
            raise RankError(f"letter {v!r} {reason}")


def _unchecked(cls, letters: tuple[int, ...], rank: int):
    """A ``cls`` value built without the letter checks, for letters that
    come from a checked value of the same rank."""
    value = object.__new__(cls)
    object.__setattr__(value, "letters", letters)
    object.__setattr__(value, "rank", rank)
    return value


@dataclass(frozen=True)
class Word:
    """A word over the rank-``rank`` alphabet, not necessarily reduced.

    >>> str(Word((1, 2, -1), 2))
    'abA'
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        _check_letters(self.letters, self.rank)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(map(LETTER_CHARS.__getitem__, self.letters))


@dataclass(frozen=True)
class CyclicWord:
    """A nonempty cyclically reduced word, read around a circle.

    Equality is positional; use :func:`canonical_rotation` to compare
    conjugacy classes.
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        _check_letters(self.letters, self.rank)
        if not self.letters:
            raise TrivialWordError("cyclic words are nonempty")
        k = len(self.letters)
        for i in range(k):
            if self.letters[(i + 1) % k] == -self.letters[i]:
                raise ValueError(f"not cyclically reduced at position {i}: {self.letters}")

    @classmethod
    def _rotation(cls, c: "CyclicWord", start: int) -> "CyclicWord":
        """``c`` read from position ``start``, without the checks: every
        rotation of a checked cyclic word is in range and cyclically reduced."""
        return _unchecked(cls, c.letters[start:] + c.letters[:start], c.rank)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(map(LETTER_CHARS.__getitem__, self.letters))


def parse_word(text: str, rank: int) -> Word:
    """Parse ``text`` into the unreduced word it spells.

    >>> parse_word("abA", 2).letters
    (1, 2, -1)
    """
    return Word(parse_letters(text), rank)


def is_reduced(w: Word) -> bool:
    return all(w.letters[i + 1] != -w.letters[i] for i in range(len(w.letters) - 1))


def free_reduce(w: Word) -> Word:
    """The unique reduced word equal to ``w`` in the free group.

    >>> str(free_reduce(parse_word("abBA", 2)))
    ''

    The result is built without the letter checks: its letters are
    letters of ``w``, which were checked when ``w`` was built.
    """
    out: list[int] = []
    for v in w.letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return _unchecked(Word, tuple(out), w.rank)


def invert(w: Word) -> Word:
    return Word(tuple(-v for v in reversed(w.letters)), w.rank)


def concat(*ws: Word) -> Word:
    """Concatenation without reduction; ranks must agree."""
    if not ws:
        raise ValueError("concat needs at least one word")
    return Word(tuple(v for w in ws for v in w.letters), class_rank(ws))


def product(*ws: Word) -> Word:
    """Reduced product of the given words."""
    return free_reduce(concat(*ws))


def conjugate(w: Word, by: Word) -> Word:
    """Reduced form of ``by . w . by^-1``."""
    return product(by, w, invert(by))


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split ``w`` as ``conjugator . c . conjugator^-1`` with ``c`` cyclically reduced.

    Raises :class:`TrivialWordError` when ``w`` reduces to the identity.
    Both parts are built without the checks: their letters are letters of
    ``w``, and trimming a reduced word until its ends are not inverse
    leaves it nonempty and cyclically reduced.
    """
    r = free_reduce(w)
    if not r.letters:
        raise TrivialWordError("the trivial element has no cyclic word")
    letters = r.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return _unchecked(CyclicWord, letters[i:j], w.rank), _unchecked(Word, letters[:i], w.rank)


def canonical_rotation(c: CyclicWord) -> CyclicWord:
    """The lexicographically least rotation under the letter order.

    Two cyclic words represent the same conjugacy class exactly when
    their canonical rotations are identical sequences.

    O(L) in the length L: see :func:`_least_rotation`.

    >>> str(canonical_rotation(CyclicWord(parse_letters("bA"), 2)))
    'Ab'
    """
    return _least_rotation(c)[0]


def _least_rotation(c: CyclicWord) -> tuple[CyclicWord, list[int]]:
    """The least rotation of ``c`` and its ``letter_key`` list, built once
    for both the rotation and the sort in ``normalize_classes``.

    Duval's Lyndon factorization (J. Algorithms 4, 1983) run over the
    doubled key sequence: the least rotation starts at the last Lyndon
    factor that begins in the first copy.  ``c`` itself is returned when
    it is already least.
    """
    ls = c.letters
    k = len(ls)
    keys = _letter_keys(ls)
    keys += keys
    n = 2 * k
    i = best = 0
    while i < k:
        best = i
        # Extend the run of equal Lyndon words that starts at i: keys[p]
        # is the key that repeating the current factor predicts at j.
        j, p = i + 1, i
        while j < n and keys[p] <= keys[j]:
            p = i if keys[p] < keys[j] else p + 1
            j += 1
        while i <= p:
            i += j - p
    if best == 0:
        return c, keys[:k]
    return CyclicWord._rotation(c, best), keys[best : best + k]


def conjugacy_class(w: Word) -> CyclicWord:
    """Canonical representative of the conjugacy class of ``w``."""
    return canonical_rotation(cyclic_reduce(w)[0])


def class_rank(classes: Iterable, rank: int | None = None) -> int:
    """The one rank of ``classes``, or of any values with a ``.rank``,
    which must equal ``rank`` when given."""
    for c in classes:
        rank = c.rank if rank is None else _same_rank(rank, c.rank)
    if rank is None:
        raise ValueError("empty class set needs an explicit rank")
    return rank


def normalize_classes(words: Iterable[CyclicWord]) -> tuple[CyclicWord, ...]:
    """Canonical, sorted, duplicate-free tuple of conjugacy classes of one rank."""
    words = list(words)
    if words:
        class_rank(words)
    ranked = {}
    for c in words:
        cc, keys = _least_rotation(c)
        ranked[cc.letters] = (len(keys), keys), cc
    return tuple(cc for _, cc in sorted(ranked.values(), key=lambda kc: kc[0]))



def _text_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(lineno, keyword, fields)`` for each line of a text format that is
    not blank or a ``#`` comment, numbered from 1 and split into words."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, parts[0], parts[1:]


def _bad_line(what: str, text: str, lineno: int, exc: ValueError) -> ValueError:
    """``exc`` as ``bad <what> line N: '<line>': <reason>``, of its own class."""
    return type(exc)(f"bad {what} line {lineno}: {text.splitlines()[lineno - 1]!r}: {exc}")


def _once(seen: set[str], key: str) -> None:
    """Note a line giving ``key``; a second one would let a file contradict itself."""
    if key in seen:
        raise ValueError(f"repeats an earlier {key!r} line")
    seen.add(key)


def _int(field: str) -> int:
    """An integer as the writers write it: an optional ``-`` and ASCII digits
    (``int`` also takes ``1_0``, ``+1`` and digits of other scripts)."""
    digits = field[1:] if field.startswith("-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int: {field!r}")
    return int(field)
