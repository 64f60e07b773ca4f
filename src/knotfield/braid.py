"""Braid words: parsing, free reduction, Markov conjugation, closure data.

A braid on ``n`` strands is a word in the generators s1..s(n-1); we store it
as a sequence of nonzero integers where ``k`` means s_k and ``-k`` means the
inverse of s_k.  All values are immutable and every operation is a pure
function, so braids can be shared freely across threads.

Convention used throughout the package: the first letter of a word acts
first.  The underlying permutation of a word is therefore the left-to-right
composite of the transpositions (i, i+1).  Every braid action in the package
is computed by one walk from the last letter back, updating the entries at
positions i, i+1 for the letter s_i: here the strand numbers, in
:mod:`knotfield.artin` the Artin images of the generators, and in
:mod:`knotfield.report` tuples of group elements.
"""

from __future__ import annotations

import re

from ._record import record
from .errors import BudgetExceeded, GeneratorOutOfRange, MalformedToken, StrandMismatch, integer
from .freegroup import FreeWord

_ALIAS = re.compile(r"s([0-9]+)(?:\^(-?[0-9]+))?")

# no braid word is built longer or on more strands than this, so a short
# text cannot ask for gigabytes of letters or strand positions
MAX_LETTERS = 10**6
MAX_STRANDS = 10**6


def check_length(count: int) -> None:
    """Refuse a braid word of ``count`` letters before it is built."""
    if count > MAX_LETTERS:
        raise BudgetExceeded(f"braid word of {count} letters exceeds the limit of {MAX_LETTERS}")


@record
class BraidWord:
    """A word in braid generators together with its strand count."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        if self.strands > MAX_STRANDS:
            raise BudgetExceeded(f"braid on {self.strands} strands exceeds the limit of {MAX_STRANDS}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for k in self.letters:
            if k == 0 or abs(k) >= self.strands:
                raise GeneratorOutOfRange(
                    f"letter {k} is not a generator of the braid group on {self.strands} strands"
                )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise StrandMismatch(f"cannot concatenate braids on {self.strands} and {other.strands} strands")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in reversed(self.letters)))

    def __str__(self) -> str:
        return " ".join(str(k) for k in self.letters) if self.letters else "<empty>"


@record
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"{self.images} is not a bijection of 1..{len(self.images)}")

    def cycle_count(self) -> int:
        seen = [False] * len(self.images)
        count = 0
        for start in range(len(self.images)):
            if seen[start]:
                continue
            count += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i] - 1
        return count


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace/comma separated letters, either signed integers or
    ``sK`` / ``sK^e`` aliases.  Letters are kept in order, unreduced.  An
    alias that would take the word past MAX_LETTERS raises BudgetExceeded."""
    letters = []
    for token in text.replace(",", " ").split():
        m = _ALIAS.fullmatch(token)
        if m:
            try:
                index = int(m.group(1))
                power = int(m.group(2)) if m.group(2) is not None else 1
            except ValueError:  # past the interpreter's digit limit
                raise MalformedToken(f"cannot read braid letter {token!r}") from None
            if index == 0:
                raise GeneratorOutOfRange("generator index 0 does not exist")
            if power == 0:
                continue
            check_length(len(letters) + abs(power))
            sign = 1 if power > 0 else -1
            letters.extend([sign * index] * abs(power))
            continue
        try:
            k = integer(token)
        except ValueError:
            raise MalformedToken(f"cannot read braid letter {token!r}") from None
        letters.append(k)
    return BraidWord(strands, tuple(letters))


def free_reduce(word: BraidWord) -> BraidWord:
    """Delete adjacent inverse pairs until none remain."""
    return BraidWord(word.strands, tuple(FreeWord.from_letters(word.strands - 1, word.letters).letters()))


def markov_conjugate(word: BraidWord, conjugator: BraidWord) -> BraidWord:
    """Markov move of the first kind: ``word`` becomes a * word * a^-1, reduced."""
    if word.strands != conjugator.strands:
        raise StrandMismatch(
            f"conjugator on {conjugator.strands} strands does not act on {word.strands}-strand braids"
        )
    return free_reduce(conjugator * word * conjugator.inverse())


def stabilize(word: BraidWord, sign: int = 1) -> BraidWord:
    """Markov move of the second kind: append s_n^(+-1), landing in the next
    braid group.  No invariant of this package is claimed to survive it."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return BraidWord(word.strands + 1, word.letters + (sign * word.strands,))


def underlying_permutation(word: BraidWord) -> Permutation:
    """Project to the symmetric group, first letter acting first: the
    letters are read last to first, each swapping positions i and i+1."""
    images = list(range(1, word.strands + 1))
    for k in reversed(word.letters):
        i = abs(k)
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def closure_components(word: BraidWord) -> int:
    """Number of components of the closed-up braid; 1 means the closure is a knot."""
    return underlying_permutation(word).cycle_count()
