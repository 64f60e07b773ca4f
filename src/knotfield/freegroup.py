"""Words and endomorphisms of finitely generated free groups.

Words are stored in syllable form: a tuple of (generator index, exponent)
pairs with 1-based generator indices, nonzero exponents, and no two adjacent
syllables on the same generator.  Construction always normalizes, so equal
group elements compare equal structurally.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._record import record
from .errors import IndexOutOfRange

Syllable = tuple[int, int]


def _normalize(rank: int, syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[list[int]] = []
    for gen, exp in syllables:
        if not 1 <= gen <= rank:
            raise IndexOutOfRange(f"generator x{gen} does not exist at rank {rank}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


@record
class FreeWord:
    """A freely reduced word in the free group of the given rank."""

    rank: int
    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        object.__setattr__(self, "syllables", _normalize(self.rank, self.syllables))

    @staticmethod
    def identity(rank: int) -> "FreeWord":
        return FreeWord(rank, ())

    @staticmethod
    def generator(index: int, rank: int, exponent: int = 1) -> "FreeWord":
        return FreeWord(rank, ((index, exponent),))

    @staticmethod
    def from_letters(rank: int, letters: Sequence[int]) -> "FreeWord":
        """Build from signed letters, e.g. [1, -2, 1] for x1 x2^-1 x1."""
        return FreeWord(rank, tuple((abs(k), 1 if k > 0 else -1) for k in letters))

    def letters(self) -> list[int]:
        out: list[int] = []
        for gen, exp in self.syllables:
            out.extend([gen if exp > 0 else -gen] * abs(exp))
        return out

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("cannot multiply words of different ranks")
        return FreeWord(self.rank, self.syllables + other.syllables)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "FreeWord":
        base = self if n > 0 else self.inverse()
        return FreeWord(self.rank, base.syllables * abs(n))

    def exponent_sums(self) -> tuple[int, ...]:
        """Abelianized image: total exponent of each generator."""
        sums = [0] * self.rank
        for gen, exp in self.syllables:
            sums[gen - 1] += exp
        return tuple(sums)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in self.syllables)


@record
class FreeAutomorphism:
    """An endomorphism given by the images of the generators.

    Instances produced by the braid machinery are genuine automorphisms; the
    class itself does not verify invertibility.
    """

    rank: int
    images: tuple[FreeWord, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.rank:
            raise ValueError(f"expected {self.rank} generator images, got {len(self.images)}")
        for img in self.images:
            if img.rank != self.rank:
                raise ValueError("image rank mismatch")

    def apply(self, word: FreeWord) -> FreeWord:
        """Substitute generator images into ``word`` and reduce."""
        if word.rank != self.rank:
            raise ValueError("word rank mismatch")
        parts: list[Syllable] = []
        for gen, exp in word.syllables:
            img = self.images[gen - 1] if exp > 0 else self.images[gen - 1].inverse()
            for _ in range(abs(exp)):
                parts.extend(img.syllables)
        return FreeWord(self.rank, tuple(parts))
