"""The Artin action of braids on free groups and link-group presentations.

The generator s_i acts by x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i, fixing
the other generators; its inverse sends x_i -> x_{i+1} and
x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}.  Words of automorphisms compose with the
first braid letter acting first, matching the permutation convention in
:mod:`knotfield.braid`, so that the relator set of a braid closure is
reproducible down to the syllable.

The fundamental group of the closure of a braid b on n strands is presented
by generators x_1..x_n and relators x_i^-1 * (image of x_i under the action
of b), with trivial relators dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord
from .errors import IndexOutOfRange
from .freegroup import FreeAutomorphism, FreeWord
from .smith import smith_invariants


def artin_generator(index: int, sign: int, strands: int) -> FreeAutomorphism:
    """The automorphism of the rank-``strands`` free group attached to
    s_index (sign=+1) or its inverse (sign=-1)."""
    if not 1 <= index <= strands - 1:
        raise IndexOutOfRange(f"generator index {index} outside 1..{strands - 1}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = strands
    images = [FreeWord.generator(i, n) for i in range(1, n + 1)]
    i = index
    if sign == 1:
        images[i - 1] = FreeWord(n, ((i, 1), (i + 1, 1), (i, -1)))
        images[i] = FreeWord.generator(i, n)
    else:
        images[i - 1] = FreeWord.generator(i + 1, n)
        images[i] = FreeWord(n, ((i + 1, -1), (i, 1), (i + 1, 1)))
    return FreeAutomorphism(n, tuple(images))


def artin_rep(word: BraidWord) -> FreeAutomorphism:
    """Image of a braid word under the Artin representation."""
    auto = FreeAutomorphism.identity(word.strands)
    for k in word.letters:
        auto = auto.then(artin_generator(abs(k), 1 if k > 0 else -1, word.strands))
    return auto


@dataclass(frozen=True)
class GroupPresentation:
    """A finite presentation: generator count plus freely reduced relators."""

    generator_count: int
    relators: tuple[FreeWord, ...]

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(self.relators))
        for r in self.relators:
            if r.rank != self.generator_count:
                raise ValueError("relator rank does not match generator count")

    def __str__(self) -> str:
        gens = ", ".join(f"x{i}" for i in range(1, self.generator_count + 1))
        if not self.relators:
            return f"⟨{gens} |⟩"
        rels = ", ".join(str(r) for r in self.relators)
        return f"⟨{gens} | {rels}⟩"


def link_group_presentation(word: BraidWord) -> GroupPresentation:
    """Presentation of the fundamental group of the closure of ``word``."""
    auto = artin_rep(word)
    n = word.strands
    relators = []
    for i in range(1, n + 1):
        rel = FreeWord.generator(i, n, -1) * auto.images[i - 1]
        if not rel.is_identity():
            relators.append(rel)
    return GroupPresentation(n, tuple(relators))


def abelianization(presentation: GroupPresentation) -> tuple[int, list[int]]:
    """First homology of the presented group.

    Returns (free rank, torsion coefficients), the torsion entries each >1
    and each dividing the next.
    """
    n = presentation.generator_count
    matrix = [list(r.exponent_sums()) for r in presentation.relators]
    diag = smith_invariants(matrix)
    free_rank = n - len(diag)
    torsion = [d for d in diag if d > 1]
    return free_rank, torsion
