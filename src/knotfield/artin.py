"""The Artin action of braids on free groups and link-group presentations.

The generator s_i acts by x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i, fixing
the other generators; its inverse sends x_i -> x_{i+1} and
x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}.  The first braid letter acts first, as
in the permutation convention of :mod:`knotfield.braid`.  So the images of
x_1..x_n under a braid are built by one walk from its last letter back:
starting from (x_1..x_n), the letter s_i sends the images (p, q) at
positions i, i + 1 to (p q p^-1, p), and s_i^-1 sends them to
(q, q^-1 p q).  After each letter the walk holds the images under the
braid's suffix from that letter on (the Hurwitz action on the image tuple).

The fundamental group of the closure of a braid b on n strands is presented
by generators x_1..x_n and relators x_i^-1 * (image of x_i under the action
of b), with trivial relators dropped.  Their length can grow exponentially
with the braid, so the presentation walks the freely reduced braid (free
reduction keeps the automorphism), and the walk is refused with
``BudgetExceeded`` once the relators of a suffix hold more than
``MAX_RELATOR_LETTERS`` letters in total (read at each call).

The arc (Wirtinger) presentation of the same group grows linearly.  Its
generators are x_1..x_n, then one arc per crossing; the braid letters are read
last to first, as in the walk above, keeping the arc at each strand position,
with p at position i and q at position i + 1:

* s_i: a new arc a = p q p^-1 goes to position i, and p moves to i + 1;
* s_i^-1: q moves to position i, and a new arc a = q^-1 p q goes to i + 1.

Each crossing gives the relator a^-1 p q p^-1 or a^-1 q^-1 p q.  The closure
identifies the final arc at position k with x_k, or adds x_k^-1 x_j when x_j
sits there; relators are cyclically reduced, and those that vanish are
dropped.  Every arc is a conjugate of earlier ones, so the subgroup search
branches on the x columns alone (``branch_generators``) and fills the arc
columns by deduction.  Subgroup searches on a braid closure run on it.
"""

from __future__ import annotations

from ._record import record
from .braid import BraidWord, free_reduce
from .errors import BudgetExceeded
from .freegroup import FreeAutomorphism, FreeWord
from .smith import smith_invariants


MAX_RELATOR_LETTERS = 100_000


def artin_rep(word: BraidWord) -> FreeAutomorphism:
    """Image of a braid word under the Artin representation, walked from the
    last letter back.  ``BudgetExceeded`` once the relators x_i^-1 * image
    of a suffix hold more than ``MAX_RELATOR_LETTERS`` letters in total."""
    n = word.strands
    images = [FreeWord.generator(i, n) for i in range(1, n + 1)]
    for k in reversed(word.letters):
        i = abs(k) - 1
        p, q = images[i], images[i + 1]
        if k > 0:
            images[i], images[i + 1] = p * q * p.inverse(), p
        else:
            images[i], images[i + 1] = q, q.inverse() * p * q
        letters = 0
        for gen, image in enumerate(images, start=1):
            # x_i^-1 cancels a leading x_i and nothing more
            first, exp = image.syllables[0]
            letters += sum(abs(e) for _, e in image.syllables) + (-1 if first == gen and exp > 0 else 1)
        if letters > MAX_RELATOR_LETTERS:
            raise BudgetExceeded(
                f"Artin relators of a braid suffix reach {letters} letters,"
                f" past the limit of {MAX_RELATOR_LETTERS}"
            )
    return FreeAutomorphism(n, tuple(images))


@record
class GroupPresentation:
    """A finite presentation: generator count plus freely reduced relators.

    A subgroup search branches only on the first ``branch_generators``
    generators (all of them by default); the relators must then determine
    the action of every later generator from theirs, as in the arc
    presentation."""

    generator_count: int
    relators: tuple[FreeWord, ...]
    branch_generators: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(self.relators))
        for r in self.relators:
            if r.rank != self.generator_count:
                raise ValueError("relator rank does not match generator count")
        if self.branch_generators is None:
            object.__setattr__(self, "branch_generators", self.generator_count)
        elif not 1 <= self.branch_generators <= self.generator_count:
            raise ValueError(
                f"branch_generators {self.branch_generators} outside 1..{self.generator_count}"
            )

    def __str__(self) -> str:
        gens = ", ".join(f"x{i}" for i in range(1, self.generator_count + 1))
        if not self.relators:
            return f"⟨{gens} |⟩"
        rels = ", ".join(str(r) for r in self.relators)
        return f"⟨{gens} | {rels}⟩"


def link_group_presentation(word: BraidWord) -> GroupPresentation:
    """Artin's presentation of the fundamental group of the closure of
    ``word``, from ``artin_rep`` of the freely reduced braid, so refused
    once the relators x_i^-1 * b(x_i) of a suffix b of that braid hold more
    than ``MAX_RELATOR_LETTERS`` letters in total."""
    n = word.strands
    images = artin_rep(free_reduce(word)).images
    relators = (FreeWord.generator(i, n, -1) * image for i, image in enumerate(images, start=1))
    return GroupPresentation(n, tuple(r for r in relators if not r.is_identity()))


def arc_presentation(word: BraidWord) -> GroupPresentation:
    """The arc presentation of the closure of ``word``: x_1..x_n, then the
    arcs that do not end at a strand position, in the order they are made,
    with the x's as branch generators."""
    n = word.strands
    at = list(range(1, n + 1))
    crossings = []
    for arc, k in enumerate(reversed(word.letters), start=n + 1):
        i = abs(k) - 1
        p, q = at[i], at[i + 1]
        if k > 0:
            at[i], at[i + 1] = arc, p
            crossings.append((-arc, p, q, -p))
        else:
            at[i], at[i + 1] = q, arc
            crossings.append((-arc, -q, p, q))
    name = {arc: k for k, arc in enumerate(at, start=1) if arc > n}
    rank = n
    for arc in range(n + 1, n + 1 + len(word.letters)):
        if arc not in name:
            rank += 1
            name[arc] = rank
    closing = [(-k, arc) for k, arc in enumerate(at, start=1) if arc <= n]
    relators = []
    for relator in crossings + closing:
        renamed = [name.get(g, g) if g > 0 else -name.get(-g, -g) for g in relator]
        letters = FreeWord.from_letters(rank, renamed).letters()
        while letters and letters[0] == -letters[-1]:
            letters = letters[1:-1]
        if letters:
            relators.append(FreeWord.from_letters(rank, letters))
    return GroupPresentation(rank, tuple(relators), n)


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
