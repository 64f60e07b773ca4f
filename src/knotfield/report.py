"""Side-by-side counts of normal subgroups and ideal norms.

For a braid that carries a field invariant, list for each index m up to a
bound how many normal subgroups of index m the closure's fundamental group
has, next to how many ideals of norm m the field's ring of integers has.
The two columns are computed independently.  For a knot and an odd prime
p they are related: the subgroup column exceeds 1 at index 2p exactly when
p divides tr M - 2 (a dihedral quotient of order 2p), and since
gcd(tr - 2, tr + 2) divides 4, the ideal column then reads 1 at p exactly
when p divides tr - 2 to an odd power, that is, when p ramifies.

The subgroup column is Hall's count.  A normal subgroup of index m is the
kernel of a surjection onto a group Q of order m, and two surjections have
the same kernel exactly when they differ by an automorphism of Q, so the
count at m is the sum of |Epi(G, Q)| / |Aut(Q)| over the groups Q of order
m, one of each isomorphism type (P. Hall, "The Eulerian functions of a
group", 1936).  ``SMALL_GROUPS`` holds the 18 groups of order at most
``INDEX_CAP`` = 10 as permutation generators; each group's Cayley table and
inverses are built on first use, once per process.

For the closure of a braid on n strands, Hom(G, Q) is the set of tuples
(g_1..g_n) in Q^n that the braid fixes under the Hurwitz action, where s_i
sends (g_i, g_{i+1}) to (g_i g_{i+1} g_i^-1, g_i) and s_i^-1 undoes it.
These are the colourings of the arcs by Q (R. H. Fox, "A quick trip through
knot theory", 1962), with the letters read last to first as in
``artin.arc_presentation``.  The same walk on free words gives Artin's
images in ``artin.artin_rep``, so the fixed tuples are the solutions of
Artin's relators x_i^-1 b(x_i) in Q.  The epimorphisms are the fixed
tuples whose entries generate Q.  Every tuple of every group is walked
through the freely reduced word, one permutation of Q^n per letter, so the
work is linear in the braid.  A request of more than ``TUPLE_STEPS`` steps, one per tuple to
start and one per tuple and letter, is refused with ``BudgetExceeded``
before any work.

The ideal column comes from ``numfield.ideals_of_norm``.
"""

from __future__ import annotations

import re
from functools import cache

from ._record import record
from .braid import BraidWord, free_reduce
from .errors import BudgetExceeded
from .invariant import FieldInvariant, field_of
from .numfield import ideals_of_norm
from .subgroups import check_max_index

# (1 -2)^400 at max_index 10 takes 5.7 * 10**6 steps, 0.15-0.18 s on CPython 3.11
TUPLE_STEPS = 10_000_000

# name, order, |Aut|, generators as permutations in cycle notation
SMALL_GROUPS = (
    ("C1", 1, 1, ()),
    ("C2", 2, 1, ("(0 1)",)),
    ("C3", 3, 2, ("(0 1 2)",)),
    ("C4", 4, 2, ("(0 1 2 3)",)),
    ("C2xC2", 4, 6, ("(0 1)", "(2 3)")),
    ("C5", 5, 4, ("(0 1 2 3 4)",)),
    ("C6", 6, 2, ("(0 1 2 3 4 5)",)),
    ("S3", 6, 6, ("(0 1 2)", "(0 1)")),
    ("C7", 7, 6, ("(0 1 2 3 4 5 6)",)),
    ("C8", 8, 4, ("(0 1 2 3 4 5 6 7)",)),
    ("C4xC2", 8, 8, ("(0 1 2 3)", "(4 5)")),
    ("C2xC2xC2", 8, 168, ("(0 1)", "(2 3)", "(4 5)")),
    ("D4", 8, 8, ("(0 1 2 3)", "(1 3)")),
    ("Q8", 8, 24, ("(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)")),
    ("C9", 9, 6, ("(0 1 2 3 4 5 6 7 8)",)),
    ("C3xC3", 9, 48, ("(0 1 2)", "(3 4 5)")),
    ("C10", 10, 4, ("(0 1 2 3 4 5 6 7 8 9)",)),
    ("D5", 10, 20, ("(0 1 2 3 4)", "(1 4)(2 3)")),
)


@record
class CorrespondenceRow:
    index: int
    normal_subgroups: int
    ideals_of_norm: int


@record
class CorrespondenceReport:
    invariant: FieldInvariant
    rows: tuple[CorrespondenceRow, ...]


def correspondence_report(word: BraidWord, max_index: int) -> CorrespondenceReport:
    check_max_index(max_index)  # a usage error before any domain error of the braid
    invariant = field_of(word)
    normal = normal_subgroup_counts(word, max_index)
    rows = tuple(
        CorrespondenceRow(m, normal[m - 1], ideals_of_norm(invariant.field, m)) for m in range(1, max_index + 1)
    )
    return CorrespondenceReport(invariant, rows)


def normal_subgroup_counts(word: BraidWord, max_index: int) -> list[int]:
    """The number of normal subgroups of index 1, 2, ..., max_index of the
    fundamental group of the closure of ``word``."""
    check_max_index(max_index)
    letters = free_reduce(word).letters
    groups = [k for k, group in enumerate(SMALL_GROUPS) if group[1] <= max_index]
    steps = sum(SMALL_GROUPS[k][1] ** word.strands for k in groups) * (len(letters) + 1)
    if steps > TUPLE_STEPS:
        raise BudgetExceeded(
            f"normal-subgroup count of {steps} tuple steps at max_index {max_index} "
            f"exceeds the limit of {TUPLE_STEPS}"
        )
    counts = [0] * max_index
    for k in groups:
        name, order, automorphisms, _ = SMALL_GROUPS[k]
        kernels, rest = divmod(_epimorphisms(k, word.strands, letters), automorphisms)
        if rest:
            raise RuntimeError(
                f"internal error: epimorphisms onto {name} are not a multiple of |Aut| = {automorphisms}"
            )
        counts[order - 1] += kernels
    return counts


def _epimorphisms(k: int, strands: int, letters: tuple[int, ...]) -> int:
    """|Epi(G, Q)| for Q = SMALL_GROUPS[k]: the tuples of Q^strands that the
    braid fixes and whose entries generate Q."""
    mul, inv = _cayley(k)
    order = len(inv)
    generating: dict[frozenset[int], bool] = {}
    count = 0
    for code in _fixed_tuples(mul, inv, strands, letters):
        key = frozenset(code // order**j % order for j in range(strands))
        if key not in generating:
            generating[key] = len(_closure(0, key, lambda x, g: mul[x * order + g])) == order
        count += generating[key]
    return count


def _fixed_tuples(mul: list[int], inv: list[int], strands: int, letters: tuple[int, ...]) -> list[int]:
    """The tuples of Q^strands, coded with g_1 as the leading base-|Q| digit,
    that the braid fixes, its letters read last to first."""
    maps = {letter: _hurwitz(mul, inv, strands, letter) for letter in set(letters)}
    images = range(len(inv) ** strands)
    for letter in reversed(letters):
        images = list(map(maps[letter].__getitem__, images))
    return [code for code, image in enumerate(images) if code == image]


def _closure(identity, gens, times) -> list:
    """The elements that ``gens`` generate, from ``identity`` on, each new
    one the product ``times(a, g)`` of an earlier one and a generator."""
    elements = [identity]
    seen = {identity}
    for a in elements:
        for g in gens:
            ag = times(a, g)
            if ag not in seen:
                seen.add(ag)
                elements.append(ag)
    return elements


def _hurwitz(mul: list[int], inv: list[int], strands: int, letter: int) -> list[int]:
    """The Hurwitz action of one braid letter on the tuple codes of
    Q^strands, as the list of images."""
    m = len(inv)
    pair = []
    for a in range(m):
        for b in range(m):
            if letter > 0:  # (a, b) -> (a b a^-1, a)
                pair.append(mul[mul[a * m + b] * m + inv[a]] * m + a)
            else:  # (a, b) -> (b, b^-1 a b)
                pair.append(b * m + mul[mul[inv[b] * m + a] * m + b])
    low = m ** (strands - abs(letter) - 1)
    return [
        high + p * low + rest
        for high in range(0, m**strands, low * m * m)
        for p in pair
        for rest in range(low)
    ]


@cache
def _cayley(k: int) -> tuple[list[int], list[int]]:
    """The multiplication table of SMALL_GROUPS[k], flat with a * b at
    a * order + b, and the inverses; element 0 is the identity."""
    gens = []
    for text in SMALL_GROUPS[k][3]:
        image = list(range(10))  # every group acts on at most 10 points
        for cycle in re.findall(r"\(([^)]*)\)", text):
            points = [int(p) for p in cycle.split()]
            for p, q in zip(points, points[1:] + points[:1]):
                image[p] = q
        gens.append(tuple(image))
    # a * b applies a first, then b
    elements = _closure(tuple(range(10)), gens, lambda a, g: tuple(g[x] for x in a))
    index = {a: i for i, a in enumerate(elements)}
    mul = [index[tuple(b[x] for x in a)] for a in elements for b in elements]
    order = len(elements)
    inv = [mul[a * order : (a + 1) * order].index(0) for a in range(order)]
    return mul, inv
